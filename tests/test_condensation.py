"""The condensation record ``Graph._condensation`` and the reach facts read
from it, ``Graph._reach`` and its view ``Graph._depth``, against definitions,
and the routes that read them instead of working out component facts again."""

import random

import pytest

import graphcstar
from graphcstar import Graph, classify, condition_S, connectivity, lattice_bruteforce, parse_dsl
from graphcstar.graphs import _walks
from graphcstar.ideals import _trivial_flags, saturated_hereditary_closure

from conftest import iso_graphs, members, random_graph, time_limit

SMALL = [g for k in range(1, 5) for g in iso_graphs(k, 6)]


def _seeded_large():
    """A 10^4-vertex cycle, chain into two loops and random E = 3V graph."""
    rng = random.Random(17)
    n = 10**4
    vs = tuple(f"v{i}" for i in range(n))
    cycle = [(f"e{i}", vs[i], vs[(i + 1) % n]) for i in range(n)]
    chain = [(f"e{i}", vs[i], vs[i + 1]) for i in range(n - 1)]
    chain += [("l1", vs[-1], vs[-1]), ("l2", vs[-1], vs[-1])]
    dense = [(f"e{i}", rng.choice(vs), rng.choice(vs)) for i in range(3 * n)]
    order = list(vs)
    rng.shuffle(order)
    return [Graph(vs, cycle), Graph(vs, chain), Graph(tuple(order), dense)]


def _closure_flags(g):
    """The route ``_trivial_flags`` took before the record held kinds: the
    saturated lattice is trivial iff the closure of the first terminal
    component is every vertex."""
    components = members(g)
    if len(components) <= 1:
        return True, True
    return False, len(saturated_hereditary_closure(g, components[0])) == len(g.vertices)


def _kind(g, group):
    if len(group) == 1 and all(dst != group[0] for _, _, dst in g._out[group[0]]):
        return "acyclic"
    if all(len(g._out[v]) == 1 and g._out[v][0][2] in group for v in group):
        return "exitless"
    return "cyclic"


def _check_record(g, nx):
    rank, successors, kinds = g._condensation
    # The map covers every vertex, and its values are the indices of the
    # per-component tuples, each component holding some vertex.
    assert sorted(rank) == sorted(g.vertices)
    assert len(successors) == len(kinds) and set(rank.values()) == set(range(len(kinds)))
    components = members(g)
    d = nx.MultiDiGraph()
    d.add_nodes_from(g.vertices)
    d.add_edges_from((src, dst) for _, src, dst in g._rows)
    assert {frozenset(c) for c in components} == set(map(frozenset, nx.strongly_connected_components(d)))
    for k, group in enumerate(components):
        entered = {rank[dst] for v in group for _, _, dst in g._out[v]} - {k}
        assert successors[k] == entered and all(c < k for c in entered)  # reverse topological
        assert kinds[k] == _kind(g, group)
    # (S) iff (L) and no sinks, read as: every component reaches a cyclic one.
    # The fold bounds the nonreturning paths from exactly the other vertices,
    # so (S) read from its definition holds iff it bounds none.
    good = []
    for entered, kind in zip(successors, kinds):
        good.append(kind == "cyclic" or any(good[c] for c in entered))
    assert condition_S(g).holds == all(good) == (not g._reach.bound)
    assert {v for v in g.vertices if not good[rank[v]]} == g._reach.bound.keys()
    assert _trivial_flags(g) == _closure_flags(g)
    # The saturated lattice is trivial iff there is at most one node: a
    # component that is not acyclic or that enters no other.
    nodes = [k for k, kind in enumerate(kinds) if kind != "acyclic" or not successors[k]]
    assert _trivial_flags(g)[1] == (len(nodes) <= 1)


def _longest_nonreturning(g, v, longest):
    """The length of the longest nonreturning path from ``v`` of at most
    ``longest`` edges (0 if none), its paths walked lazily."""
    return max((m for m in range(1, longest + 1)
                if any(seq[-1] not in seq[:-1] for seq in _walks(g, m, g._out[v]))), default=0)


def test_record_matches_definitions_on_every_small_graph():
    nx = pytest.importorskip("networkx")
    assert len(SMALL) == 4388
    bounded = 0
    for g in SMALL:
        _check_record(g, nx)
        assert _trivial_flags(g) == tuple(
            lattice_bruteforce(g, kind).is_trivial() for kind in ("hereditary", "saturated_hereditary"))
        # Far past the bound, where a path from a vertex that reaches no
        # cycle with an exit goes round its exitless cycle more than twice.
        longest = 3 * len(g.vertices) + 2
        for v, bound in g._reach.bound.items():
            assert bound == _longest_nonreturning(g, v, longest), (g, v)
        bounded += len(g._reach.bound)
    assert bounded == 8628  # of 16,435 vertices


def test_record_matches_definitions_on_large_graphs():
    nx = pytest.importorskip("networkx")
    cycle, chain, dense = _seeded_large()
    for g in (cycle, chain, dense):
        _check_record(g, nx)
    assert cycle._condensation.kinds == ("exitless",)
    assert chain._condensation.kinds == ("cyclic",) + ("acyclic",) * (10**4 - 1)
    assert {"acyclic", "cyclic"} <= set(dense._condensation.kinds)
    # Once round the bare cycle from each vertex; every chain vertex reaches
    # the two loops, a cycle with an exit.
    assert cycle._reach.bound == dict.fromkeys(cycle.vertices, 10**4)
    assert chain._reach.bound == {}


def _depth_by_definition(g):
    """The longest path from each vertex from which no cycle is reachable,
    by brute-force reachability and a depth-first search of every path."""
    succ = {v: [dst for _, src, dst in g._rows if src == v] for v in g.vertices}

    def reached(v):  # by one edge or more
        seen, todo = set(), list(succ[v])
        while todo:
            w = todo.pop()
            if w not in seen:
                seen.add(w)
                todo += succ[w]
        return seen

    def longest(v):
        return max((1 + longest(w) for w in succ[v]), default=0)

    after = {v: reached(v) for v in g.vertices}
    on_cycle = {v for v in g.vertices if v in after[v]}
    return {v: longest(v) for v in g.vertices if v not in on_cycle and not after[v] & on_cycle}


def test_depth_matches_its_definition():
    rng = random.Random(43)
    with_sinks = [g for g in (random_graph(rng, max_vertices=8, max_edges=12) for _ in range(3000))
                  if g._emitting < len(g.vertices)]
    seen = dict.fromkeys(("every vertex", "some vertices", "no vertex"), 0)
    for g in [*SMALL, *with_sinks]:
        depth = g._depth
        assert depth == _depth_by_definition(g), g
        seen["every vertex" if len(depth) == len(g.vertices) else
             "some vertices" if depth else "no vertex"] += 1
    assert len(with_sinks) >= 1500 and min(seen.values()) >= 300, seen
    # With no sink every vertex reaches a cycle, read with no Tarjan pass.
    for g in SMALL:
        fresh = Graph(g._vertices, g._edges)
        if fresh._emitting == len(fresh.vertices):
            assert fresh._depth == {} and "_condensation" not in vars(fresh)


def test_verdict_routes_leave_in_edges_unbuilt():
    for g in [*SMALL[::97], *_seeded_large()]:
        fresh = Graph(g._vertices, g._edges)
        graphcstar.condition_L(fresh)
        connectivity(fresh)
        if len(fresh.vertices) <= 16:
            graphcstar.report_to_dict(classify(fresh))
        else:
            classify(fresh)
        assert "_in" not in vars(fresh)


def test_verdict_path_builds_no_vertex_positions():
    # Condition (L), failing here, and the lattice listing read each
    # vertex's component from the record, not its declaration index.
    g = parse_dsl("vertex s\nvertex u\nvertex w\nedge a s u\nedge b u w\nedge c w u\n")
    graphcstar.report_to_dict(classify(g))
    assert not graphcstar.condition_L(g).holds
    assert "vertex_pos" not in vars(g)


def test_connectivity_union_find_is_not_quadratic():
    # A chain whose far end is entered from 10^5 more vertices: without
    # path halving each of them would walk the whole chain of links.
    n = 10**5
    chain = [f"c{i}" for i in range(n)]
    feeders = [f"f{i}" for i in range(n)]
    edges = [(f"e{i}", chain[i], chain[i + 1]) for i in range(n - 1)]
    edges += [(f"g{i}", v, chain[-1]) for i, v in enumerate(feeders)]
    g = Graph((*chain, *feeders), edges)
    g._condensation  # Tarjan's pass, timed apart from the union-find
    with time_limit(2):
        assert connectivity(g) == (True, False)
    assert "_in" not in vars(g)
