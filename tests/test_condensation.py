"""The condensation record ``Graph._condensation`` and the depths read from
it, ``Graph._depth``, against definitions, and the routes that read them
instead of working out component facts again."""

import random

import pytest

import graphcstar
from graphcstar import Graph, classify, condition_S, connectivity, lattice_bruteforce
from graphcstar.ideals import _trivial_flags, saturated_hereditary_closure

from conftest import iso_graphs, random_graph, time_limit

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
    components = g._condensation.components
    if len(components) <= 1:
        return True, True
    return False, len(saturated_hereditary_closure(g, components[0])) == len(g.vertices)


def _kind(g, members):
    if len(members) == 1 and all(dst != members[0] for _, _, dst in g._out[members[0]]):
        return "acyclic"
    if all(len(g._out[v]) == 1 and g._out[v][0][2] in members for v in members):
        return "exitless"
    return "cyclic"


def _check_record(g, nx):
    components, successors, kinds = g._condensation
    assert len(components) == len(successors) == len(kinds)
    rank = {v: k for k, members in enumerate(components) for v in members}
    assert sorted(rank) == sorted(g.vertices)
    d = nx.MultiDiGraph()
    d.add_nodes_from(g.vertices)
    d.add_edges_from((src, dst) for _, src, dst in g._rows)
    assert {frozenset(c) for c in components} == set(map(frozenset, nx.strongly_connected_components(d)))
    for k, members in enumerate(components):
        entered = {rank[dst] for v in members for _, _, dst in g._out[v]} - {k}
        assert successors[k] == entered and all(c < k for c in entered)  # reverse topological
        assert kinds[k] == _kind(g, members)
    # (S) iff (L) and no sinks, read as: every component reaches a cyclic one.
    good = []
    for entered, kind in zip(successors, kinds):
        good.append(kind == "cyclic" or any(good[c] for c in entered))
    assert condition_S(g).holds == all(good)
    assert _trivial_flags(g) == _closure_flags(g)


def test_record_matches_definitions_on_every_small_graph():
    nx = pytest.importorskip("networkx")
    assert len(SMALL) == 4388
    for g in SMALL:
        _check_record(g, nx)
        assert _trivial_flags(g) == tuple(
            lattice_bruteforce(g, kind).is_trivial() for kind in ("hereditary", "saturated_hereditary"))


def test_record_matches_definitions_on_large_graphs():
    nx = pytest.importorskip("networkx")
    cycle, chain, dense = _seeded_large()
    for g in (cycle, chain, dense):
        _check_record(g, nx)
    assert cycle._condensation.kinds == ("exitless",)
    assert chain._condensation.kinds == ("cyclic",) + ("acyclic",) * (10**4 - 1)
    assert {"acyclic", "cyclic"} <= set(dense._condensation.kinds)


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
                  if len(g._emitters) < len(g.vertices)]
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
        if len(fresh._emitters) == len(fresh.vertices):
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
