import gc
import random
import signal
import tracemalloc
from itertools import product
from typing import NamedTuple

import pytest
from hypothesis import given, settings

from graphcstar import (
    CapExceeded,
    Edge,
    Graph,
    InvalidGraphError,
    Path,
    connectivity,
    count_paths,
    cycle_exits,
    paths,
    paths_of_length,
    power_graph,
    simple_cycles,
    vertex_classes,
)
from graphcstar.paths import _count_paths_saturating, matmul, matrix_power

from conftest import (
    chain_graph,
    cycle_graph,
    exit_graph,
    graphs_strategy,
    iso_graphs,
    members,
    one_edge_each,
    random_graph,
    rose2,
    shuffled,
    source_loop,
    theta,
    time_limit,
    two_loops,
)


def test_validate_reports_every_violation():
    g = Graph(("u", "u", "w"), (("e", "u", "z"), ("e", "q", "w")))
    result = g.validate()
    assert not result.ok
    kinds = [(i.kind, i.offender) for i in result.issues]
    assert ("duplicate id", "u") in kinds
    assert ("duplicate id", "e") in kinds
    assert ("dangling endpoint", "e") in kinds
    # dangling src and dst are separate issues
    messages = " ".join(i.message for i in result.issues)
    assert "'z'" in messages and "'q'" in messages


def test_checked_raises_and_valid_passes():
    with pytest.raises(InvalidGraphError):
        Graph.checked(("u",), (("e", "u", "w"),))
    g = Graph.checked(("u", "w"), (("e", "u", "w"),))
    assert g.validate().ok


class _Triple(NamedTuple):
    a: str
    b: str
    c: str


def _reference_rows(edges):
    # The per-item rule Graph.__init__ applied to every item before.
    return tuple(e if type(e) is tuple and len(e) == 3 or type(e) is Edge else Edge(*e)
                 for e in edges)


def test_graph_stores_rows_like_the_per_item_rule():
    rng = random.Random(2021)
    exact = (tuple, Edge._make)  # the forms stored as given
    others = (list, _Triple._make)
    wrong = (lambda r: r[:2], lambda r: (*r, "x"))
    refused = kept = 0
    for _ in range(600):
        rows = [(f"e{i}", rng.choice("uv"), rng.choice("uv")) for i in range(rng.randint(0, 6))]
        forms = exact + (others if rng.random() < 0.5 else ())
        edges = [rng.choice(forms)(r) for r in rows]
        if edges and rng.random() < 0.3:
            edges.insert(rng.randint(0, len(edges)), rng.choice(wrong)(rng.choice(rows)))
        try:
            expected = _reference_rows(edges)
        except TypeError:
            with pytest.raises(TypeError):
                Graph(("u", "v"), edges)
            refused += 1
            continue
        got = Graph(("u", "v"), iter(edges))._edges
        assert len(got) == len(expected)
        for item, a, b in zip(edges, got, expected):
            assert type(a) is type(b) and a == b and (a is item) == (b is item), edges
        kept += sum(a is item for item, a in zip(edges, got))
    assert refused > 100 and kept > 500


def test_operations_refuse_invalid_graphs():
    g = Graph(("u",), (("e", "u", "w"),))
    with pytest.raises(InvalidGraphError):
        vertex_classes(g)


def test_vertex_classes_source_loop():
    classes = vertex_classes(source_loop())
    assert classes.sinks == frozenset()
    assert classes.sources == frozenset({"u"})
    assert classes.regular == frozenset({"u", "w"})


def test_vertex_classes_isolated_vertex():
    classes = vertex_classes(Graph(("v",), ()))
    assert classes.sinks == frozenset({"v"})
    assert classes.sources == frozenset({"v"})
    assert classes.regular == frozenset()


def test_paths_of_length_example():
    ps = paths_of_length(exit_graph(), 2, from_vertices={"u"})
    assert [p.edges for p in ps] == [("a", "a"), ("a", "b"), ("b", "c"), ("b", "d")]


def test_paths_of_length_filters_and_errors():
    g = exit_graph()
    ps = paths_of_length(g, 2, from_vertices={"u"}, to_vertices={"u"})
    assert [p.edges for p in ps] == [("a", "a"), ("b", "d")]
    assert paths_of_length(g, 3, from_vertices=set()) == []
    with pytest.raises(ValueError):
        paths_of_length(g, 0)
    with pytest.raises(ValueError, match="unknown vertex"):
        paths_of_length(g, 1, from_vertices={"zz"})


def test_paths_are_composable_and_lex_sorted():
    rng = random.Random(7)
    for _ in range(40):
        g = random_graph(rng)
        edge_pos = {e.id: i for i, e in enumerate(g.edges)}
        for n in (1, 2, 3):
            ps = paths_of_length(g, n)
            for p in ps:
                for i in range(n - 1):
                    assert g.edge_map[p.edges[i]].dst == g.edge_map[p.edges[i + 1]].src
            keys = [tuple(edge_pos[e] for e in p.edges) for p in ps]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)


def test_paths_of_length_filters_match_filtered_full_list():
    rng = random.Random(23)
    for _ in range(1000):
        g = random_graph(rng, max_vertices=5, max_edges=8)
        n = rng.randint(1, 5)
        sources = None if rng.random() < 0.3 else {v for v in g.vertices if rng.random() < 0.5}
        ranges = None if rng.random() < 0.3 else {v for v in g.vertices if rng.random() < 0.5}
        expected = [p for p in paths_of_length(g, n)
                    if (sources is None or p.source in sources)
                    and (ranges is None or p.range in ranges)]
        assert paths_of_length(g, n, from_vertices=sources, to_vertices=ranges) == expected


def test_path_count_matches_adjacency_power():
    rng = random.Random(11)
    for _ in range(100):
        g = random_graph(rng, max_vertices=5, max_edges=8)
        for n in (1, 2, 3, 4, 5):
            assert len(paths_of_length(g, n)) == count_paths(g, n)


def test_matrix_power_matches_repeated_products():
    rng = random.Random(17)
    for _ in range(60):
        m = random_graph(rng, max_vertices=5, max_edges=10).adjacency_matrix()
        product = m
        for n in range(1, 14):
            assert matrix_power(m, n) == product
            product = matmul(product, m)
    assert count_paths(rose2(), 200) == 2 ** 200
    with pytest.raises(ValueError, match="at least 1"):
        matrix_power([[1]], 0)


def _counting_squarings(monkeypatch) -> list[int]:
    """Patch the counter's matrix power to record each exponent it squares."""
    squared: list[int] = []
    original = paths._power

    def power(m, n, mul):
        squared.append(n)
        return original(m, n, mul)

    monkeypatch.setattr(paths, "_power", power)
    return squared


def _hand_off(g: Graph, limit: int = 400) -> int:
    """The first n at which the path counter may square: past its cost test
    n (V+E) > V^3 (floor(log2 n) + 1), and long enough for V+1 steps first."""
    v, e = len(g.vertices), len(g.edges)
    return next((n for n in range(v + 2, limit) if n * (v + e) > v ** 3 * n.bit_length()),
                limit)


def test_saturating_count_is_clamped_exact_count(monkeypatch):
    squared = _counting_squarings(monkeypatch)
    rng = random.Random(19)
    routes = {"recurrence": 0, "squaring": 0}
    for _ in range(1200):
        g = random_graph(rng, max_vertices=5, max_edges=rng.choice((4, 10, 20)))
        switch = _hand_off(g)
        ceiling = rng.choice((1, 2, 5, 30, 1000, 10**12))
        # One n at random, and n just below, at and above the first n that
        # may hand off.
        for n in {rng.randint(1, 40), switch - 1, switch, switch + 1}:
            before = len(squared)
            got = _count_paths_saturating(g, n, ceiling)
            routes["squaring" if len(squared) > before else "recurrence"] += 1
            exact = sum(map(sum, matrix_power(g.adjacency_matrix(), n)))
            assert got == min(exact, ceiling), (g, n)
    assert min(routes.values()) >= 300, routes


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_count_paths_takes_the_cheaper_route():
    # Squaring the 2000 x 2000 adjacency matrix would take minutes and hold
    # 4 * 10^6 entries; the recurrence takes O(n E).
    with time_limit(5):
        assert count_paths(cycle_graph(2000), 3) == 2000
    rng = random.Random(23)
    for _ in range(300):
        g = random_graph(rng, max_vertices=5, max_edges=rng.choice((4, 10, 20)))
        n = rng.randint(1, 40)
        assert count_paths(g, n) == sum(map(sum, matrix_power(g.adjacency_matrix(), n))), (g, n)


def test_exact_counts_on_both_sides_of_the_route_switch(monkeypatch):
    # count_paths steps the recurrence until the counts settle, and squares
    # the matrix only after V+1 steps that left them changing, when n steps
    # cost more; for each seeded graph n is taken just below, at and above the
    # first n that may hand off, and each count must be the exact int that
    # matrix powers give.  A case counts as squaring only when the loop squares.
    squared = _counting_squarings(monkeypatch)
    rng = random.Random(29)
    routes = {"recurrence": 0, "squaring": 0}
    for _ in range(200):
        g = random_graph(rng, max_vertices=4, max_edges=rng.choice((2, 6, 20, 40)))
        switch = _hand_off(g)
        m = g.adjacency_matrix()
        for n in {1, max(1, switch - 1), switch, switch + 1, rng.randint(1, switch + 1)}:
            before = len(squared)
            got = count_paths(g, n)
            squares = len(squared) > before
            routes["squaring" if squares else "recurrence"] += 1
            assert not squares or n >= switch, (g, n)
            assert type(got) is int and got == sum(map(sum, matrix_power(m, n))), (g, n)
    assert min(routes.values()) >= 200, routes


@pytest.mark.parametrize("ceiling", [None, 2, 3, 10])
def test_oscillating_counts_square_past_the_hand_off(monkeypatch, ceiling):
    # A 2-cycle with an exit into a sink: each endpoint's count alternates
    # 2, 1, 2, ... and never settles, so the loop squares once n steps cost
    # more than squaring: 6n > 27 (floor(log2 n) + 1) from n = 23.
    g = Graph(("a", "b", "s"), (("ab", "a", "b"), ("ba", "b", "a"), ("as", "a", "s")))
    squared = _counting_squarings(monkeypatch)
    for n in (21, 22, 23, 24, 10**6):
        before = len(squared)
        expected = 3 if ceiling is None else min(3, ceiling)
        assert _count_paths_saturating(g, n, ceiling) == expected, n
        assert (len(squared) > before) == (n >= 23), n
    assert squared[-1] == 10**6
    m = matrix_power(g.adjacency_matrix(), 23)
    assert count_paths(g, 22) == count_paths(g, 23) == sum(map(sum, m)) == 3


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
@pytest.mark.parametrize("g, n", [
    (Graph(("u",), ()), 10**7),
    (Graph(tuple(f"v{i}" for i in range(100)), (("e", "v0", "v1"),)), 10**5),
    (Graph(tuple(f"v{i}" for i in range(100)), (("e", "v0", "v0"),)), 10**5),
])
def test_path_counts_on_sparse_graphs_take_no_step_per_length(g, n):
    # A recurrence step costs V+E, not E; charged E alone, these graphs ran
    # all n steps.  Now each stops at the first step that changes no count.
    expected = sum(map(sum, matrix_power(g.adjacency_matrix(), n)))
    with time_limit(2):
        assert count_paths(g, n) == expected
        p = power_graph(g, n)
    assert p.vertices == g.vertices and len(p.edges) == expected


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
@pytest.mark.parametrize("g, count", [
    (one_edge_each(200, seed=5), 200),
    (Graph(tuple(f"v{i}" for i in range(100)), (("e", "v0", "v1"),)), 0),
    (chain_graph(60, loop=True), 60),
], ids=["one edge each", "one edge", "chain into a loop"])
def test_counts_that_settle_are_not_squared(monkeypatch, g, count):
    # Every count here settles within V+1 steps.  A cost test taken before
    # the first step once squared the V x V matrix instead: about 7 s on the
    # first graph.  The cap stays at 10: at the default cap the first and
    # third power graphs would be built, 200 and 60 edges whose ids join 10^6
    # edge ids each, about 1 GB and 0.4 GB.
    assert count_paths(g, 3) == sum(map(sum, matrix_power(g.adjacency_matrix(), 3)))
    squared = _counting_squarings(monkeypatch)
    with time_limit(2):
        assert count_paths(g, 10**6) == count
        assert squared == []
        if count > 10:
            with pytest.raises(CapExceeded, match="exceeds cap 10"):
                power_graph(g, 10**6, cap=10)
        else:
            assert power_graph(g, 10**6, cap=10).edges == ()


def test_count_paths_matches_matrix_power_on_every_small_graph():
    # All 4,388 graphs of 1-4 vertices and at most 6 edges, up to isomorphism.
    for k in range(1, 5):
        for g in iso_graphs(k, 6):
            m = g.adjacency_matrix()
            for n in range(1, 7):
                assert count_paths(g, n) == sum(map(sum, matrix_power(m, n))), (g, n)


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_power_graph_cap_check_is_linear_on_long_cycle():
    # Squaring the 800 x 800 adjacency matrix took about 30 s here.
    with time_limit(10):
        p = power_graph(cycle_graph(800), 2)
    assert len(p.edges) == 800 and p.edges[-1] == ("e800.e1", "v800", "v2")


def test_path_count_between_vertices_matches_matrix_entry():
    g = exit_graph()
    m = matrix_power(g.adjacency_matrix(), 3)
    for i, v in enumerate(g.vertices):
        for j, w in enumerate(g.vertices):
            ps = paths_of_length(g, 3, from_vertices={v}, to_vertices={w})
            assert len(ps) == m[i][j]


def test_graph_path_validates():
    g = exit_graph()
    assert g.path(["a", "b", "c"]).range == "w"
    with pytest.raises(ValueError, match="unknown edge"):
        g.path(["zz"])
    with pytest.raises(ValueError, match="do not compose"):
        g.path(["a", "c"])
    with pytest.raises(ValueError):
        g.path([])


def test_out_edges_of_unknown_vertex():
    with pytest.raises(ValueError, match="unknown vertex 'zz'"):
        exit_graph().out_edges("zz")


def test_power_graph_one_is_identity():
    # The power holds plain rows and g holds Edges or plain rows; reading
    # either side's Edge view, which takes the place of its rows, keeps the
    # two equal.
    for edges in (exit_graph().edges, exit_graph()._rows):
        for read in product((False, True), repeat=2):
            g = Graph(exit_graph().vertices, edges)
            p = power_graph(g, 1)
            assert p == g and hash(p) == hash(g)
            for h, read_h in zip((g, p), read):
                if read_h:
                    h.edges
            assert p == g and g == p and hash(p) == hash(g), (edges, read)


def test_power_graph_edges_are_paths():
    g = two_loops()
    p2 = power_graph(g, 2)
    assert [e.id for e in p2.edges] == ["a.a", "a.b", "b.c", "c.c"]
    assert [(e.src, e.dst) for e in p2.edges] == [("u", "u"), ("u", "w"), ("u", "w"), ("w", "w")]


def test_power_graph_composition():
    rng = random.Random(5)
    for _ in range(30):
        g = random_graph(rng, max_vertices=4, max_edges=6)
        try:
            lhs = power_graph(power_graph(g, 2), 3)
            rhs = power_graph(g, 6)
        except CapExceeded:
            continue
        assert lhs == rhs


def test_power_graph_on_long_input():
    g = power_graph(cycle_graph(3), 40_000)
    # 40,000 is 1 mod 3: each path ends one vertex after it starts
    assert [(e.src, e.dst) for e in g.edges] == [("v1", "v2"), ("v2", "v3"), ("v3", "v1")]
    assert g.edges[0].id == ".".join(f"e{i % 3 + 1}" for i in range(40_000))


def test_power_graph_cap():
    g = rose2()  # 2^20 length-20 paths
    with pytest.raises(CapExceeded, match="power graph too large"):
        power_graph(g, 20)
    with pytest.raises(ValueError):
        power_graph(g, 0)
    # a negative cap would clamp the path count to a negative ceiling
    for cap in (-1, -5):
        with pytest.raises(ValueError, match="nonnegative"):
            power_graph(g, 3, cap=cap)


def test_power_graph_separator_collision():
    g = Graph(("v",), (("a", "v", "v"), ("b", "v", "v"),
                       ("b.b", "v", "v"), ("a.b", "v", "v")))
    # the length-2 paths (a, b.b) and (a.b, b) would both be named "a.b.b"
    with pytest.raises(ValueError, match="collide"):
        power_graph(g, 2)
    # (x, x.x) and (x.x, x) are both named "x.x.x"
    rose = Graph(("v",), (("x", "v", "v"), ("x.x", "v", "v")))
    with pytest.raises(ValueError, match="collide"):
        power_graph(rose, 2)


def test_power_graph_dotted_ids_without_collision():
    g = Graph(("v", "w"), (("a.1", "v", "w"), ("b", "w", "v"), ("c.2", "w", "w")))
    p2 = power_graph(g, 2)
    assert [e.id for e in p2.edges] == ["a.1.b", "a.1.c.2", "b.a.1", "c.2.b", "c.2.c.2"]
    assert p2.validate().ok


def _power_reference(g: Graph, n: int) -> Graph:
    """The n-th power graph built eagerly from the public path listing."""
    return Graph(g.vertices, tuple(
        Edge(".".join(p.edges), p.source, p.range) for p in paths_of_length(g, n)))


def _power_test_graph(rng: random.Random) -> Graph:
    """Up to 5 vertices and 9 edges in shuffled declaration order.  In about
    half the graphs some edge ids are "e<i>.d<j>": each "d<j>" part belongs
    to the "e<i>" before it, so joined ids never collide."""
    nv = rng.randint(1, 5)
    vertices = [f"v{i}" for i in range(nv)]
    dotted = rng.random() < 0.5
    edges = [(f"e{i}.d{rng.randrange(3)}" if dotted and rng.random() < 0.5 else f"e{i}",
              rng.choice(vertices), rng.choice(vertices))
             for i in range(rng.randint(0, 9))]
    return shuffled(Graph(tuple(vertices), tuple(edges)), rng)


def test_power_graph_matches_eager_reference():
    rng = random.Random(41)
    cap = 4000
    seen = dict.fromkeys(("sink", "source", "loop", "parallel", "dotted", "empty", "compared"), 0)
    for _ in range(1200):
        g = _power_test_graph(rng)
        n = rng.randint(1, 9)
        classes = vertex_classes(g)
        pairs = [(e.src, e.dst) for e in g.edges]
        seen["sink"] += bool(classes.sinks)
        seen["source"] += bool(classes.sources)
        seen["loop"] += any(s == d for s, d in pairs)
        seen["parallel"] += len(set(pairs)) < len(pairs)
        seen["dotted"] += any("." in e.id for e in g.edges)
        if count_paths(g, n) > cap:
            with pytest.raises(CapExceeded):
                power_graph(g, n, cap=cap)
            continue
        got = power_graph(g, n, cap=cap)
        assert got == _power_reference(g, n), (g, n)
        assert got.validate().ok
        seen["empty"] += not got.edges
        seen["compared"] += 1
    assert min(seen.values()) >= 100, seen


def test_power_graph_rows_are_the_joined_path_ids():
    # Every length 1..8 on one graph: sinks and edges into them (dead ends),
    # loops and parallel edges; a quarter of the graphs take ids from a pool
    # whose joins can collide, which must refuse exactly when two joined ids
    # of the path listing are equal.
    rng = random.Random(71)
    pool = ("a", "b", "a.b", "b.a", "a.a", "b.b", "c")
    cap = 3000
    seen = dict.fromkeys(("sink", "dead end", "loop", "parallel", "collision", "capped", "compared"), 0)
    for _ in range(300):
        g = _power_test_graph(rng)
        if rng.random() < 0.25:
            ids = rng.sample(pool, min(len(g.edges), len(pool)))
            g = Graph(g.vertices, tuple((i, e.src, e.dst) for i, e in zip(ids, g.edges)))
        sinks = vertex_classes(g).sinks
        pairs = [(e.src, e.dst) for e in g.edges]
        seen["sink"] += bool(sinks)
        seen["dead end"] += any(d in sinks for _, d in pairs)
        seen["loop"] += any(s == d for s, d in pairs)
        seen["parallel"] += len(set(pairs)) < len(pairs)
        for n in range(1, 9):
            if count_paths(g, n) > cap:
                with pytest.raises(CapExceeded):
                    power_graph(g, n, cap=cap)
                seen["capped"] += 1
                continue
            expected = [(".".join(p.edges), p.source, p.range) for p in paths_of_length(g, n)]
            if len({i for i, _, _ in expected}) < len(expected):
                with pytest.raises(ValueError, match="collide"):
                    power_graph(g, n, cap=cap)
                seen["collision"] += 1
                continue
            got = power_graph(g, n, cap=cap)
            assert got.vertices == g.vertices
            assert got._rows == tuple(expected), (g, n)
            # Plain rows, which the collector stops scanning, until the
            # Edge view is read and takes their place.  A row that survived
            # a young collection was untracked in it, and one pass over the
            # youngest generation untracks the rest.
            assert all(type(e) is tuple for e in got._rows)
            gc.collect(0)
            assert not any(map(gc.is_tracked, got._rows))
            assert all(type(e) is Edge for e in got.edges)
            assert got.edges == tuple(expected) and got._rows is got.edges
            seen["compared"] += 1
    assert min(seen.values()) >= 40, seen


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_power_graph_skips_dead_ends():
    # 12 layers of 6 vertices, each joined to every vertex of the next
    # layer, beside a separate C_3.  The layers hold 6^12 paths of length
    # 11 and none of length 12.  Walking them would not finish; building the
    # halves of length 5 and 6 that lead into them, without pruning, takes
    # tens of megabytes.
    vertices = tuple(f"L{i}_{j}" for i in range(12) for j in range(6))
    edges = tuple((f"d{i}_{j}_{k}", f"L{i}_{j}", f"L{i + 1}_{k}")
                  for i in range(11) for j in range(6) for k in range(6))
    c3 = cycle_graph(3)
    g = Graph(vertices + c3.vertices, edges + c3.edges)
    g.require_valid()
    tracemalloc.start()
    try:
        with time_limit(30):
            p = power_graph(g, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(e.src, e.dst) for e in p.edges] == [("v1", "v1"), ("v2", "v2"), ("v3", "v3")]
    assert p.edges[0].id == ".".join(["e1", "e2", "e3"] * 4)
    assert peak < 2_000_000, peak


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_paths_longer_than_every_dead_end_are_counted_at_once():
    # A 10^4-vertex chain starts no path of 10^4 edges.  The counts once
    # stepped 10^4 times at V+E a step, and power_graph then kept one vertex
    # set per length: 38.9 s and 2.1 GB at 8,000 vertices, with no cap hit.
    g = chain_graph(10**4)
    with time_limit(2):
        assert count_paths(g, 10**4) == 0
        assert power_graph(g, 10**4).edges == ()


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_power_graph_keeps_no_vertex_set_per_length():
    # Ten edges short of a 600-vertex chain's length, only ten paths remain.
    # One set of the vertices that start a path of each length peaked at
    # 14.8 MB of allocations under Python 3.11; the depths and the halving
    # tables peak at 4.3 MB.
    g = chain_graph(600)
    g.require_valid()
    tracemalloc.start()
    try:
        with time_limit(10):
            p = power_graph(g, 590)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(e.src, e.dst) for e in p.edges] == [(f"v{i}", f"v{i + 590}") for i in range(10)]
    assert p.edges[9].id == ".".join(f"e{i}" for i in range(9, 599))
    assert peak < 8_000_000, peak


def test_power_graph_edge_view_swap_memory():
    # 2^16 plain rows of R2's 16th power.  Reading the edges moves them into
    # a list and frees each as its Edge is made; a tuple built from a
    # generator held the rows and the view at once, 81 B/edge over the built
    # graph at its peak under Python 3.11, against 18 B/edge for the list.
    g = rose2()
    tracemalloc.start()
    try:
        p = power_graph(g, 16)
        built = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        p.edges
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = len(p.edges)
    assert n == 2**16
    assert built <= 176 * n, built / n
    assert peak - built <= 24 * n, (peak - built) / n


def test_simple_cycles_examples():
    assert [c.edges for c in simple_cycles(cycle_graph(3))] == [("e1", "e2", "e3")]
    assert [c.edges for c in simple_cycles(exit_graph())] == [("a",), ("b", "d"), ("c",)]
    assert [c.edges for c in simple_cycles(rose2())] == [("f",), ("g",)]
    # parallel edges give distinct cycles
    assert [c.edges for c in simple_cycles(theta())] == [("p1", "q"), ("p2", "q")]
    assert simple_cycles(Graph(("u", "w"), (("e", "u", "w"),))) == []


def test_simple_cycles_are_cycles_based_at_minimal_vertex():
    rng = random.Random(13)
    for _ in range(50):
        g = random_graph(rng)
        for c in simple_cycles(g):
            assert c.source == c.range
            src_positions = [g.vertex_pos[g.edge_map[e].src] for e in c.edges]
            assert src_positions[0] == min(src_positions)
            assert len(set(src_positions)) == len(src_positions)  # elementary


def test_simple_cycles_invariant_under_edge_renaming():
    g = exit_graph()
    renaming = {"a": "z9", "b": "y8", "c": "x7", "d": "w6"}
    g2 = Graph(g.vertices, tuple((renaming[e.id], e.src, e.dst) for e in g.edges))
    expected = [tuple(renaming[e] for e in c.edges) for c in simple_cycles(g)]
    assert [c.edges for c in simple_cycles(g2)] == expected


def test_simple_cycles_match_networkx_counts():
    nx = pytest.importorskip("networkx")
    rng = random.Random(23)
    for _ in range(300):
        g = shuffled(random_graph(rng, max_vertices=6, max_edges=12), rng)
        multiplicity: dict[tuple[str, str], int] = {}
        for e in g.edges:
            multiplicity[e.src, e.dst] = multiplicity.get((e.src, e.dst), 0) + 1
        d = nx.DiGraph(list(multiplicity))
        expected = 0
        for cyc in nx.simple_cycles(d):
            count = 1
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                count *= multiplicity[a, b]
            expected += count
        assert len(simple_cycles(g)) == expected


def test_simple_cycles_on_long_cycle():
    assert [c.edges for c in simple_cycles(cycle_graph(10_000))] == [
        tuple(f"e{i}" for i in range(1, 10_001))]


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_simple_cycles_search_only_the_base_component():
    # Each base once searched back over every later vertex that reaches it:
    # on a reversed chain, which has no cycle, that took 30.5 s at 8,000
    # vertices.  Below, a 500-cycle declared against its direction makes
    # each of its bases search back over the later ones; fed at its last
    # vertex by a 2 * 10^4-vertex chain, each base also searched the chain.
    n = 10**4
    vs = tuple(f"v{i}" for i in range(n))
    reversed_chain = Graph(vs, tuple((f"e{i}", vs[i + 1], vs[i]) for i in range(n - 1)))
    cycle = tuple(f"u{i}" for i in range(500))
    chain = tuple(f"w{i}" for i in range(2 * 10**4))
    edges = [(f"c{i}", cycle[(i + 1) % 500], cycle[i]) for i in range(500)]
    edges += [(f"d{i}", chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
    edges.append(("feed", chain[-1], cycle[-1]))
    fed = Graph(cycle + chain, edges)
    with time_limit(2):
        assert simple_cycles(reversed_chain) == []
        assert [c.edges for c in simple_cycles(fed)] == [tuple(f"c{i}" for i in range(499, -1, -1))]


def _simple_cycles_reference(g: Graph) -> list[tuple[str, ...]]:
    """The depth-first search without the reverse-reachability pruning: it
    enters every later vertex not on the trail."""
    pos = g.vertex_pos
    result = []
    for base_pos, base in enumerate(g.vertices):
        trail: list[str] = []
        reached: list[str] = []
        on_trail = {base}
        stack = [iter(g.out_edges(base))]
        while stack:
            for e in stack[-1]:
                w = e.dst
                if w == base:
                    result.append((*trail, e.id))
                elif pos[w] > base_pos and w not in on_trail:
                    trail.append(e.id)
                    reached.append(w)
                    on_trail.add(w)
                    stack.append(iter(g.out_edges(w)))
                    break
            else:
                stack.pop()
                if reached:
                    trail.pop()
                    on_trail.discard(reached.pop())
    return result


def test_simple_cycles_match_unpruned_search():
    rng = random.Random(59)
    caps = random.Random(61)  # apart, so the graphs drawn stay the same
    seen = dict.fromkeys(("nonempty", "loop", "parallel", "capped"), 0)
    for _ in range(1200):
        g = shuffled(random_graph(rng, max_vertices=7, max_edges=14), rng)
        expected = _simple_cycles_reference(g)
        got = [c.edges for c in simple_cycles(g)]
        assert got == expected, g
        assert all(type(c) is Path and c.graph is g for c in simple_cycles(g))
        cap = caps.randint(0, len(expected) + 1)
        if len(expected) > cap:
            with pytest.raises(CapExceeded):
                simple_cycles(g, cap=cap)
            seen["capped"] += 1
        else:
            assert [c.edges for c in simple_cycles(g, cap=cap)] == expected
        pairs = [(e.src, e.dst) for e in g.edges]
        seen["nonempty"] += bool(got)
        seen["loop"] += any(s == d for s, d in pairs)
        seen["parallel"] += len(set(pairs)) < len(pairs)
    assert seen["nonempty"] > 600 and min(seen.values()) >= 300, seen


def test_simple_cycles_cap():
    g = rose2()
    with pytest.raises(CapExceeded, match="exceeds cap"):
        simple_cycles(g, cap=1)


def test_negative_cycle_caps_are_refused_like_power_caps():
    # Once the cyclic graph raised CapExceeded and the acyclic one returned [].
    for g in (rose2(), chain_graph(3)):
        for cap in (-1, -5):
            with pytest.raises(ValueError, match=f"cycle cap must be nonnegative, got {cap}"):
                simple_cycles(g, cap=cap)
            with pytest.raises(ValueError, match=f"path cap must be nonnegative, got {cap}"):
                power_graph(g, 2, cap=cap)
    assert simple_cycles(chain_graph(3), cap=0) == []


def test_cycle_exits():
    g = exit_graph()
    assert cycle_exits(g, g.path(["a"])) == ["b"]
    assert cycle_exits(g, g.path(["b", "d"])) == ["a", "c"]
    # a parallel edge is an exit for the cycle using its twin
    t = theta()
    assert cycle_exits(t, t.path(["p1", "q"])) == ["p2"]
    # non-elementary cycles are accepted
    tl = two_loops()
    assert cycle_exits(tl, tl.path(["c", "c"])) == []
    assert cycle_exits(tl, tl.path(["a", "a"])) == ["b"]


def test_cycle_exits_rejects_non_cycles():
    g = exit_graph()
    with pytest.raises(ValueError, match="not a cycle"):
        cycle_exits(g, g.path(["b"]))
    with pytest.raises(ValueError, match="unknown edge"):
        cycle_exits(g, Path(g, ("zz",)))


def test_connectivity():
    assert connectivity(cycle_graph(4)) == (True, True)
    assert connectivity(source_loop()) == (True, False)
    two_parts = Graph(("u", "w"), (("a", "u", "u"), ("c", "w", "w")))
    assert connectivity(two_parts) == (False, False)
    assert connectivity(Graph(("v",), ())) == (True, False)
    assert connectivity(cycle_graph(1)) == (True, True)
    with pytest.raises(ValueError, match="empty graph"):
        connectivity(Graph((), ()))


def test_connectivity_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(29)
    strong_seen = 0
    for _ in range(600):
        g = shuffled(random_graph(rng, max_vertices=7, max_edges=rng.choice((4, 9, 16))), rng)
        d = nx.MultiDiGraph()
        d.add_nodes_from(g.vertices)
        d.add_edges_from((e.src, e.dst) for e in g.edges)
        assert {frozenset(c) for c in members(g)} == {
            frozenset(c) for c in nx.strongly_connected_components(d)}
        rank = g._condensation.component_of
        assert all(rank[e.dst] <= rank[e.src] for e in g.edges)  # sinks first
        # strong: every vertex reaches every vertex by a path of length >= 1
        strong = all(
            set().union(*({w} | nx.descendants(d, w) for w in d.successors(v)))
            == set(g.vertices)
            for v in g.vertices)
        assert connectivity(g) == (nx.is_weakly_connected(d), strong)
        strong_seen += strong
    assert strong_seen > 50


def test_connectivity_on_long_inputs():
    assert connectivity(cycle_graph(3000)) == (True, True)
    assert connectivity(chain_graph(3000)) == (True, False)


@given(graphs_strategy())
@settings(max_examples=60, deadline=None)
def test_random_graphs_validate_and_enumerate(g):
    assert g.validate().ok
    ps = paths_of_length(g, 2)
    assert len(ps) == count_paths(g, 2)
    for c in simple_cycles(g):
        assert cycle_exits(g, c) is not None
