import math
import random
from fractions import Fraction

import pytest

from graphcstar import (
    ConditionS,
    Graph,
    PeriodicityVerdict,
    VertexClasses,
    VertexWeights,
    WitnessRequest,
    condition_L,
    condition_L_bruteforce,
    condition_S,
    find_witness,
    inner_product,
    is_disjoint_cycles,
    is_nonreturning_set,
    is_nonreturning_vector,
    is_returning,
    left_action,
    paths_of_length,
    periodicity,
    sup_norm,
    vertex_classes,
)
from graphcstar.correspondence import PathVector
from graphcstar.conditions import is_returning as _is_returning

from conftest import (
    SINKFREE_L_FIXTURES,
    chain_graph,
    cycle_graph,
    exit_graph,
    iso_graphs,
    lcm_graph,
    random_graph,
    random_no_sink_no_source,
    rose2,
    shuffled,
    source_loop,
    theta,
    time_limit,
    two_loops,
)


def test_is_returning():
    g = exit_graph()
    assert not is_returning(g.path(["a", "b"]))
    assert is_returning(g.path(["a", "a"]))
    assert is_returning(g.path(["b", "c", "c"]))
    assert not is_returning(g.path(["a", "b", "c"]))


def test_is_nonreturning_set():
    g = exit_graph()
    assert is_nonreturning_set([g.path(["a", "b"])])
    # the last edge of one member appears inside the other
    assert not is_nonreturning_set([g.path(["a", "b"]), g.path(["b", "c"])])
    # a single returning path fails against itself
    assert not is_nonreturning_set([g.path(["a", "a"])])
    assert is_nonreturning_set([g.path(["a", "b"]), g.path(["b", "c"])][1:])
    with pytest.raises(ValueError, match="nonempty"):
        is_nonreturning_set([])
    with pytest.raises(ValueError, match="mixed"):
        is_nonreturning_set([g.path(["a"]), g.path(["a", "b"])])


def test_condition_L_examples():
    holds, cycle = condition_L(exit_graph())
    assert holds and cycle is None
    holds, cycle = condition_L(two_loops())
    assert not holds and cycle.edges == ("c",)
    holds, cycle = condition_L(cycle_graph(5))
    assert not holds and cycle.edges == ("e1", "e2", "e3", "e4", "e5")
    holds, cycle = condition_L(source_loop())
    assert not holds and cycle.edges == ("c",)
    assert condition_L(Graph(("v",), ())).holds  # no cycles at all


def test_condition_L_agrees_with_bruteforce():
    rng = random.Random(41)
    failures = 0
    for _ in range(500):
        g = random_graph(rng, max_vertices=5, max_edges=8)
        fast = condition_L(g)
        brute = condition_L_bruteforce(g)
        assert fast.holds == brute.holds
        assert fast.violating_cycle == brute.violating_cycle
        if not fast.holds:
            failures += 1
    assert failures > 50  # both branches exercised


def test_condition_L_agrees_with_bruteforce_shuffled():
    # Mostly out-degree-one vertices, so exitless cycles are common and
    # several may compete for the earliest declared vertex.
    rng = random.Random(43)
    failures = 0
    for _ in range(1500):
        nv = rng.randint(1, 8)
        vertices = [f"v{i}" for i in range(nv)]
        edges = [(f"e{i}", v, rng.choice(vertices)) for i, v in enumerate(vertices)
                 if rng.random() < 0.9]
        for j in range(rng.randint(0, 3)):
            edges.append((f"x{j}", rng.choice(vertices), rng.choice(vertices)))
        g = shuffled(Graph(tuple(vertices), tuple(edges)), rng)
        fast = condition_L(g)
        brute = condition_L_bruteforce(g)
        assert fast.holds == brute.holds
        assert fast.violating_cycle == brute.violating_cycle, g
        failures += not fast.holds
    assert 300 < failures < 1400  # both branches exercised


def test_condition_L_agrees_with_bruteforce_on_every_small_graph():
    # All 3,395 graphs of at most 4 vertices and 6 edges, up to isomorphism.
    failing = 0
    for g in iso_graphs(4, 6):
        fast = condition_L(g)
        assert fast == condition_L_bruteforce(g), g
        failing += not fast.holds
    assert 0 < failing < 3395


def test_condition_L_on_long_inputs():
    g = chain_graph(10_000)
    assert condition_L(g) == (True, None)
    holds, cycle = condition_L(chain_graph(10_000, loop=True))
    assert not holds and cycle.edges == ("loop",)
    holds, cycle = condition_L(cycle_graph(10_000))
    assert not holds and cycle.edges == tuple(f"e{i}" for i in range(1, 10_001))


def test_condition_S_examples():
    assert condition_S(exit_graph()) == (True, "ok")
    assert condition_S(Graph(("v",), ())) == (False, "has_sinks")
    assert condition_S(cycle_graph(3)) == (False, "fails_L")
    assert condition_S(two_loops()) == (False, "fails_L")
    # sink reported before the Condition (L) failure
    g = Graph(("v", "s"), (("loop", "v", "v"), ("out", "v", "s")))
    assert condition_S(g) == (False, "has_sinks")


def test_periodicity_structural():
    for n in (1, 2, 3, 5, 8):
        verdict = periodicity(cycle_graph(n))
        assert verdict.periodic and verdict.minimal_period == n
        assert verdict.method == "structural" and verdict.searched_bound is None
    assert periodicity(lcm_graph()).minimal_period == 12
    assert not periodicity(two_loops()).periodic
    assert not periodicity(Graph(("v",), ())).periodic
    assert not periodicity(source_loop()).periodic
    with pytest.raises(ValueError, match="empty"):
        periodicity(Graph((), ()))
    with pytest.raises(ValueError, match="unknown method"):
        periodicity(cycle_graph(2), method="guess")


def disjoint_cycles(lengths) -> Graph:
    vertices, edges = [], []
    for c, n in enumerate(lengths):
        names = [f"c{c}v{i}" for i in range(n)]
        vertices += names
        edges += [(f"c{c}e{i}", names[i], names[(i + 1) % n]) for i in range(n)]
    return Graph(tuple(vertices), tuple(edges))


def test_periodicity_direct_power():
    v = periodicity(lcm_graph(), method="direct-power")
    assert v.periodic and v.minimal_period == 12 and v.searched_bound == 12
    v = periodicity(two_loops(), method="direct-power")
    assert not v.periodic and v.searched_bound == 4
    # disjoint cycles of equal length
    g = Graph(("a1", "a2", "b1", "b2"),
              (("p", "a1", "a2"), ("q", "a2", "a1"), ("r", "b1", "b2"), ("s", "b2", "b1")))
    assert periodicity(g, method="direct-power").minimal_period == 2
    v = periodicity(disjoint_cycles((3, 4, 5, 7)), method="direct-power")
    assert v.periodic and v.minimal_period == v.searched_bound == 420


def test_periodicity_bound_exhaustion_is_reported():
    v = periodicity(cycle_graph(3), method="direct-power", bound=2)
    assert (v.periodic, v.minimal_period, v.searched_bound) == (False, None, 2)
    # the structural method knows better
    assert periodicity(cycle_graph(3)).periodic


def test_periodicity_refuses_a_negative_bound():
    for method in ("direct-power", "structural"):
        with pytest.raises(ValueError, match="^bound must be nonnegative, got -3$"):
            periodicity(cycle_graph(3), method=method, bound=-3)
    v = periodicity(cycle_graph(3), method="direct-power", bound=0)
    assert (v.periodic, v.minimal_period, v.searched_bound) == (False, None, 0)


def test_periodicity_direct_power_costs_edges_per_power():
    rng = random.Random(83)
    vertices = tuple(f"v{i}" for i in range(120))
    g = Graph(vertices, tuple((f"e{i}", rng.choice(vertices), rng.choice(vertices))
                              for i in range(240)))
    with time_limit(2):  # not 240 dense 120 x 120 matrix products
        v = periodicity(g, method="direct-power")
    assert (v.periodic, v.minimal_period, v.searched_bound) == (False, None, 240)


def test_periodicity_direct_power_default_bound_is_not_stepped_through():
    # Disjoint cycles of the primes 2..23 (100 vertices) have lcm
    # 223,092,870: one search step per power would not finish.
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23)
    with time_limit(5):
        v = periodicity(disjoint_cycles(primes), method="direct-power")
    assert v == (True, math.prod(primes), "direct-power", math.prod(primes))
    # An explicit bound still searches, and reports it; the search to the
    # lcm finds what the permutation powers do.
    v = periodicity(disjoint_cycles((2, 3)), method="direct-power", bound=5)
    assert v == (False, None, "direct-power", 5)
    rng = random.Random(29)
    for _ in range(60):
        g = shuffled(disjoint_cycles([rng.randint(1, 6) for _ in range(rng.randint(1, 4))]), rng)
        v = periodicity(g, method="direct-power")
        assert v == periodicity(g, method="direct-power", bound=v.searched_bound), g


def test_periodicity_methods_agree():
    rng = random.Random(43)
    graphs = [random_no_sink_no_source(rng) for _ in range(150)]
    # 8-40 vertices: disjoint unions of cycles of lengths up to 8, and a
    # spanning permutation plus extra edges
    for i in range(100):
        nv = rng.randint(8, 40)
        if i % 2:
            lengths = []
            while sum(lengths) < nv:
                lengths.append(rng.randint(1, min(8, nv - sum(lengths))))
            g = disjoint_cycles(lengths)
        else:
            vertices = tuple(f"v{j}" for j in range(nv))
            targets = rng.sample(vertices, nv)
            extras = [(rng.choice(vertices), rng.choice(vertices))
                      for _ in range(rng.randint(1, nv))]
            g = Graph(vertices, tuple((f"e{j}", src, dst) for j, (src, dst)
                                      in enumerate([*zip(vertices, targets), *extras])))
        graphs.append(shuffled(g, rng))
    for g in graphs:
        s = periodicity(g)
        d = periodicity(g, method="direct-power")
        assert s.periodic == d.periodic
        assert s.minimal_period == d.minimal_period
        assert s.periodic == is_disjoint_cycles(g)


def test_periodicity_methods_agree_on_every_small_graph():
    # All 4,388 graphs of 1-4 vertices and at most 6 edges, up to isomorphism.
    periodic = 0
    for k in range(1, 5):
        for g in iso_graphs(k, 6):
            s = periodicity(g)
            d = periodicity(g, method="direct-power")
            assert (s.periodic, s.minimal_period) == (d.periodic, d.minimal_period), g
            periodic += s.periodic
    assert 0 < periodic < 4388


# -- degree facts against their per-vertex definitions ------------------------
# The package reads sinks, sources and unit degrees from the sets of vertices
# that emit and that receive an edge; these read each vertex's edge lists.

def _classes_by_vertex(g):
    out, inc = g._out, g._in
    return VertexClasses(frozenset(v for v in g.vertices if not out[v]),
                         frozenset(v for v in g.vertices if not inc[v]),
                         frozenset(v for v in g.vertices if out[v]))


def _disjoint_cycles_by_vertex(g):
    return all(len(g._out[v]) == 1 and len(g._in[v]) == 1 for v in g.vertices)


def _condition_S_by_vertex(g):
    if any(len(g._out[v]) == 0 for v in g.vertices):
        return ConditionS(False, "has_sinks")
    return ConditionS(True, "ok") if condition_L(g).holds else ConditionS(False, "fails_L")


def _periodicity_by_vertex(g):
    if not _disjoint_cycles_by_vertex(g):
        return PeriodicityVerdict(False, None, "structural")
    lengths, seen = [], set()
    for v in g.vertices:
        length, u = 0, v
        while u not in seen:
            seen.add(u)
            u = g._out[u][0][2]
            length += 1
        if length:
            lengths.append(length)
    return PeriodicityVerdict(True, math.lcm(*lengths), "structural")


def _check_degree_facts(g):
    """Each fast route on a fresh copy of ``g`` against its definition; the
    fast routes must build no per-vertex edge list (Condition (S) does
    only on a graph without sinks, where it decides Condition (L))."""
    fresh = Graph(g._vertices, g._edges)
    got = (vertex_classes(fresh), is_disjoint_cycles(fresh))
    if fresh.vertices:
        got += (periodicity(fresh),)
    assert "_out" not in vars(fresh) and "_in" not in vars(fresh), g
    cs = condition_S(fresh)
    assert (cs.reason == "has_sinks") == ("_out" not in vars(fresh)), g
    want = (_classes_by_vertex(g), _disjoint_cycles_by_vertex(g))
    if g.vertices:
        want += (_periodicity_by_vertex(g),)
    assert got == want and cs == _condition_S_by_vertex(g), g


def test_degree_facts_match_their_definitions_on_every_small_graph():
    # The empty graph, then all 4,388 graphs of 1-4 vertices and at most 6
    # edges, up to isomorphism.
    _check_degree_facts(Graph((), ()))
    for k in range(1, 5):
        for g in iso_graphs(k, 6):
            _check_degree_facts(g)


def _sparse_families(n, rng):
    """Graphs like the large sparse benchmark's: a cycle, disjoint cycles of
    prime lengths, a chain into two loops, a cycle with chords, and an
    out-tree with as many random edges, each over a shuffled vertex order."""
    vs = tuple(f"v{i}" for i in range(n))
    order = list(vs)
    rng.shuffle(order)
    ring = [(f"e{i}", order[i], order[(i + 1) % n]) for i in range(n)]
    yield Graph(vs, ring)
    cycles, at = [], 0
    while at < n:
        length = rng.choice([p for p in (2, 3, 5, 7, 11, 101, 997) if p <= n - at] or [n - at])
        cycles += [(f"p{at + i}", order[at + i], order[at + (i + 1) % length])
                   for i in range(length)]
        at += length
    yield Graph(vs, cycles)
    yield Graph(vs, [(f"e{i}", order[i], order[i + 1]) for i in range(n - 1)]
                + [("r0", order[-1], order[-1]), ("r1", order[-1], order[-1])])
    yield Graph(vs, ring + [(f"c{i}", rng.choice(vs), rng.choice(vs)) for i in range(n // 2)])
    tree = [(vs[rng.randrange(i)], vs[i]) for i in range(1, n)]
    tree += [(rng.choice(vs), rng.choice(vs)) for _ in range(n)]
    rng.shuffle(tree)
    yield Graph(vs, [(f"e{i}", s, d) for i, (s, d) in enumerate(tree)])


def test_degree_facts_match_their_definitions_on_large_sparse_graphs():
    rng = random.Random(1501)
    periodic = 0
    for g in _sparse_families(10_000, rng):
        _check_degree_facts(g)
        periodic += periodicity(g).periodic
    assert periodic == 2


def test_witness_request_validation():
    g = exit_graph()
    a = VertexWeights.indicator(g, ["u"])
    WitnessRequest(a=a, n=0, epsilon=0.5, max_length=3)
    with pytest.raises(ValueError, match="nonzero"):
        WitnessRequest(a=VertexWeights(g, {}), n=0, epsilon=0.5, max_length=3)
    with pytest.raises(ValueError, match="positive"):
        WitnessRequest(a=a, n=0, epsilon=0.0, max_length=3)
    with pytest.raises(ValueError, match="sup norm"):
        WitnessRequest(a=a, n=0, epsilon=1.5, max_length=3)
    with pytest.raises(ValueError, match="max_length"):
        WitnessRequest(a=a, n=3, epsilon=0.5, max_length=3)
    with pytest.raises(ValueError, match="nonnegative"):
        WitnessRequest(a=a, n=-1, epsilon=0.5, max_length=3)
    for eps in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite"):
            WitnessRequest(a=a, n=0, epsilon=eps, max_length=3)


def test_find_witness_first_hit_is_lexicographic():
    g = exit_graph()
    a = VertexWeights.indicator(g, ["u"])
    found = find_witness(g, WitnessRequest(a=a, n=0, epsilon=0.5, max_length=10))
    assert found == (1, g.path(["a"]))
    found = find_witness(g, WitnessRequest(a=a, n=2, epsilon=0.5, max_length=10))
    # (a,a,a) is returning; (a,a,b) is the next candidate and passes
    assert found == (3, g.path(["a", "a", "b"]))


def test_find_witness_exhausts_on_two_cycle():
    g = cycle_graph(2)
    a = VertexWeights.indicator(g, ["v1"])
    found = find_witness(g, WitnessRequest(a=a, n=2, epsilon=0.5, max_length=10))
    assert found is None


def test_find_witness_stops_at_the_first_length_without_a_path():
    # no path of length 2 leaves u, so none longer does; the search walked
    # one empty length after another up to max_length
    g = Graph(("u", "v"), (("e", "u", "v"),))
    a = VertexWeights.indicator(g, ["u"])
    with time_limit(5):
        assert find_witness(g, WitnessRequest(a=a, n=1, epsilon=0.5, max_length=10**12)) is None
    # paths that all return do not end the search: u's loop reaches length 3
    g = Graph(("u", "v"), (("l", "u", "u"), ("e", "v", "u")))
    a = VertexWeights.indicator(g, ["u", "v"])
    found = find_witness(g, WitnessRequest(a=a, n=1, epsilon=0.5, max_length=3))
    assert found == (2, g.path(["e", "l"]))


def test_find_witness_skips_lengths_without_witnesses():
    # in the theta graph every length-4 path from u is returning, but
    # length 5 offers (p1, q, p1, q, p2)
    g = theta()
    for p in paths_of_length(g, 4, from_vertices={"u"}):
        assert is_returning(p)
    a = VertexWeights.indicator(g, ["u"])
    found = find_witness(g, WitnessRequest(a=a, n=3, epsilon=0.5, max_length=11))
    assert found is not None
    m, path = found
    assert m == 5 and path.edges == ("p1", "q", "p1", "q", "p2")


def test_find_witness_threshold_is_strict():
    # weights: u carries 1.0, w carries exactly sup - epsilon, so w does not
    # qualify; u has only returning paths, so the search must come up empty
    g = Graph(("u", "w"), (("lu", "u", "u"), ("f", "w", "w"), ("g", "w", "w")))
    a = VertexWeights(g, {"u": 1.0, "w": 0.6})
    found = find_witness(g, WitnessRequest(a=a, n=1, epsilon=0.4, max_length=8))
    assert found is None
    # widening epsilon brings w in, and rose-shaped w has witnesses
    found = find_witness(g, WitnessRequest(a=a, n=1, epsilon=0.401, max_length=8))
    assert found is not None
    m, path = found
    assert path.source == "w" and a(path.source) > a.sup_norm - 0.401
    # sup - epsilon rounds to sup in floats, yet the weight sup exceeds it
    g = Graph(("u",), (("a", "u", "u"),))
    for sup in (1.0, 2.0 ** 53, 1e300):
        a = VertexWeights(g, {"u": sup})
        req = WitnessRequest(a=a, n=0, epsilon=sup * 2.0 ** -60, max_length=1)
        assert sup - req.epsilon == sup
        assert find_witness(g, req) == (1, g.path(("a",)))
    # weights at and next to the rounded threshold, against exact rationals;
    # the sink s carries the sup norm and starts no path
    g = Graph(("u", "s"), (("a", "u", "u"),))
    rng = random.Random(89)
    for _ in range(2000):
        sup = rng.choice((1.0, 3.0, 1e16, 2.0 ** 53)) * rng.uniform(0.5, 2.0)
        eps = sup * rng.choice((rng.random(), 2.0 ** -rng.randint(40, 60)))
        t = sup - eps
        for w in (t, math.nextafter(t, 0.0), min(sup, math.nextafter(t, math.inf))):
            req = WitnessRequest(a=VertexWeights(g, {"u": w, "s": sup}), n=0,
                                 epsilon=eps, max_length=1)
            exact = Fraction(w) + Fraction(eps) > Fraction(sup)
            assert (find_witness(g, req) is not None) == exact, (sup, eps, w)


def test_find_witness_contract_on_sinkfree_L_fixtures():
    for name, g in SINKFREE_L_FIXTURES.items():
        assert condition_S(g) == (True, "ok"), name
        bound = 2 * len(g.edges) + 2
        for v in g.vertices:
            a = VertexWeights.indicator(g, [v])
            for n in range(0, 4):
                req = WitnessRequest(a=a, n=n, epsilon=0.5, max_length=n + bound)
                found = find_witness(g, req)
                assert found is not None, (name, v, n)
                m, path = found
                assert n < m <= n + bound
                assert path.source == v
                assert not is_returning(path)
                assert is_nonreturning_vector(path)
                zeta = PathVector.delta(path)
                attained = sup_norm(inner_product(zeta, left_action(a, zeta)))
                assert attained > a.sup_norm - 0.5


def _witness_reference(g, req):
    """The eager search: every path of each length, re-checked three ways."""
    threshold = req.a.sup_norm - req.epsilon
    for m in range(req.n + 1, req.max_length + 1):
        for p in paths_of_length(g, m):
            if not req.a(p.source) > threshold or is_returning(p):
                continue
            if not is_nonreturning_vector(p):
                continue
            zeta = PathVector.delta(p)
            if sup_norm(inner_product(zeta, left_action(req.a, zeta))) > threshold:
                return m, p.edges
    return None


def test_find_witness_matches_eager_reference():
    rng = random.Random(29)
    hits = 0
    for _ in range(1000):
        g = random_graph(rng, max_vertices=5, max_edges=8)
        weights = {v: rng.choice((0.0, 0.25, 0.5, 1.0, rng.random())) for v in g.vertices}
        weights[rng.choice(g.vertices)] = rng.choice((1.0, 2.0, rng.uniform(0.5, 2.0)))
        a = VertexWeights(g, weights)
        # some epsilons put a weight exactly on the threshold
        gaps = [a.sup_norm - w for w in weights.values() if w < a.sup_norm]
        if gaps and rng.random() < 0.3:
            epsilon = rng.choice(gaps)
        else:
            epsilon = a.sup_norm * rng.uniform(0.01, 1.0)
        n = rng.randint(0, 3)
        req = WitnessRequest(a=a, n=n, epsilon=epsilon, max_length=n + rng.randint(1, 3))
        found = find_witness(g, req)
        expected = _witness_reference(g, req)
        assert (None if found is None else (found[0], found[1].edges)) == expected, g
        hits += found is not None
    assert 300 < hits < 900  # both outcomes exercised


def test_find_witness_on_long_paths():
    # f^61 returns; f^60 g is the next path in lexicographic order
    g = rose2()
    a = VertexWeights.indicator(g, ["u"])
    m, path = find_witness(g, WitnessRequest(a=a, n=60, epsilon=0.5, max_length=62))
    assert m == 61 and path.edges == ("f",) * 60 + ("g",)


def test_find_witness_rejects_foreign_weights():
    g = exit_graph()
    a = VertexWeights.indicator(cycle_graph(2), ["v1"])
    with pytest.raises(ValueError, match="different graph"):
        find_witness(g, WitnessRequest(a=a, n=0, epsilon=0.5, max_length=2))
