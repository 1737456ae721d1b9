import pickle
import random
import tracemalloc
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcstar import (
    CapExceeded,
    Graph,
    VertexWeights,
    classify,
    condition_L,
    connectivity,
    is_hereditary,
    is_saturated,
    lattice,
    lattice_bruteforce,
    paths_of_length,
    report_to_dict,
    saturated_hereditary_closure,
    simplicity_verdict,
)
from graphcstar.ideals import KINDS

from conftest import (
    chain_graph,
    cycle_graph,
    graphs_strategy,
    iso_graphs,
    random_graph,
    random_no_sink_no_source,
    random_strongly_connected,
    shuffled,
    source_loop,
    two_loops,
)


def test_a_bare_str_is_refused_not_read_as_its_characters():
    # Edges e and f join u and v; "uv" is a third vertex, and "ef" no edge.
    g = Graph(("u", "v", "uv"), (("e", "u", "v"), ("f", "v", "u"), ("g", "uv", "uv")))
    calls = {
        "is_hereditary": lambda s: is_hereditary(g, s),
        "is_saturated": lambda s: is_saturated(g, s),
        "saturated_hereditary_closure": lambda s: saturated_hereditary_closure(g, s),
        "paths_of_length from": lambda s: paths_of_length(g, 1, from_vertices=s),
        "paths_of_length to": lambda s: paths_of_length(g, 1, to_vertices=s),
        "VertexWeights.indicator": lambda s: VertexWeights.indicator(g, s),
        "SubsetLattice.__contains__": lambda s: s in lattice(g, "hereditary"),
    }
    for name, call in calls.items():
        with pytest.raises(TypeError, match="^pass a collection of vertex ids, not the str 'uv'$"):
            call("uv")
        call(["uv"])  # the one vertex
        assert call(("u", "v")) == call({"u", "v"}), name
    with pytest.raises(TypeError, match="^pass a collection of edge ids, not the str 'ef'$"):
        g.path("ef")
    assert g.path(["e", "f"]).is_cycle()
    assert saturated_hereditary_closure(g, ["uv"]) == {"uv"} and is_hereditary(g, ("u", "v"))
    assert ["uv"] in lattice(g, "hereditary")


def test_membership_tests_read_one_kept_set():
    # 14 vertices with one loop each: all 16,384 subsets are hereditary, and
    # rebuilding a set of them on each test took about 0.9 ms a test
    vs = tuple(f"v{i}" for i in range(14))
    g = Graph(vs, tuple((f"l{i}", v, v) for i, v in enumerate(vs)))
    lat = lattice(g, "hereditary", cap=14)
    fields = (lat.graph, lat.kind, lat.elements)
    before = (pickle.dumps(lat), repr(lat), hash(lat))
    rng = random.Random(3)
    queries = [rng.sample(vs + ("x",), rng.randint(0, 15)) for _ in range(1000)]  # x: no vertex
    start = perf_counter()
    found = [q in lat for q in queries]
    assert perf_counter() - start < 0.3
    assert found == [frozenset(q) in set(lat.elements) for q in queries]
    assert 0 < sum(found) < len(found)
    with pytest.raises(TypeError, match="not the str"):
        "v0" in lat
    # the kept set changes no equality, hash, repr, unpacking or pickle
    assert (pickle.dumps(lat), repr(lat), hash(lat)) == before
    assert lat == fields and tuple(lat) == fields
    for clone in (pickle.loads(before[0]), pickle.loads(pickle.dumps(lat))):
        assert clone == lat and type(clone) is type(lat) and ["v0"] in clone
    with pytest.raises(AttributeError):
        lat._members = frozenset()


def test_is_hereditary():
    g = two_loops()
    assert is_hereditary(g, {"w"})
    assert not is_hereditary(g, {"u"})  # edge b escapes to w
    assert is_hereditary(g, set())
    assert is_hereditary(g, {"u", "w"})
    with pytest.raises(ValueError, match="unknown vertex"):
        is_hereditary(g, {"zz"})


def test_is_saturated():
    g = source_loop()
    # u is not a sink and all of its edges land in {w}, so {w} is unsaturated
    assert not is_saturated(g, {"w"})
    assert is_saturated(g, set())
    assert is_saturated(g, {"u", "w"})
    # sinks never force saturation
    g2 = Graph(("u", "s"), (("e", "u", "s"),))
    assert is_saturated(g2, {"u", "s"})
    assert is_saturated(g2, set())
    assert not is_saturated(g2, {"s"})  # u feeds only into {s}


def test_closure_examples():
    g = source_loop()
    assert saturated_hereditary_closure(g, {"w"}) == {"u", "w"}
    assert saturated_hereditary_closure(g, set()) == set()
    g2 = two_loops()
    assert saturated_hereditary_closure(g2, {"w"}) == {"w"}
    assert saturated_hereditary_closure(g2, {"u"}) == {"u", "w"}


def test_closure_laws_random():
    rng = random.Random(59)
    for _ in range(300):
        g = random_graph(rng, max_vertices=6, max_edges=10)
        s = frozenset(v for v in g.vertices if rng.random() < 0.4)
        extra = frozenset(v for v in g.vertices if rng.random() < 0.3)
        t = s | extra
        cs, ct = saturated_hereditary_closure(g, s), saturated_hereditary_closure(g, t)
        assert s <= cs                                           # extensive
        assert saturated_hereditary_closure(g, cs) == cs         # idempotent
        assert cs <= ct                                          # monotone
        assert is_hereditary(g, cs) and is_saturated(g, cs)


def test_lattice_two_loops():
    g = two_loops()
    sat = lattice(g, "saturated_hereditary")
    assert [sorted(s) for s in sat.elements] == [[], ["w"], ["u", "w"]]
    her = lattice(g, "hereditary")
    assert [sorted(s) for s in her.elements] == [[], ["w"], ["u", "w"]]
    assert not sat.is_trivial()
    assert {"w"} in sat and {"u"} not in sat


def test_lattice_source_loop_is_trivial():
    sat = lattice(source_loop(), "saturated_hereditary")
    assert [sorted(s) for s in sat.elements] == [[], ["u", "w"]]
    assert sat.is_trivial()
    # hereditary alone is larger: {w} is hereditary but not saturated
    her = lattice(source_loop(), "hereditary")
    assert [sorted(s) for s in her.elements] == [[], ["w"], ["u", "w"]]


def test_lattice_cycles_are_trivial():
    for n in (1, 2, 5):
        assert lattice(cycle_graph(n), "saturated_hereditary").is_trivial()
        assert lattice(cycle_graph(n), "hereditary").is_trivial()


def test_lattice_deterministic_order():
    g = two_loops()
    a = lattice(g, "saturated_hereditary")
    b = lattice(g, "saturated_hereditary")
    assert a.elements == b.elements
    # ascending bitmask order in vertex declaration order
    masks = [sum(1 << g.vertex_pos[v] for v in s) for s in a.elements]
    assert masks == sorted(masks)


def test_lattice_cap():
    g = Graph(tuple(f"v{i}" for i in range(17)), ())
    with pytest.raises(CapExceeded, match="exceeds cap"):
        lattice(g, "hereditary")
    assert len(lattice(g, "hereditary", cap=17)) == 2 ** 17
    with pytest.raises(ValueError, match="unknown lattice kind"):
        lattice(g, "invariant")


def test_lattice_matches_bruteforce_on_every_small_graph():
    # All 3,395 graphs of at most 4 vertices and 6 edges, up to isomorphism.
    sizes = set()
    for g in iso_graphs(4, 6):
        for kind in ("hereditary", "saturated_hereditary"):
            fast = lattice(g, kind)
            assert fast == lattice_bruteforce(g, kind), (g, kind)
            sizes.add((kind, len(fast)))
    assert {n for kind, n in sizes if kind == "saturated_hereditary"} >= {2, 3, 4, 5}


def test_report_lists_both_lattices_as_lattice_and_bruteforce_do():
    # All 4,388 graphs of 1-4 vertices and at most 6 edges, up to
    # isomorphism: a report lists each element as its vertices in
    # declaration order.
    for k in range(1, 5):
        for g in iso_graphs(k, 6):
            listed = report_to_dict(classify(g))
            for kind in KINDS:
                fast = lattice(g, kind)
                assert fast == lattice_bruteforce(g, kind), (g, kind)
                assert listed[f"{kind}_lattice"] == [
                    sorted(s, key=g.vertex_pos.__getitem__) for s in fast.elements], (g, kind)


def test_lattice_matches_bruteforce():
    rng = random.Random(71)
    nontrivial = 0
    for i in range(2400):
        if i % 3 == 2:
            g = random_no_sink_no_source(rng, max_vertices=8, max_edges=14)
        else:
            g = random_graph(rng, max_vertices=8, max_edges=rng.choice((6, 12, 20)))
        g = shuffled(g, rng)
        trivial = {}
        for kind in ("hereditary", "saturated_hereditary"):
            fast = lattice(g, kind)
            brute = lattice_bruteforce(g, kind)
            assert fast.kind == brute.kind == kind
            assert fast.elements == brute.elements, (g, kind)
            trivial[kind] = brute.is_trivial()
        nontrivial += len(fast) > 2
        # the verdicts read both flags from the condensation, never listing
        flags = classify(g).flags
        assert flags.trivial_hereditary == trivial["hereditary"], g
        assert flags.trivial_saturated_hereditary == trivial["saturated_hereditary"], g
        simple = condition_L(g).holds and trivial["saturated_hereditary"]
        assert simplicity_verdict(g)[0] == ("simple" if simple else "not_simple"), g
    assert nontrivial > 500  # beyond the trivial {}, V case


def test_lattice_of_long_cycle():
    g = cycle_graph(3000)
    for kind in ("hereditary", "saturated_hereditary"):
        assert lattice(g, kind, cap=3000).elements == (frozenset(), frozenset(g.vertices))


def test_saturated_lattice_is_listed_directly():
    # 18 leaves into one sink: 2^18 + 1 hereditary sets, of which only the
    # trivial two are saturated; listing them must not list the others
    leaves = tuple(f"l{i}" for i in range(18))
    g = Graph(leaves + ("s",), tuple((f"e{i}", v, "s") for i, v in enumerate(leaves)))
    tracemalloc.start()
    try:
        lat = lattice(g, "saturated_hereditary", cap=19)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lat.elements == (frozenset(), frozenset(g.vertices))
    assert peak < 1 << 20


def test_closure_on_long_chain():
    g = chain_graph(10_000)
    # hereditary: everything downstream of v0
    assert saturated_hereditary_closure(g, {"v0"}) == frozenset(g.vertices)
    # saturated: each vertex upstream feeds only into the set
    assert saturated_hereditary_closure(g, {"v9999"}) == frozenset(g.vertices)
    # the empty set is already closed
    assert saturated_hereditary_closure(g, set()) == frozenset()


def test_lattice_matches_closure_fixed_points():
    rng = random.Random(61)
    for _ in range(40):
        g = random_graph(rng, max_vertices=6, max_edges=9)
        lat = set(lattice(g, "saturated_hereditary").elements)
        n = len(g.vertices)
        fixed = set()
        for mask in range(1 << n):
            s = frozenset(v for i, v in enumerate(g.vertices) if mask >> i & 1)
            if saturated_hereditary_closure(g, s) == s:
                fixed.add(s)
        assert lat == fixed


def test_strongly_connected_hereditary_is_trivial():
    rng = random.Random(67)
    for _ in range(100):
        g = random_strongly_connected(rng)
        assert connectivity(g).strongly_connected
        assert lattice(g, "hereditary").is_trivial()
        assert lattice(g, "saturated_hereditary").is_trivial()


@given(graphs_strategy(max_vertices=5, max_edges=8), st.data())
@settings(max_examples=80, deadline=None)
def test_closure_is_least_fixed_point(g, data):
    members = data.draw(st.sets(st.sampled_from(sorted(g.vertices))))
    c = saturated_hereditary_closure(g, members)
    for s in lattice(g, "saturated_hereditary").elements:
        if frozenset(members) <= s:
            assert c <= s


def test_negative_vertex_caps_are_refused():
    for g in (source_loop(), chain_graph(3)):
        for kind in KINDS:
            for listing in (lattice, lattice_bruteforce):
                with pytest.raises(ValueError, match="vertex cap must be nonnegative, got -1"):
                    listing(g, kind, cap=-1)
            with pytest.raises(ValueError, match="nonnegative"):
                report_to_dict(classify(g, cap=-1))
        with pytest.raises(ValueError, match="vertex cap must be nonnegative, got -1"):
            classify(g, cap=-1)
