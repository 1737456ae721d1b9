import json
import random
import signal

import pytest

from graphcstar import (
    CITATIONS,
    CapExceeded,
    Graph,
    classify,
    condition_L,
    condition_L_bruteforce,
    condition_S,
    lattice,
    lattice_bruteforce,
    periodicity,
    report_to_dict,
    schweizer_check,
    serialize_json,
    simplicity_verdict,
    vertex_classes,
)
from graphcstar import verdicts
from graphcstar.cli import main
from graphcstar.conditions import PeriodicityVerdict

from conftest import (
    FIXTURES_DIR,
    chain_graph,
    cycle_graph,
    exit_graph,
    fixture_path,
    iso_graphs,
    lcm_graph,
    random_no_sink_no_source,
    source_loop,
    time_limit,
    two_loops,
)


def test_simplicity_simple_case():
    verdict, tags = simplicity_verdict(exit_graph())
    assert verdict == "simple"
    assert "simplicity-criterion" in tags
    # Condition (S) holds here, so the second route is cited too
    assert "condition-s-simplicity" in tags
    # no vertices: both lattices hold only the empty set, and (L) is vacuous
    assert simplicity_verdict(Graph((), ()))[0] == "simple"


def test_simplicity_not_simple_cases():
    assert simplicity_verdict(cycle_graph(4))[0] == "not_simple"   # fails L
    assert simplicity_verdict(two_loops())[0] == "not_simple"      # fails L
    assert simplicity_verdict(source_loop())[0] == "not_simple"    # fails L
    # trivial lattice alone is not enough, and a nontrivial lattice alone
    # breaks simplicity even with Condition (L)
    g = Graph(("u", "w"), (("a", "u", "u"), ("b", "u", "u"), ("e", "u", "w"),
                           ("f", "w", "w"), ("g", "w", "w")))
    assert condition_L(g).holds
    assert not lattice(g, "saturated_hereditary").is_trivial()
    assert simplicity_verdict(g)[0] == "not_simple"


def test_schweizer_check():
    status, predicted = schweizer_check(exit_graph())
    assert status.holds and status.failed == ()
    assert predicted == "simple"

    status, predicted = schweizer_check(source_loop())
    assert not status.holds and status.failed == ("has_sources",)
    assert predicted is None

    sink = Graph(("u", "s"), (("e", "u", "s"), ("l", "u", "u")))
    status, predicted = schweizer_check(sink)
    assert status.failed == ("has_sinks",)

    both = Graph(("a", "b"), (("e", "a", "b"),))
    status, predicted = schweizer_check(both)
    assert status.failed == ("has_sources", "has_sinks")


def test_dichotomy_mismatch_raises(monkeypatch, capsys):
    # a periodicity answer that contradicts the verdict must not pass silently
    monkeypatch.setattr(verdicts, "periodicity",
                        lambda g: PeriodicityVerdict(True, 1, "structural"))
    with pytest.raises(verdicts.InternalInvariantError, match="dichotomy predicts"):
        classify(exit_graph())
    with pytest.raises(verdicts.InternalInvariantError, match="dichotomy predicts"):
        schweizer_check(exit_graph())
    assert main(["analyze", str(fixture_path("g_exit"))]) == 4
    assert "internal invariant violation" in capsys.readouterr().err


def test_classify_two_loops():
    rep = classify(two_loops())
    f = rep.flags
    assert f.no_sinks and f.no_sources and f.finite and f.full and f.unital
    assert f.injective_left_action
    assert not f.condition_L and not f.condition_S
    assert f.nonperiodic
    assert not f.trivial_hereditary and not f.trivial_saturated_hereditary
    assert rep.simplicity == "not_simple"
    assert rep.condition_S_reason == "fails_L"
    assert rep.schweizer.holds and rep.schweizer_predicted == "not_simple"
    assert rep.counterexample_flags == ("nonperiodic_but_not_L",)
    assert rep.violating_cycle.edges == ("c",)
    assert rep.minimal_period is None


def test_classify_source_loop():
    rep = classify(source_loop())
    f = rep.flags
    assert f.no_sinks and not f.no_sources
    assert not f.full and not f.condition_L
    assert f.nonperiodic and f.trivial_saturated_hereditary
    assert not f.trivial_hereditary  # {w} is hereditary
    assert rep.simplicity == "not_simple"
    assert rep.schweizer.failed == ("has_sources",)
    assert set(rep.counterexample_flags) == {
        "nonperiodic_but_not_L", "nonperiodic_trivial_invariant_not_simple"}


def test_classify_periodic_graphs():
    for g, period in ((cycle_graph(3), 3), (lcm_graph(), 12)):
        rep = classify(g)
        assert not rep.flags.nonperiodic
        assert rep.minimal_period == period
        assert rep.counterexample_flags == ("periodic_disjoint_cycles",)
        assert rep.simplicity == "not_simple"
        assert "cycle-decomposition-periodicity" in rep.citations


def test_classify_simple_graph():
    rep = classify(exit_graph())
    assert rep.simplicity == "simple"
    assert rep.counterexample_flags == ()
    assert rep.violating_cycle is None
    assert rep.schweizer.holds and rep.schweizer_predicted == "simple"


def test_flag_consistency_random():
    rng = random.Random(71)
    for _ in range(200):
        g = random_no_sink_no_source(rng, max_vertices=6, max_edges=10)
        rep = classify(g)
        f = rep.flags
        assert f.injective_left_action == f.no_sinks
        assert f.full == f.no_sources
        assert f.condition_S == (f.condition_L and f.no_sinks)
        assert (rep.simplicity == "simple") == (
            f.condition_L and f.trivial_saturated_hereditary)
        assert f.condition_S == condition_S(g).holds
        assert f.no_sinks == (not vertex_classes(g).sinks)
        # dichotomy applies: hypotheses hold by construction
        assert rep.schweizer.holds
        assert rep.schweizer_predicted == rep.simplicity


def _census() -> list[dict]:
    """Each realised (L), (S), nonperiodic, Schweizer hypotheses, simplicity
    combination over every graph on exactly 1-4 vertices with at most 6
    edges, up to isomorphism, with its count and its first graph in
    enumeration order (fewest vertices, then fewest edges).  Every graph's
    flags are checked against the brute-force routes on the way."""
    rows: dict[tuple, dict] = {}
    for k in range(1, 5):
        for g in iso_graphs(k, 6):
            report = classify(g)
            flags = report.flags
            holds_L = condition_L_bruteforce(g).holds
            trivial_sat = lattice_bruteforce(g, "saturated_hereditary").is_trivial()
            assert flags.condition_L == holds_L, g
            assert flags.condition_S == (holds_L and flags.no_sinks), g
            assert flags.trivial_hereditary == lattice_bruteforce(g, "hereditary").is_trivial(), g
            assert flags.trivial_saturated_hereditary == trivial_sat, g
            assert flags.nonperiodic != periodicity(g, method="direct-power").periodic, g
            assert (report.simplicity == "simple") == (holds_L and trivial_sat), g
            key = (flags.condition_L, flags.condition_S, flags.nonperiodic,
                   report.schweizer.holds, report.simplicity)
            row = rows.setdefault(key, dict(zip(
                ("condition_L", "condition_S", "nonperiodic", "schweizer_hypotheses",
                 "simplicity"), key), count=0, first=serialize_json(g)))
            row["count"] += 1
    return list(rows.values())


def test_census_of_small_graphs():
    # The paper's comparison of Condition (S) with the nonperiodic condition,
    # done exhaustively on 4,388 graphs; the README cites these rows.
    census = _census()
    assert sum(row["count"] for row in census) == 4388
    assert census == json.loads((FIXTURES_DIR / "census.json").read_text())


def test_citations_have_statements():
    rep = classify(two_loops())
    assert rep.citations
    for tag in rep.citations:
        assert tag in CITATIONS and CITATIONS[tag]


def test_report_to_dict_is_deterministic():
    a = json.dumps(report_to_dict(classify(two_loops())), sort_keys=True)
    b = json.dumps(report_to_dict(classify(two_loops())), sort_keys=True)
    assert a == b
    d = report_to_dict(classify(source_loop()))
    assert d["simplicity"] == "not_simple"
    assert d["flags"]["trivial_saturated_hereditary"] is True
    assert d["violating_cycle"] == ["c"]
    assert d["saturated_hereditary_lattice"] == [[], ["u", "w"]]


class _CountingReads(Graph):
    """A graph that counts reads of its condensation record."""

    reads = 0

    @property
    def _condensation(self):
        _CountingReads.reads += 1
        return vars(Graph)["_condensation"].build(self)


def test_report_lists_both_lattices_in_one_pass(monkeypatch):
    calls = []
    listings = verdicts._listings
    monkeypatch.setattr(verdicts, "_listings",
                        lambda g, kinds, cap: calls.append(kinds) or listings(g, kinds, cap))
    monkeypatch.setattr(verdicts, "lattice", None)  # never listed one kind at a time
    g = _CountingReads(("u", "w", "x"), (("a", "u", "w"), ("b", "w", "w"), ("c", "x", "x")))
    report = classify(g)
    _CountingReads.reads = 0
    d = report_to_dict(report)
    assert calls == [("hereditary", "saturated_hereditary")] and _CountingReads.reads == 1
    assert d["hereditary_lattice"] == [[], ["w"], ["u", "w"], ["x"], ["w", "x"], ["u", "w", "x"]]
    assert d["saturated_hereditary_lattice"] == [[], ["u", "w"], ["x"], ["u", "w", "x"]]


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_verdicts_beyond_the_lattice_cap():
    # far over the vertex cap: the verdicts read the condensation and never
    # list a lattice, while listing one for the report still refuses
    cases = ((cycle_graph(20_000), "not_simple", "not_simple", True),
             (chain_graph(20_000), "simple", None, False))
    for g, simplicity, predicted, trivial_hereditary in cases:
        with time_limit(20):
            rep = classify(g)
            assert simplicity_verdict(g)[0] == rep.simplicity == simplicity
            status, got = schweizer_check(g)
        assert status == rep.schweizer and got == predicted
        assert rep.flags.trivial_hereditary == trivial_hereditary
        assert rep.flags.trivial_saturated_hereditary
        with pytest.raises(CapExceeded, match="exceeds cap"):
            report_to_dict(rep)
