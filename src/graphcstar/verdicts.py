"""Simplicity verdicts and counterexample classification for finite graphs.

The verdict layer combines the structural conditions into the statements the
package exists to decide: a finite graph algebra is simple exactly when
Condition (L) holds and the saturated hereditary lattice is trivial, which
is read from the condensation at any size without listing the lattice.  When
the graph has no sources and no sinks the correspondence is full with
injective left action over a unital algebra, and an independent dichotomy
applies: simple iff nonperiodic with trivial hereditary lattice.  The two
routes must agree whenever both apply; disagreement raises
:class:`InternalInvariantError`, which should never happen and signals a
soundness bug rather than bad input.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple, Optional

from .conditions import ConditionL, ConditionS, _condition_S, condition_L, periodicity
from .graphs import DEFAULT_LATTICE_CAP, Graph, InternalInvariantError, Path, _refuse_negative_cap
from .ideals import KINDS, SubsetLattice, _listings, _trivial_flags, lattice

SIMPLE = "simple"
NOT_SIMPLE = "not_simple"


# Mathematical facts the verdicts rely on, keyed by stable tags that reports
# cite.  Kept in emission order.
CITATIONS: dict[str, str] = {
    "simplicity-criterion": (
        "a finite graph algebra is simple iff Condition (L) holds and the "
        "only saturated hereditary vertex sets are the empty and full sets"),
    "condition-s-simplicity": (
        "Condition (S) plus a trivial saturated hereditary lattice forces "
        "simplicity of the Cuntz-Pimsner algebra"),
    "l-iff-s-no-sinks": (
        "for finite graphs, Condition (S) holds iff the graph has no sinks "
        "and satisfies Condition (L)"),
    "no-sinks-injectivity": (
        "the left action on the edge correspondence is injective iff the "
        "graph has no sinks"),
    "schweizer-simplicity": (
        "for a full correspondence over a unital algebra with injective left "
        "action, the Cuntz-Pimsner algebra is simple iff the correspondence "
        "is nonperiodic and has trivial hereditary subsets"),
    "cycle-decomposition-periodicity": (
        "a finite graph with all in- and out-degrees one is a disjoint union "
        "of cycles; its correspondence is periodic with minimal period the "
        "lcm of the cycle lengths"),
}


class ReportFlags(NamedTuple):
    no_sinks: bool
    no_sources: bool
    finite: bool
    full: bool
    unital: bool
    injective_left_action: bool
    condition_L: bool
    condition_S: bool
    nonperiodic: bool
    trivial_hereditary: bool
    trivial_saturated_hereditary: bool


class SchweizerStatus(NamedTuple):
    holds: bool
    failed: tuple[str, ...]  # subset of ("has_sources", "has_sinks")


class AnalysisReport(NamedTuple):
    """Full verdict record for one graph; its lattices are listed, under
    ``cap``, on each read."""

    graph: Graph
    flags: ReportFlags
    simplicity: str  # SIMPLE or NOT_SIMPLE
    condition_S_reason: str
    schweizer: SchweizerStatus
    schweizer_predicted: Optional[str]
    counterexample_flags: tuple[str, ...]
    citations: tuple[str, ...]
    minimal_period: Optional[int]
    violating_cycle: Optional[Path]
    cap: int

    @property
    def hereditary_lattice(self) -> SubsetLattice:
        return lattice(self.graph, "hereditary", cap=self.cap)

    @property
    def saturated_hereditary_lattice(self) -> SubsetLattice:
        return lattice(self.graph, "saturated_hereditary", cap=self.cap)


def simplicity_verdict(g: Graph) -> tuple[str, tuple[str, ...]]:
    """Decide simplicity: Condition (L) plus trivial saturated hereditary
    lattice.  Returns the verdict and the citation tags used; the Condition
    (S) route is cited as well whenever it independently applies."""
    cl = condition_L(g)
    cs = _condition_S(len(g._emitters) < len(g.vertices), cl)
    return _simplicity(cl, cs, _trivial_flags(g)[1])


def _simplicity(cl: ConditionL, cs: ConditionS, trivial: bool) -> tuple[str, tuple[str, ...]]:
    # Condition (S) with no invariant ideals gives simplicity too; it agrees
    # with the verdict because (S) implies (L).
    return SIMPLE if cl.holds and trivial else NOT_SIMPLE, _SIMPLICITY_TAGS[cs.holds and trivial]


def _cited(tags: tuple[str, ...], schweizer: bool, periodic: bool) -> tuple[str, ...]:
    cited = {*tags, "l-iff-s-no-sinks", "no-sinks-injectivity"}
    if schweizer:
        cited.add("schweizer-simplicity")
    if periodic:
        cited.add("cycle-decomposition-periodicity")
    return tuple(tag for tag in CITATIONS if tag in cited)


# Citations and hypotheses take a few values each, built here once: a
# report's citations keyed (its verdict's tags, hypotheses hold, periodic),
# its hypotheses keyed (has sources, has sinks).
_SIMPLICITY_TAGS = (("simplicity-criterion",), ("simplicity-criterion", "condition-s-simplicity"))
_CITED = {key: _cited(*key) for key in product(_SIMPLICITY_TAGS, (False, True), (False, True))}
_SCHWEIZER = {(so, si): SchweizerStatus(not (so or si), ("has_sources",) * so + ("has_sinks",) * si)
              for so, si in product((False, True), repeat=2)}


def schweizer_check(g: Graph) -> tuple[SchweizerStatus, Optional[str]]:
    """Check the hypotheses of the nonperiodicity dichotomy and, when they
    hold, its prediction.

    Hypotheses: the correspondence is full (no sources) and the left action
    injective (no sinks); finiteness and unitality are automatic here.  Under
    them the prediction (simple iff nonperiodic with trivial hereditary
    lattice) must match :func:`simplicity_verdict`; a mismatch raises
    :class:`InternalInvariantError`.
    """
    r = classify(g)
    return r.schweizer, r.schweizer_predicted


def classify(g: Graph, cap: int = DEFAULT_LATTICE_CAP) -> AnalysisReport:
    """Compute the full flag record, verdicts, and counterexample flags.

    Counterexample flags mark the structurally interesting combinations:
    ``nonperiodic_but_not_L`` (nonperiodicity alone does not give Condition
    (L)), ``nonperiodic_trivial_invariant_not_simple`` (nonperiodic with no
    nontrivial invariant ideals yet not simple), and
    ``periodic_disjoint_cycles`` (the periodic case, always a disjoint union
    of cycles).

    Each fact is derived once and shared by the simplicity verdict and the
    dichotomy check, in O(V+E) at any size: sinks and sources from the sizes
    of the graph's emitter and receiver sets, and the citations and
    hypotheses from tables built at import; ``cap`` bounds only the
    lattices the report lists when they are read, and a negative ``cap`` is
    refused here.  A graph with no vertices raises ValueError("empty
    graph"), as :func:`periodicity` is defined for nonempty graphs only;
    :func:`simplicity_verdict` needs no period and calls it simple.
    """
    _refuse_negative_cap(cap, "vertex")
    n = len(g.vertices)
    has_sinks = len(g._emitters) < n
    has_sources = len(g._receivers) < n
    cl = condition_L(g)
    cs = _condition_S(has_sinks, cl)
    per = periodicity(g)
    nonperiodic = not per.periodic
    trivial_her, trivial_sat = _trivial_flags(g)

    flags = ReportFlags(not has_sinks, not has_sources, True, not has_sources, True, not has_sinks,
                        cl.holds, cs.holds, nonperiodic, trivial_her, trivial_sat)
    verdict, tags = _simplicity(cl, cs, trivial_sat)
    schweizer = _SCHWEIZER[has_sources, has_sinks]
    predicted = None
    if schweizer.holds:
        predicted = SIMPLE if nonperiodic and trivial_her else NOT_SIMPLE
        if predicted != verdict:
            raise InternalInvariantError(
                f"dichotomy predicts {predicted} but the simplicity criterion "
                f"gives {verdict}")

    counterexample = []
    if nonperiodic and not cl.holds:
        counterexample.append("nonperiodic_but_not_L")
    if nonperiodic and trivial_sat and verdict == NOT_SIMPLE:
        counterexample.append("nonperiodic_trivial_invariant_not_simple")
    if per.periodic:
        counterexample.append("periodic_disjoint_cycles")

    return AnalysisReport(g, flags, verdict, cs.reason, schweizer, predicted, tuple(counterexample),
                          _CITED[tags, schweizer.holds, per.periodic], per.minimal_period,
                          cl.violating_cycle, cap)


def report_to_dict(report: AnalysisReport) -> dict:
    """Deterministic plain-data form of a report; lists both lattices in one pass."""
    g = report.graph
    hereditary, saturated = _listings(g, KINDS, report.cap)
    return {
        "graph": {"vertices": len(g.vertices), "edges": len(g._rows)},
        "flags": dict(zip(ReportFlags._fields, report.flags)),
        "condition_S_reason": report.condition_S_reason,
        "simplicity": report.simplicity,
        "schweizer": {
            "hypotheses_hold": report.schweizer.holds,
            "failed": list(report.schweizer.failed),
            "predicted": report.schweizer_predicted,
        },
        "counterexample_flags": list(report.counterexample_flags),
        "citations": list(report.citations),
        "minimal_period": report.minimal_period,
        "violating_cycle": list(report.violating_cycle.edges) if report.violating_cycle else None,
        "hereditary_lattice": hereditary,
        "saturated_hereditary_lattice": saturated,
    }
