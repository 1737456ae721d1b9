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

from typing import NamedTuple, Optional

from .conditions import ConditionL, ConditionS, _condition_S, condition_L, periodicity
from .graphs import Graph, InternalInvariantError, Path, vertex_classes
from .ideals import DEFAULT_LATTICE_CAP, KINDS, SubsetLattice, _listings, _trivial_flags, lattice

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
    cs = _condition_S(bool(vertex_classes(g).sinks), cl)
    return _simplicity(cl, cs, _trivial_flags(g)[1])


def _simplicity(cl: ConditionL, cs: ConditionS, trivial: bool) -> tuple[str, tuple[str, ...]]:
    verdict = SIMPLE if cl.holds and trivial else NOT_SIMPLE
    tags = ["simplicity-criterion"]
    if cs.holds and trivial:
        # Condition (S) with no invariant ideals gives simplicity too; it
        # agrees with the verdict because (S) implies (L).
        tags.append("condition-s-simplicity")
    return verdict, tuple(tags)


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
    dichotomy check, in O(V+E) at any size; ``cap`` bounds only the
    lattices the report lists when they are read.  A graph with no vertices
    raises ValueError("empty graph"), as :func:`periodicity` is defined for
    nonempty graphs only; :func:`simplicity_verdict` needs no period and
    calls it simple.
    """
    classes = vertex_classes(g)
    no_sinks = not classes.sinks
    no_sources = not classes.sources
    cl = condition_L(g)
    cs = _condition_S(not no_sinks, cl)
    per = periodicity(g)
    trivial_her, trivial_sat = _trivial_flags(g)

    flags = ReportFlags(
        no_sinks=no_sinks,
        no_sources=no_sources,
        finite=True,
        full=no_sources,
        unital=True,
        injective_left_action=no_sinks,
        condition_L=cl.holds,
        condition_S=cs.holds,
        nonperiodic=not per.periodic,
        trivial_hereditary=trivial_her,
        trivial_saturated_hereditary=trivial_sat,
    )
    verdict, tags = _simplicity(cl, cs, trivial_sat)
    failed = tuple(name for name, bad in (("has_sources", classes.sources),
                                          ("has_sinks", classes.sinks)) if bad)
    schweizer = SchweizerStatus(not failed, failed)
    predicted = None
    if schweizer.holds:
        predicted = SIMPLE if flags.nonperiodic and trivial_her else NOT_SIMPLE
        if predicted != verdict:
            raise InternalInvariantError(
                f"dichotomy predicts {predicted} but the simplicity criterion "
                f"gives {verdict}")

    counterexample = []
    if flags.nonperiodic and not flags.condition_L:
        counterexample.append("nonperiodic_but_not_L")
    if flags.nonperiodic and trivial_sat and verdict == NOT_SIMPLE:
        counterexample.append("nonperiodic_trivial_invariant_not_simple")
    if per.periodic:
        counterexample.append("periodic_disjoint_cycles")

    cited = set(tags)
    cited.update(("l-iff-s-no-sinks", "no-sinks-injectivity"))
    if schweizer.holds:
        cited.add("schweizer-simplicity")
    if per.periodic:
        cited.add("cycle-decomposition-periodicity")
    citations = tuple(tag for tag in CITATIONS if tag in cited)

    return AnalysisReport(
        graph=g,
        flags=flags,
        simplicity=verdict,
        condition_S_reason=cs.reason,
        schweizer=schweizer,
        schweizer_predicted=predicted,
        counterexample_flags=tuple(counterexample),
        citations=citations,
        minimal_period=per.minimal_period,
        violating_cycle=cl.violating_cycle,
        cap=cap,
    )


def report_to_dict(report: AnalysisReport) -> dict:
    """Deterministic plain-data form of a report; lists both lattices in one pass."""
    g = report.graph
    hereditary, saturated = _listings(g, KINDS, report.cap)
    return {
        "graph": {"vertices": len(g.vertices), "edges": len(g._rows)},
        "flags": report.flags._asdict(),
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
