"""Structural conditions on graphs: returning paths, Condition (L),
Condition (S), periodicity, and constructive witness search.

Condition (L) asks that every cycle has an exit.  Condition (S) asks that,
for every nonzero nonnegative vertex weight a, every n, and every tolerance,
some tensor power beyond n contains a nonreturning unit vector almost
attaining the norm of a under the inner product; for finite graphs it is
equivalent to Condition (L) together with the absence of sinks, and it forces
the left action to be injective.  Periodicity asks that some tensor power of
the edge correspondence is isomorphic to the coefficient algebra, which
happens exactly when the graph is a disjoint union of cycles; the minimal
period is then the lcm of the cycle lengths.
"""

from __future__ import annotations

from itertools import chain, islice
from math import fsum, isfinite, lcm
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional

from .graphs import (
    DEFAULT_PATH_CAP,
    Graph,
    Path,
    _power,
    _refuse_tuple_arithmetic,
    _same_graph,
    _walks,
)

if TYPE_CHECKING:
    from .correspondence import VertexWeights


def is_returning(p: Path) -> bool:
    """Whether the last edge of the path occurs earlier in the path."""
    return p.edges[-1] in p.edges[:-1]


def is_nonreturning_set(paths: Iterable[Path]) -> bool:
    """Whether a nonempty set of equal-length paths is jointly nonreturning.

    The requirement is pairwise, including each path against itself: the last
    edge of any member never occurs among the non-final edges of any member.
    Raises ValueError on an empty collection or mixed lengths.
    """
    ps = list(paths)
    if not ps:
        raise ValueError("nonempty set of paths required")
    length = ps[0].length
    if any(p.length != length for p in ps):
        raise ValueError("mixed path lengths")
    lasts = {p.edges[-1] for p in ps}
    inner = {eid for p in ps for eid in p.edges[:-1]}
    return lasts.isdisjoint(inner)


class ConditionL(NamedTuple):
    holds: bool
    violating_cycle: Optional[Path]


def condition_L(g: Graph) -> ConditionL:
    """Decide whether every cycle has an exit.

    A cycle without an exit is exactly a bare-cycle strongly connected
    component: every member emits one edge, and for a one-vertex component
    that edge is a loop.  So Condition (L) fails exactly when the
    condensation holds such an ``"exitless"`` component.  On failure the
    witness is the exitless cycle through the earliest such vertex in
    declaration order, walked from that vertex; with none, one shared
    ``ConditionL(True, None)`` is returned before any vertex is read.
    """
    components, _, kinds = g._condensation
    if "exitless" not in kinds:
        return _L_HOLDS
    first = min((v for c, kind in zip(components, kinds) if kind == "exitless" for v in c),
                key=g.vertex_pos.__getitem__)
    out = g._out
    eid, _, v = out[first][0]
    trail = [eid]
    while v != first:
        eid, _, v = out[v][0]
        trail.append(eid)
    return ConditionL(False, Path(g, tuple(trail)))


def condition_L_bruteforce(g: Graph, cap: int = DEFAULT_PATH_CAP) -> ConditionL:
    """Reference route: enumerate elementary cycles and test each for exits.

    Exitless cycles never revisit a vertex (out-degree one along the way), so
    elementary cycles suffice.  Kept independent of :func:`condition_L` as a
    cross-check.
    """
    from .paths import cycle_exits, simple_cycles
    for c in simple_cycles(g, cap=cap):
        if not cycle_exits(g, c):
            return ConditionL(False, c)
    return ConditionL(True, None)


class ConditionS(NamedTuple):
    holds: bool
    reason: str  # "ok", "has_sinks", or "fails_L"


def condition_S(g: Graph) -> ConditionS:
    """Decide Condition (S): holds iff the graph has no sinks and satisfies
    Condition (L).  Sinks are reported first."""
    if len(g._emitters) < len(g.vertices):
        return _S_HAS_SINKS
    return _condition_S(False, condition_L(g))


def _condition_S(has_sinks: bool, cl: ConditionL) -> ConditionS:
    """Condition (S) from the graph's sink status and its Condition (L)."""
    return _S_HAS_SINKS if has_sinks else _S_OK if cl.holds else _S_FAILS_L


class PeriodicityVerdict(NamedTuple):
    periodic: bool
    minimal_period: Optional[int]
    method: str  # "structural" or "direct-power"
    # For the direct-power method only: the largest power examined.  A
    # non-periodic verdict from that method means no period up to this bound.
    searched_bound: Optional[int] = None


# Verdicts that take only a few values, built once and shared by every call.
_L_HOLDS, _NONPERIODIC = ConditionL(True, None), PeriodicityVerdict(False, None, "structural")
_S_OK, _S_HAS_SINKS, _S_FAILS_L = map(ConditionS, (True, False, False), ("ok", "has_sinks", "fails_L"))


def _cycle_lengths(succ: dict[str, str]) -> list[int]:
    # ``succ`` maps each vertex to its one out-edge's target: a permutation.
    lengths = []
    seen: set[str] = set()
    for v in succ:
        if v in seen:
            continue
        length = 0
        u = v
        while u not in seen:
            seen.add(u)
            u = succ[u]
            length += 1
        lengths.append(length)
    return lengths


def is_disjoint_cycles(g: Graph) -> bool:
    """Whether every vertex has in-degree and out-degree exactly one."""
    return len(g._rows) == len(g.vertices) == len(g._emitters) == len(g._receivers)


def periodicity(g: Graph, method: str = "structural", bound: Optional[int] = None) -> PeriodicityVerdict:
    """Decide whether some tensor power of the edge correspondence is the
    coefficient algebra.

    structural: periodic iff every vertex has in- and out-degree one (the
    graph is a disjoint union of cycles); the minimal period is the lcm of
    the cycle lengths.

    direct-power: search n = 1..bound for the n-th power graph consisting of
    exactly one self-loop at every vertex, i.e. the n-th adjacency power
    equal to the identity, which holds exactly when every vertex has one
    length-n path and it ends at itself.  Each vertex tracks at most two
    path ends, stepped over its out-edges in O(E) per power.  The default
    bound is the structural lcm when degrees are all one, where powers of
    the successor permutation settle the search in O(V log^2 lcm), and
    twice the vertex count otherwise.  A negative verdict from this method
    only rules out periods up to the bound, which is reported in
    ``searched_bound``.  A negative bound is refused with ValueError.
    """
    if bound is not None and bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    if not g.vertices:
        raise ValueError("empty graph")
    if method == "structural":
        if is_disjoint_cycles(g):
            succ = {src: dst for _, src, dst in g._rows}
            return PeriodicityVerdict(True, lcm(*_cycle_lengths(succ)), "structural")
        return _NONPERIODIC
    if method != "direct-power":
        raise ValueError(f"unknown method {method!r}")
    if bound is None and is_disjoint_cycles(g):
        # The out-edges permute the vertices; the n-th power graph is all
        # loops iff the n-th power of the permutation, formed by O(log n)
        # compositions, is the identity.  The least such n is the lcm L of
        # the cycle lengths iff the L-th power is and no (L/p)-th is, p prime.
        succ = {src: dst for _, src, dst in g._rows}
        lengths = _cycle_lengths(succ)
        bound = lcm(*lengths)
        perm = [g.vertex_pos[succ[v]] for v in g.vertices]

        def is_identity(k: int) -> bool:
            return _power(perm, k, lambda a, b: [a[j] for j in b]) == list(range(len(perm)))

        primes = {p for k in set(lengths) for p in range(2, k + 1)
                  if k % p == 0 and all(p % q for q in range(2, p))}
        if is_identity(bound) and not any(is_identity(bound // p) for p in primes):
            return PeriodicityVerdict(True, bound, "direct-power", searched_bound=bound)
    elif bound is None:
        bound = 2 * len(g.vertices)
    start = {v: (v,) for v in g.vertices}
    ends = start
    for n in range(1, bound + 1):
        ends = {v: tuple(islice(chain.from_iterable(ends[dst] for _, _, dst in g._out[v]), 2))
                for v in g.vertices}
        if ends == start:
            return PeriodicityVerdict(True, n, "direct-power", searched_bound=bound)
    return PeriodicityVerdict(False, None, "direct-power", searched_bound=bound)


class WitnessRequest(NamedTuple("WitnessRequest", [
        ("a", "VertexWeights"), ("n", int), ("epsilon", float), ("max_length", int)])):
    """Parameters for the constructive Condition (S) witness search, checked
    whenever one is built, unpickling included."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too
    __add__ = __radd__ = __mul__ = __rmul__ = _refuse_tuple_arithmetic

    def __new__(cls, a: VertexWeights, n: int, epsilon: float, max_length: int):
        if a.is_zero():
            raise ValueError("weight function must be nonzero")
        if n < 0:
            raise ValueError("n must be nonnegative")
        if not isfinite(epsilon):
            raise ValueError("epsilon must be finite")
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if epsilon > a.sup_norm:
            raise ValueError("epsilon must not exceed the sup norm of the weights")
        if max_length <= n:
            raise ValueError("max_length must exceed n")
        return super().__new__(cls, a, n, epsilon, max_length)


def find_witness(g: Graph, req: WitnessRequest) -> Optional[tuple[int, Path]]:
    """Search for a nonreturning witness path beyond length ``req.n``.

    Scans lengths m = n+1 .. max_length in order and, within each length,
    paths in lexicographic edge order, lazily; memory grows with m only.  A
    witness must start at a vertex where the weight exceeds
    ``sup_norm(a) - epsilon`` strictly and must not be a returning path.
    That suffices for the delta vector at the path:

    * it is nonreturning exactly when the last edge does not occur earlier
      in the path, since an overlap of the path with its own shift by k
      would repeat the last edge at position m-1-k;
    * the value it attains, the sup norm of ``<zeta, a . zeta>``, is exactly
      the weight at the path's source.

    Returns the first (m, path) found, or None when the bound is exhausted
    -- which never claims nonexistence; a length with no path from such a
    vertex ends the search there, as no longer path exists either.
    """
    rows = g._rows  # refuses an invalid graph before the weights' graph is compared
    if not _same_graph(g, req.a.graph):
        raise ValueError("weights live over a different graph")
    # The rounded sup - epsilon decides every weight but one equal to it,
    # which exceeds the exact value when the exact residual is negative.
    threshold = req.a.sup_norm - req.epsilon
    first = [e for e in rows if (w := req.a.weights.get(e[1], 0.0)) > threshold or w == threshold
             and fsum((req.a.sup_norm, -req.epsilon, -threshold)) < 0]
    for m in range(req.n + 1, req.max_length + 1):
        seq = None
        for seq in _walks(g, m, first):
            if seq[-1] not in seq[:-1]:
                return m, Path(g, seq)
        if seq is None:
            break
    return None
