"""Hereditary and saturated vertex subsets and their lattices.

A subset H of vertices is hereditary when every edge emitted inside H is
received inside H, and saturated when every non-sink vertex whose out-edges
all land in H already belongs to H.  Subsets that are both correspond to the
gauge-invariant ideals of the associated algebra, so the lattice of saturated
hereditary subsets decides simplicity questions: a trivial lattice (only the
empty set and the full vertex set) means no nontrivial invariant ideals.

Subsets are plain frozensets of vertex ids.  A hereditary subset is a union
of strongly connected components that holds every component reachable from
it, so both lattices are built over the graph's condensation record, the
saturated one directly rather than filtered: every step yields an element,
and the cost grows with the size of the lattice, not with the 2^n subsets.
:func:`_listings` lists either kind or both in one pass over the components,
their vertices read from the record's vertex map, each element as its
vertices in declaration order, which a report prints as they come and
:func:`lattice` wraps in frozensets.  Listing refuses graphs beyond a
configurable vertex cap; the verdicts only ask whether a lattice is trivial,
which :func:`_trivial_flags` reads from the record's kinds and successor
links at any size, with no closure.  :func:`lattice_bruteforce` checks all
2^n subsets and is kept as the reference the tests compare against.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .graphs import (DEFAULT_LATTICE_CAP, CapExceeded, Graph, _memoised, _refuse_assignment,
                     _refuse_deletion, _refuse_negative_cap, _refuse_str, _vertex_set)

KINDS = ("hereditary", "saturated_hereditary")


def is_hereditary(g: Graph, members: Iterable[str]) -> bool:
    """Whether every edge emitted in the subset is also received in it."""
    s = _vertex_set(g, members)
    return all(dst in s for _, src, dst in g._rows if src in s)


def is_saturated(g: Graph, members: Iterable[str]) -> bool:
    """Whether every non-sink vertex feeding entirely into the subset belongs
    to it."""
    s = _vertex_set(g, members)
    return not any(out and v not in s and all(dst in s for _, _, dst in out)
                   for v, out in g._out.items())


def saturated_hereditary_closure(g: Graph, members: Iterable[str]) -> frozenset[str]:
    """Least saturated hereditary superset of the given vertices.

    Computed with a worklist in O(V+E): each vertex that joins the set adds
    the targets of its out-edges (hereditary), and lowers the count of
    outside-landing out-edges of each vertex that feeds it; a vertex whose
    count reaches zero joins too (saturated).  Sinks never reach zero, as
    they have no out-edges to count down.  The map is extensive, monotone,
    and idempotent.
    """
    work = list(_vertex_set(g, members))
    outside = {v: len(g._out[v]) for v in g.vertices}
    current: set[str] = set()
    while work:
        v = work.pop()
        if v in current:
            continue
        current.add(v)
        work.extend(dst for _, _, dst in g._out[v] if dst not in current)
        for _, u, _ in g._in[v]:
            outside[u] -= 1
            if not outside[u] and u not in current:
                work.append(u)
    return frozenset(current)


def _trivial_flags(g: Graph) -> tuple[bool, bool]:
    """Whether the hereditary and the saturated hereditary lattices are
    trivial: the first iff there is at most one component, as a nonempty
    hereditary set holds a terminal one; the second iff at most one is
    terminal and every other is ``"acyclic"``, as saturation adds acyclic
    ones, but not a second terminal component, nor one with a cycle to the
    vertices that cannot reach it."""
    _, successors, kinds = g._condensation
    inner = [kind for kind, entered in zip(kinds, successors) if entered]
    return len(kinds) <= 1, len(kinds) - len(inner) <= 1 and set(inner) <= {"acyclic"}


class SubsetLattice(NamedTuple("SubsetLattice", [
        ("graph", Graph), ("kind", str), ("elements", tuple[frozenset[str], ...])])):
    """All subsets of one kind, ordered by their vertex bitmask (ascending,
    bit i = i-th declared vertex), so output order is deterministic.  Its
    length is the number of elements.  The first membership test keeps a
    set of the elements for later ones, which no copy or pickle carries."""

    __setattr__, __delattr__ = _refuse_assignment, _refuse_deletion
    __getstate__ = lambda self: None

    @_memoised
    def _members(self) -> frozenset[frozenset[str]]:
        return frozenset(self.elements)

    def __contains__(self, members: Iterable[str]) -> bool:
        _refuse_str(members, "vertex")
        return frozenset(members) in self._members

    def __len__(self) -> int:
        return len(self.elements)

    def is_trivial(self) -> bool:
        """Only the empty set and the full vertex set are present."""
        full = frozenset(self.graph.vertices)
        return all(s == frozenset() or s == full for s in self.elements)


def lattice(g: Graph, kind: str, cap: int = DEFAULT_LATTICE_CAP) -> SubsetLattice:
    """Enumerate the lattice of hereditary (or saturated hereditary) subsets.

    Hereditary subsets are built over the condensation, sinks first: each
    component joins every set found so far that holds all its successors.
    Only an ``"acyclic"`` component with an out-edge can leave a hereditary
    set unsaturated (every other non-sink vertex has a target a hereditary
    set holds only together with it), so for the saturated kind such a
    vertex joins, in place, every set holding all its successors.  Elements
    come in ascending bitmask order, as from :func:`lattice_bruteforce`.

    Raises :class:`CapExceeded` when the graph has more than ``cap`` vertices,
    and ValueError when ``cap`` is negative; no partial lattice is returned.
    Only listings are capped; no verdict lists.
    """
    (listed,) = _listings(g, (kind,), cap)
    return SubsetLattice(g, kind, tuple(map(frozenset, listed)))


def _listings(g: Graph, kinds: tuple[str, ...], cap: int) -> tuple[list[list[str]], ...]:
    """Each lattice of ``kinds`` in :func:`lattice`'s order and one pass over
    the components, an element listed as its vertices in declaration order;
    each component's vertex bits come from one pass over ``component_of``."""
    for kind in kinds:
        _check_lattice_args(g, kind, cap)
    component_of, successors, shapes = g._condensation
    saturating = [kind == "saturated_hereditary" for kind in kinds]
    listed = [[0] for _ in kinds]
    owns = [0] * len(shapes)  # each component's vertex bits
    for i, v in enumerate(g.vertices):
        owns[component_of[v]] |= 1 << i
    for own, entered, shape in zip(owns, successors, shapes):
        # Edges leaving a component land in earlier ones, already decided.
        need = 0
        for c in entered:
            need |= owns[c]
        for saturated, found in zip(saturating, listed):
            if saturated and shape == "acyclic" and need:
                found[:] = [m | own if m & need == need else m for m in found]
            else:
                found += [m | own for m in found if m & need == need]
    vs = g.vertices
    return tuple([[v for v, b in zip(vs, bin(mask)[:1:-1]) if b == "1"]  # bit i at index i
                  for mask in sorted(found)] for found in listed)


def lattice_bruteforce(g: Graph, kind: str, cap: int = DEFAULT_LATTICE_CAP) -> SubsetLattice:
    """Reference route: check every one of the 2^n vertex subsets.

    Same arguments, cap and element order as :func:`lattice`; kept
    independent of it as a cross-check.
    """
    _check_lattice_args(g, kind, cap)
    n = len(g.vertices)
    elements = []
    for mask in range(1 << n):
        s = frozenset(v for i, v in enumerate(g.vertices) if mask >> i & 1)
        if not is_hereditary(g, s):
            continue
        if kind == "saturated_hereditary" and not is_saturated(g, s):
            continue
        elements.append(s)
    return SubsetLattice(g, kind, tuple(elements))


def _check_lattice_args(g: Graph, kind: str, cap: int) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown lattice kind {kind!r}")
    _refuse_negative_cap(cap, "vertex")
    n = len(g.vertices)
    if n > cap:
        raise CapExceeded(
            f"lattice enumeration over {n} vertices exceeds cap {cap}")
