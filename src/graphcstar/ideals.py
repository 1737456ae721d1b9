"""Hereditary and saturated vertex subsets and their lattices.

A subset H of vertices is hereditary when every edge emitted inside H is
received inside H, and saturated when every non-sink vertex whose out-edges
all land in H already belongs to H.  Subsets that are both correspond to the
gauge-invariant ideals of the associated algebra, so the lattice of saturated
hereditary subsets decides simplicity questions: a trivial lattice (only the
empty set and the full vertex set) means no nontrivial invariant ideals.

Subsets are plain frozensets of vertex ids.  A hereditary subset is a union
of strongly connected components that contains every component reachable
from it, so :func:`lattice` enumerates such unions over the condensation of
the graph: every step of the enumeration yields an element, and the cost
grows with the size of the lattice, not with the 2^n subsets; the saturated
ones are listed in the same pass, not filtered.  Listing still
refuses graphs beyond a configurable vertex cap; the verdicts only ask
whether a lattice is trivial, which :func:`_trivial_flags` reads from the
condensation at any size.  :func:`lattice_bruteforce` checks all 2^n subsets
and is kept as the reference the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import CapExceeded, Graph, _vertex_set

DEFAULT_LATTICE_CAP = 16

KINDS = ("hereditary", "saturated_hereditary")


def _check_subset(g: Graph, members: Iterable[str]) -> frozenset[str]:
    g.require_valid()
    return _vertex_set(g, members)


def is_hereditary(g: Graph, members: Iterable[str]) -> bool:
    """Whether every edge emitted in the subset is also received in it."""
    s = _check_subset(g, members)
    return all(e.dst in s for e in g.edges if e.src in s)


def is_saturated(g: Graph, members: Iterable[str]) -> bool:
    """Whether every non-sink vertex feeding entirely into the subset belongs
    to it."""
    s = _check_subset(g, members)
    return not any(out and v not in s and all(e.dst in s for e in out)
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
    return _closure(g, _check_subset(g, members))


def _closure(g: Graph, members: Iterable[str]) -> frozenset[str]:
    """The worklist of :func:`saturated_hereditary_closure`, unchecked."""
    outside = {v: len(g._out[v]) for v in g.vertices}
    current: set[str] = set()
    work = list(members)
    while work:
        v = work.pop()
        if v in current:
            continue
        current.add(v)
        work.extend(e.dst for e in g._out[v] if e.dst not in current)
        for e in g._in[v]:
            u = e.src
            outside[u] -= 1
            if not outside[u] and u not in current:
                work.append(u)
    return frozenset(current)


def _trivial_flags(g: Graph) -> tuple[bool, bool]:
    """Whether the hereditary and the saturated hereditary lattices are
    trivial, in O(V+E).  Every nonempty hereditary set holds a terminal
    component, and ``g._components[0]`` is one, so the first lattice is
    trivial iff there is at most one component, and the second iff the
    closure of that component is V (it misses any other terminal one)."""
    components = g._components
    if len(components) <= 1:
        return True, True
    return False, len(_closure(g, components[0])) == len(g.vertices)


@dataclass(frozen=True)
class SubsetLattice:
    """All subsets of one kind, ordered by their vertex bitmask (ascending,
    bit i = i-th declared vertex), so output order is deterministic."""

    graph: Graph
    kind: str
    elements: tuple[frozenset[str], ...]

    def __contains__(self, members: Iterable[str]) -> bool:
        return frozenset(members) in set(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def is_trivial(self) -> bool:
        """Only the empty set and the full vertex set are present."""
        full = frozenset(self.graph.vertices)
        return all(s == frozenset() or s == full for s in self.elements)


def lattice(g: Graph, kind: str, cap: int = DEFAULT_LATTICE_CAP) -> SubsetLattice:
    """Enumerate the lattice of hereditary (or saturated hereditary) subsets.

    Hereditary subsets are built over the strongly connected components,
    taken sinks first: each component joins every set found so far that
    already holds all the components its edges lead to.  Each step yields
    only lattice elements, so the work grows with the size of the lattice.
    Only a loopless one-vertex component with an out-edge can leave a
    hereditary set unsaturated (every other non-sink vertex has a target a
    hereditary set holds only together with it), so for the saturated kind
    such a vertex joins, in place, every set holding all its targets.
    Elements come in ascending bitmask order, as from
    :func:`lattice_bruteforce`.

    Raises :class:`CapExceeded` when the graph has more than ``cap`` vertices;
    no partial lattice is returned.  Only listings are capped; no verdict lists.
    """
    _check_lattice_args(g, kind, cap)
    saturated = kind == "saturated_hereditary"
    pos = g.vertex_pos
    masks = [0]
    for members in g._components:
        own = 0
        targets = 0
        for v in members:
            own |= 1 << pos[v]
            for e in g._out[v]:
                targets |= 1 << pos[e.dst]
        # Edges leaving a component land in earlier ones, already decided.
        need = targets & ~own
        if saturated and need == targets != 0:  # one vertex, no loop
            masks = [m | own if m & need == need else m for m in masks]
        else:
            masks += [m | own for m in masks if m & need == need]
    masks.sort()
    vs = g.vertices
    elements = []
    for mask in masks:
        bits = bin(mask)[:1:-1]  # bit i at index i
        elements.append(frozenset(v for v, b in zip(vs, bits) if b == "1"))
    return SubsetLattice(g, kind, tuple(elements))


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
    g.require_valid()
    if kind not in KINDS:
        raise ValueError(f"unknown lattice kind {kind!r}")
    n = len(g.vertices)
    if n > cap:
        raise CapExceeded(
            f"lattice enumeration over {n} vertices exceeds cap {cap}")
