"""Path enumeration: the paths of a given length, their number, power graphs
and elementary cycles.

Every enumeration here breaks ties by declaration order, so results are
deterministic and reproducible across runs.  Its cost grows with the
number of paths or cycles; ``power_graph`` and ``simple_cycles`` refuse
past a cap.  The enumerations read the graph's memoised facts:
``simple_cycles`` skips the bases that ``Graph._condensation`` marks acyclic
and searches each component alone, and ``power_graph`` and the path counter
find dead ends in ``Graph._reach.depth``, the longest path from each vertex
that reaches no cycle.  No verdict enumerates paths (each reads
``Graph._condensation``), so this module is loaded only where paths are
listed: by the ``power`` and ``cycles`` subcommands, by
``condition_L_bruteforce``, and on the first use of one of its public names
through ``graphcstar``.
"""

from __future__ import annotations

from collections import deque
from functools import cache
from itertools import chain, repeat
from operator import mul
from typing import Iterable, Optional

from .graphs import (
    DEFAULT_PATH_CAP,
    CapExceeded,
    Graph,
    Path,
    _power,
    _refuse_negative_cap,
    _set_edges,
    _set_graph,
    _vertex_set,
    _violations,
    _walks,
)


def _paths(g: Graph, seqs: list[tuple[str, ...]]) -> list[Path]:
    """``[Path(g, s) for s in seqs]``, allocated and filled by C loops, with
    no ``__init__`` frame per path."""
    paths = list(map(object.__new__, repeat(Path, len(seqs))))
    deque(map(_set_graph, paths, repeat(g)), 0)
    deque(map(_set_edges, paths, seqs), 0)
    return paths


def paths_of_length(
    g: Graph,
    n: int,
    from_vertices: Optional[Iterable[str]] = None,
    to_vertices: Optional[Iterable[str]] = None,
) -> list[Path]:
    """All paths of exactly ``n`` edges, in lexicographic edge order.

    Lexicographic means: compare paths position by position using edge
    declaration order.  ``from_vertices`` filters on the path source,
    ``to_vertices`` on the path range.  An empty result is valid.
    """
    if n < 1:
        raise ValueError("path length must be at least 1")
    src_filter = _vertex_set(g, from_vertices)
    dst_filter = _vertex_set(g, to_vertices)

    first = [e for e in g._rows if src_filter is None or e[1] in src_filter]
    return _paths(g, [
        seq for seq in _walks(g, n, first)
        if dst_filter is None or g._row_of[seq[-1]][2] in dst_filter
    ])


def count_paths(g: Graph, n: int) -> int:
    """Number of paths of length ``n`` (exact): 0 at once when no vertex
    reaches a cycle and ``n`` exceeds the longest path, else by a per-vertex
    recurrence until the counts settle, or by matrix powers if n steps cost
    more.  With no cycle and ``n`` at most the longest path, the counts
    settle only after n steps of O(V+E) each."""
    if n < 1:
        raise ValueError("path length must be at least 1")
    return _count_paths_saturating(g, n)


def matrix_power(m: list[list[int]], n: int) -> list[list[int]]:
    """n-th power of a square integer matrix, exact arithmetic, n >= 1.

    Repeated squaring: O(log n) products.
    """
    return _power(m, n, matmul)


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """The product ``a b``; each entry is one ``sum(map(mul, row, col))``,
    which multiplies and adds in C, with no Python frame per term."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def power_graph(g: Graph, n: int, cap: int = DEFAULT_PATH_CAP) -> Graph:
    """The graph whose edges are the length-``n`` paths of ``g``.

    Vertices are unchanged; each length-n path becomes one edge from its
    source to its range, with id the constituent edge ids joined by ".".
    Edges appear in lexicographic path order.  ``power_graph(g, 1)`` equals
    ``g``.  Refuses with :class:`CapExceeded` when the result would have more
    than ``cap`` edges, and with ValueError when ``cap`` is negative.

    Cost: the dead ends, the longest path from each vertex that reaches no
    cycle (``Graph._reach.depth``), take O(V+E) time and O(V) memory;
    when no vertex reaches a cycle and n exceeds every depth, the answer is
    empty at once.  Otherwise the cap check takes O(min(n (V+E), (V+1)(V+E) +
    V^3 log n)), and building the ids O(output characters * log n).  Each path
    is split into its first edge, a left half and a right half of about
    (n-1)/2 edges; the halves are joined from cached tables of shorter
    suffixes, cleared on return, and a table holds only the subpaths that
    extend to some length-n path, so dead ends are never built and, on
    branching graphs, no table holds much more than the square root of the
    output.  The interpreter runs once per first edge and left half: one
    C-level ``map`` over the right halves' ``(ids, ends)`` columns emits all the
    edges that share them.  The rows are the plain ``(id, src, dst)`` tuples
    that ``zip`` makes, with no call per row, and the garbage collector stops
    scanning them after one pass; the result's ``Edge`` view is built only
    when :attr:`Graph.edges` is read, and then takes the rows' place.
    """
    if n < 1:
        raise ValueError("power must be at least 1")
    _refuse_negative_cap(cap, "path")
    if _count_paths_saturating(g, n, cap + 1) > cap:
        raise CapExceeded(f"power graph too large: more than {cap} edges exceeds cap {cap}")
    # A vertex in depth starts no path longer than its depth; those that
    # start one of length r are the same for every r >= last.
    depth = g._depth
    last = max(depth.values(), default=-1) + 1
    out = g._out

    def tails(k: int, r: int, v: str) -> list[tuple[str, str]]:
        """``(".e1...ek", end)`` for the length-k paths from ``v`` whose end
        starts a path of length r, in lexicographic order."""
        return [("", v)] if k == 0 else table(k, min(r, last), v)

    @cache
    def table(k: int, r: int, v: str) -> list[tuple[str, str]]:
        if k == 1:
            return [("." + eid, dst) for eid, _, dst in out[v] if depth.get(dst, r) >= r]
        a = k // 2
        return [(s + t, end) for s, m in tails(a, r + k - a, v) for t, end in tails(k - a, r, m)]

    a = (n - 1) // 2
    b = n - 1 - a

    @cache
    def right(m: str) -> tuple:
        # The right halves from m as (ids, ends) columns; m ends a left
        # half, so it starts some path of length b and neither is empty.
        return tuple(zip(*tails(b, 0, m)))

    edges = tuple(chain.from_iterable(
        zip(map(head.__add__, ids), repeat(src), ends)
        for eid, src, dst in g._rows if depth.get(dst, n - 1) >= n - 1
        for s, m in tails(a, b, dst)
        for head in (eid + s,)
        for ids, ends in (right(m),)))
    table.cache_clear()
    # Endpoints are declared by construction, and joined ids can only
    # collide when some edge id contains the "." separator.
    if any("." in eid for eid, _, _ in g._rows):
        clashes = [eid for _, _, eid in _violations(g.vertices, edges)]
        if clashes:
            raise ValueError("power graph edge ids collide; avoid '.' in edge ids: "
                             + "; ".join(f"duplicate edge id {eid!r}" for eid in clashes))
    return Graph._proven(g.vertices, edges)


def _count_paths_saturating(g: Graph, n: int, ceiling: Optional[int] = None) -> int:
    """``min(count_paths(g, n), ceiling)`` without forming larger integers;
    the exact count, with no clamping at all, when ``ceiling`` is None.

    For nonnegative integers, ``min(., ceiling)`` commutes with sums and
    products, so clamping every partial count keeps it equal to the clamped
    exact count.  When no vertex reaches a cycle, every count is 0 past the
    longest path, read from ``Graph._reach.depth``, so a longer n gives 0 at once.
    Otherwise it steps c_0 = 1, c_r(v) = min(ceiling, sum of c_{r-1}(dst e)
    over e out of v), at V+E a step, until a step changes no count.  Exact
    counts that settle do so within V+1 steps, as each path from a settled
    vertex is a simple prefix into a sink or an exitless cycle.  So when n
    steps cost more than squaring, n (V+E) > V^3 (floor(log2 n) + 1), counts
    still changing after V+1 steps come from the matrix's n-th power instead.
    """
    vertices = g.vertices
    depth = g._depth
    if len(depth) == len(vertices) and n > max(depth.values(), default=0):
        return 0
    pos = g.vertex_pos
    succ = [[pos[dst] for _, _, dst in g._out[v]] for v in vertices]

    def clamped(counts: list[int]) -> list[int]:
        return counts if ceiling is None else [min(ceiling, c) for c in counts]

    squares = n * (len(vertices) + len(g._rows)) > len(vertices) ** 3 * n.bit_length()
    counts = [1] * len(vertices)
    for r in range(n):
        if squares and r > len(vertices):
            counts = list(map(sum, _power(g.adjacency_matrix(), n,
                                          lambda a, b: list(map(clamped, matmul(a, b))))))
            break
        last, counts = counts, clamped([sum([counts[j] for j in s]) for s in succ])
        if counts == last:
            break
    return sum(counts) if ceiling is None else min(sum(counts), ceiling)


def simple_cycles(g: Graph, cap: int = DEFAULT_PATH_CAP) -> list[Path]:
    """All elementary cycles, one canonical representative per rotation class.

    A cycle is elementary when its edge sources are pairwise distinct, i.e.
    it passes through each vertex at most once.  Rotations of a cycle revisit
    the same edges, so only the representative based at the cycle's earliest
    vertex (in declaration order) is emitted; among cycles with the same base
    the order is lexicographic in edge order.  Parallel edges and self-loops
    yield distinct cycles.

    Raises :class:`CapExceeded` when more than ``cap`` cycles exist, and
    ValueError when ``cap`` is negative.

    Cost: ``Graph._condensation`` gives each vertex its strongly connected
    component, and a base whose component is acyclic lies on no cycle and is
    skipped.  For each other base, a reverse search over the later vertices
    of its component finds those that lead back to the base, and an
    adjacency list keeps only the edges into them and the base, both in
    O(V+E) of that component.  The depth-first search walks only that list,
    so it never tests an edge into an earlier vertex, no branch is walked
    that cannot close a cycle, and a long cycle C_n costs O(n), not O(n^2).
    Cycles are kept as edge-id tuples and made paths at the end by
    :func:`_paths`.  Memory is O(V+E) beyond the result.
    """
    _refuse_negative_cap(cap, "cycle")
    pos = g.vertex_pos
    out = g._out
    inc = g._in
    comp_of, _, kinds = g._condensation
    found: list[tuple[str, ...]] = []
    for base_pos, base in enumerate(g.vertices):
        k = comp_of[base]
        if kinds[k] == "acyclic":
            continue
        # The later vertices of its component that reach the base through
        # later vertices; every cycle through the base stays in the component.
        back: set[str] = {base}
        todo = [base]
        while todo:
            for _, u, _ in inc[todo.pop()]:
                if u not in back and pos[u] > base_pos and comp_of[u] == k:
                    back.add(u)
                    todo.append(u)
        # Only the edges into those and the base, in declaration order.
        adj = {v: [e for e in out[v] if e[2] in back] for v in back}
        # Depth-first search with an explicit stack: one out-edge iterator
        # per vertex on the trail, so cycle length is not bound by the
        # recursion limit.
        trail: list[str] = []        # edge ids from base
        reached: list[str] = []      # trail[i] ends at reached[i]
        on_trail = {base}
        stack = [iter(adj[base])]
        while stack:
            for eid, _, w in stack[-1]:
                if w == base:
                    found.append((*trail, eid))
                    if len(found) > cap:
                        raise CapExceeded(f"cycle enumeration exceeds cap {cap}")
                elif w not in on_trail:
                    trail.append(eid)
                    reached.append(w)
                    on_trail.add(w)
                    stack.append(iter(adj[w]))
                    break
            else:
                stack.pop()
                if reached:
                    trail.pop()
                    on_trail.discard(reached.pop())
    return _paths(g, found)


def cycle_exits(g: Graph, cycle: Path) -> list[str]:
    """Edge ids that exit the given cycle, in edge declaration order.

    An edge ``f`` is an exit when some cycle position ``i`` satisfies
    ``src(f) == src(e_i)`` and ``f != e_i``.  Raises ValueError when the
    argument is not a cycle of this graph.
    """
    if not cycle.edges:
        raise ValueError("not a cycle: empty path")
    if not g.path(cycle.edges).is_cycle():  # re-validates composability
        raise ValueError("not a cycle: source differs from range")
    used_at: dict[str, set[str]] = {}
    for eid in cycle.edges:
        used_at.setdefault(g._row_of[eid][1], set()).add(eid)
    return [fid for fid, src, _ in g._rows if src in used_at and used_at[src] != {fid}]
