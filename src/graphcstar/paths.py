"""Path enumeration: the paths of a given length, their number, power graphs
and elementary cycles.

Every enumeration here breaks ties by declaration order, so results are
deterministic and reproducible across runs.  Its cost grows with the
number of paths or cycles; ``power_graph`` and ``simple_cycles`` refuse
past a cap.  No verdict enumerates paths (each reads
``Graph._condensation``), so this module is loaded only where paths are
listed: by the ``power`` and ``cycles`` subcommands, by
``condition_L_bruteforce``, and on the first use of one of its public names
through ``graphcstar``.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, repeat
from operator import mul
from typing import Iterable, Optional

from .graphs import (
    DEFAULT_CYCLE_CAP,
    DEFAULT_POWER_CAP,
    CapExceeded,
    Edge,
    Graph,
    Path,
    _power,
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
    """Number of paths of length ``n`` (exact), by a per-vertex recurrence or
    by adjacency matrix powers, whichever costs less at this size."""
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


def power_graph(g: Graph, n: int, cap: int = DEFAULT_POWER_CAP) -> Graph:
    """The graph whose edges are the length-``n`` paths of ``g``.

    Vertices are unchanged; each length-n path becomes one edge from its
    source to its range, with id the constituent edge ids joined by ".".
    Edges appear in lexicographic path order.  ``power_graph(g, 1)`` equals
    ``g``.  Refuses with :class:`CapExceeded` when the result would have more
    than ``cap`` edges, and with ValueError when ``cap`` is negative.

    Cost: the cap check takes O(min(n E, V^3 log n)); then O(min(n, V) E) to
    find the vertices that start a path of each length, and O(output
    characters * log n) to build the ids.  Each path is split into its first
    edge, a left half and a right half of about (n-1)/2 edges; the halves
    are joined from memoised tables of shorter suffixes, and a table holds
    only the subpaths that extend to some length-n path, so dead ends are
    never built and, on branching graphs, no table holds much more than the
    square root of the output.  The interpreter runs once per first edge and
    left half: one C-level ``map`` over the right halves' ``(ids, ends)``
    columns emits all the edges that share them.  The rows are
    :class:`Edge` objects, which the garbage collector never stops scanning;
    on outputs of 10^4 edges and more its scans take about 40% of the time.
    """
    if n < 1:
        raise ValueError("power must be at least 1")
    if cap < 0:
        raise ValueError(f"path cap must be nonnegative, got {cap}")
    if _count_paths_saturating(g, n, cap + 1) > cap:
        raise CapExceeded(f"power graph too large: more than {cap} edges exceeds cap {cap}")
    # alive[r]: the vertices with an outgoing path of length r.  Each set is
    # contained in the one before, and once two consecutive sets are equal
    # all later ones are too, so alive[last] stands for every r >= last.
    alive = [frozenset(g.vertices)]
    while len(alive) < n:
        live = alive[-1]
        shorter = frozenset(src for _, src, dst in g._rows if dst in live)
        if shorter == live:
            break
        alive.append(shorter)
    last = len(alive) - 1
    out = g._out
    memo: dict[tuple[int, int], dict[str, list[tuple[str, str]]]] = {}

    def tails(k: int, r: int, v: str) -> list[tuple[str, str]]:
        """``(".e1...ek", end)`` for the length-k paths from ``v`` that end
        in ``alive[r]``, in lexicographic order."""
        if k == 0:
            return [("", v)]
        key = (k, min(r, last))
        table = memo.setdefault(key, {})
        found = table.get(v)
        if found is None:
            if k == 1:
                live = alive[key[1]]
                found = [("." + eid, dst) for eid, _, dst in out[v] if dst in live]
            else:
                a = k // 2
                found = [(s + t, end) for s, m in tails(a, r + k - a, v)
                         for t, end in tails(k - a, r, m)]
            table[v] = found
        return found

    a = (n - 1) // 2
    b = n - 1 - a
    first = alive[min(n - 1, last)]
    columns: dict[str, tuple] = {}

    def right(m: str) -> tuple:
        # The right halves from m as (ids, ends) columns; m ends a left
        # half, so it starts some path of length b and neither is empty.
        found = columns.get(m)
        if found is None:
            found = columns[m] = tuple(zip(*tails(b, 0, m)))
        return found

    new = tuple.__new__
    edges = tuple(chain.from_iterable(
        map(new, repeat(Edge), zip(map(head.__add__, ids), repeat(src), ends))
        for eid, src, dst in g._rows if dst in first
        for s, m in tails(a, b, dst)
        for head in (eid + s,)
        for ids, ends in (right(m),)))
    memo.clear()
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
    exact count.  Two routes, picked by input size: the per-vertex
    recurrence c_r(v) = min(ceiling, sum of c_{r-1}(dst e) over e out of v),
    with c_0 = 1, takes O(n E); squaring the V x V matrix takes
    O(V^3 log n).  The recurrence runs when n E <= V^3 (floor(log2 n) + 1).
    """
    vertices = g.vertices
    if n * len(g._rows) <= len(vertices) ** 3 * n.bit_length():
        pos = g.vertex_pos
        succ = [[pos[dst] for _, _, dst in g._out[v]] for v in vertices]
        counts = [1] * len(vertices)
        if ceiling is None:
            for _ in range(n):
                counts = [sum([counts[j] for j in s]) for s in succ]
            return sum(counts)
        for _ in range(n):
            counts = [min(ceiling, sum([counts[j] for j in s])) for s in succ]
        return min(sum(counts), ceiling)

    if ceiling is None:
        return sum(map(sum, matrix_power(g.adjacency_matrix(), n)))

    def mul(a, b):
        return [[min(x, ceiling) for x in row] for row in matmul(a, b)]

    m = [[min(x, ceiling) for x in row] for row in g.adjacency_matrix()]
    return min(sum(map(sum, _power(m, n, mul))), ceiling)


def simple_cycles(g: Graph, cap: int = DEFAULT_CYCLE_CAP) -> list[Path]:
    """All elementary cycles, one canonical representative per rotation class.

    A cycle is elementary when its edge sources are pairwise distinct, i.e.
    it passes through each vertex at most once.  Rotations of a cycle revisit
    the same edges, so only the representative based at the cycle's earliest
    vertex (in declaration order) is emitted; among cycles with the same base
    the order is lexicographic in edge order.  Parallel edges and self-loops
    yield distinct cycles.

    Raises :class:`CapExceeded` when more than ``cap`` cycles exist, and
    ValueError when ``cap`` is negative.

    Cost: for each base, a reverse search over the later vertices finds
    those that lead back to the base, and an adjacency list keeps only the
    edges into them and the base, both in O(V+E).  The depth-first search
    walks only that list, so it never tests an edge into an earlier vertex,
    no branch is walked that cannot close a cycle, and a long cycle C_n
    costs O(n), not O(n^2).  Cycles are kept as edge-id tuples and made
    paths at the end by :func:`_paths`.  Memory is O(V+E) beyond the result.
    """
    if cap < 0:
        raise ValueError(f"cycle cap must be nonnegative, got {cap}")
    pos = g.vertex_pos
    out = g._out
    inc = g._in
    found: list[tuple[str, ...]] = []
    for base_pos, base in enumerate(g.vertices):
        # The later vertices that reach the base through later vertices.
        back: set[str] = {base}
        todo = [base]
        while todo:
            for _, u, _ in inc[todo.pop()]:
                if u not in back and pos[u] > base_pos:
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
