"""Finite directed multigraphs with ordered vertices and edges.

The graphs here are the combinatorial substrate for everything else in the
package: an edge ``e`` is emitted at ``src(e)`` and received at ``dst(e)``,
parallel edges and self-loops are allowed, and the declaration order of
vertices and edges is significant.  Every enumeration in this module (paths,
cycles, power graphs) breaks ties by declaration order, so results are
deterministic and reproducible across runs.

A path ``e1 e2 ... en`` requires ``dst(e_i) == src(e_{i+1})``; its source is
``src(e1)`` and its range is ``dst(en)``.  A cycle is a path whose source
equals its range.

A :class:`Graph` keeps its edges as plain ``(id, src, dst)`` rows, which the
garbage collector stops scanning after one pass (it never stops scanning an
:class:`Edge`); its ``Edge`` views are built only when a caller reads them.
Sinks, sources and unit degrees are read from two sets built in C from the
rows, the vertices that emit an edge and those that receive one; only the
routines that walk edges build per-vertex edge lists.  One Tarjan pass
records the strongly connected components, the links between them and the
kind of each (``Graph._condensation``), and every verdict reads that record.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, repeat
from math import inf
from operator import itemgetter, mul
from typing import Iterable, Iterator, NamedTuple, Optional

DEFAULT_POWER_CAP = 10**6
DEFAULT_CYCLE_CAP = 10**6


class CapExceeded(Exception):
    """An enumeration would exceed its configured size cap.

    No partial results are produced: callers either get the complete answer
    or this error.
    """


class InternalInvariantError(AssertionError):
    """Two independently derived answers disagree; indicates a bug."""


class ValidationIssue(NamedTuple):
    kind: str      # "duplicate id" or "dangling endpoint"
    offender: str  # the vertex or edge id at fault
    message: str

    def __str__(self) -> str:
        return self.message


class ValidationResult(NamedTuple):
    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues


_VALID = ValidationResult(())


class InvalidGraphError(ValueError):
    """Raised when an operation requires a graph whose invariants fail."""

    def __init__(self, result: ValidationResult):
        self.result = result
        super().__init__("; ".join(i.message for i in result.issues))


class Edge(NamedTuple):
    id: str
    src: str
    dst: str


class _Condensation(NamedTuple):
    components: tuple[tuple[str, ...], ...]
    successors: tuple[frozenset[int], ...]
    kinds: tuple[str, ...]


def _refuse_assignment(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _refuse_tuple_arithmetic(self, other):
    # A NamedTuple would repeat or concatenate itself as a plain tuple.
    raise TypeError(f"unsupported operand for {type(self).__name__}: {type(other).__name__!r}")


class _memoised:
    """A field built on its first read and stored in the instance dict, where
    later reads find it.  Unlike ``functools.cached_property`` on Python 3.11
    it takes no lock: racing threads build equal values.  A raise stores nothing."""

    def __init__(self, build):
        self.build, self.name, self.__doc__ = build, build.__name__, build.__doc__

    def __get__(self, g, owner=None):
        if g is None:
            return self
        value = vars(g)[self.name] = self.build(g)
        return value


class Graph:
    """A finite directed multigraph with named vertices and edges.

    Construction does not validate; call :meth:`validate` to collect every
    invariant violation, or build through :meth:`checked` to raise on the
    first invalid input.  Reading :attr:`vertices` or the edges, which
    every operation does, raises :class:`InvalidGraphError` on an invalid
    graph; an operation also given a bad argument may raise that ValueError
    first.  Instances are immutable and safe to share between threads.
    Equality, hashing, the repr and pickling use the unchecked ``(vertices,
    edges)``.  An :class:`Edge` or a plain ``(id, src, dst)`` tuple is stored
    as given, any other sequence as an ``Edge``; :attr:`edges`,
    :meth:`out_edges` and :attr:`edge_map` hold ``Edge`` objects, built on
    their first read.
    """

    def __init__(self, vertices: Iterable[str], edges: Iterable[Edge | tuple[str, str, str]]):
        # Written past __setattr__, which refuses; the memoised fields and
        # indexes are stored in the same __dict__.
        vars(self).update(_vertices=tuple(vertices), _edges=tuple(
            e if type(e) is tuple and len(e) == 3 or type(e) is Edge else Edge(*e)
            for e in edges))

    @classmethod
    def _proven(cls, vertices: tuple[str, ...], edges: tuple[tuple[str, str, str], ...]) -> "Graph":
        """A graph over parts its caller has proven valid: unique vertex ids,
        unique edge ids and declared endpoints.  The tuples are stored as
        given and the ok verdict is recorded, so neither is checked again."""
        g = cls.__new__(cls)
        vars(g).update(_vertices=vertices, _edges=edges, _validation=_VALID)
        return g

    __setattr__ = _refuse_assignment
    __delattr__ = _refuse_deletion

    def __reduce__(self):
        # By value, with plain rows: a pickle or copy carries no memoised
        # index or verdict, and is checked on its first read.
        return Graph, (self._vertices, tuple(map(tuple, self._edges)))

    # Cached only once the check passes, after which a read is a plain
    # attribute lookup; an invalid graph raises on every read.
    @_memoised
    def vertices(self) -> tuple[str, ...]:
        self.require_valid()
        return self._vertices

    @_memoised
    def _rows(self) -> tuple[tuple[str, str, str], ...]:
        self.require_valid()
        return self._edges

    @_memoised
    def edges(self) -> tuple[Edge, ...]:
        rows = self._rows  # all Edges for a power graph, kept as the view
        return rows if all(type(e) is Edge for e in rows) else tuple(
            e if type(e) is Edge else Edge._make(e) for e in rows)

    def __repr__(self) -> str:
        return f"Graph(vertices={self._vertices!r}, edges={tuple(map(Edge._make, self._edges))!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._vertices, self._edges))

    @classmethod
    def checked(cls, vertices: Iterable[str], edges: Iterable[Edge | tuple[str, str, str]]) -> "Graph":
        g = cls(tuple(vertices), tuple(edges))
        g.require_valid()
        return g

    def validate(self) -> ValidationResult:
        """Check all graph invariants, reporting every violation.

        Invariants: vertex ids are unique, edge ids are unique, and both
        endpoints of every edge are declared vertices.
        """
        issues: list[ValidationIssue] = []
        seen_v: set[str] = set()
        for v in self._vertices:
            if v in seen_v:
                issues.append(ValidationIssue("duplicate id", v, f"duplicate vertex id {v!r}"))
            seen_v.add(v)
        seen_e: set[str] = set()
        for eid, src, dst in self._edges:
            if eid in seen_e:
                issues.append(ValidationIssue("duplicate id", eid, f"duplicate edge id {eid!r}"))
            seen_e.add(eid)
            if src not in seen_v:
                issues.append(ValidationIssue(
                    "dangling endpoint", eid,
                    f"edge {eid!r} has undeclared src vertex {src!r}"))
            if dst not in seen_v:
                issues.append(ValidationIssue(
                    "dangling endpoint", eid,
                    f"edge {eid!r} has undeclared dst vertex {dst!r}"))
        return ValidationResult(tuple(issues))

    @_memoised
    def _validation(self) -> ValidationResult:
        return self.validate()

    def require_valid(self) -> None:
        if not self._validation.ok:
            raise InvalidGraphError(self._validation)

    # Index structures below read the checked fields; private ones hold rows.

    @_memoised
    def vertex_pos(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @_memoised
    def edge_map(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @_memoised
    def _row_of(self) -> dict[str, tuple[str, str, str]]:
        return {e[0]: e for e in self._rows}

    @_memoised
    def _out(self) -> dict[str, tuple[tuple[str, str, str], ...]]:
        out: dict[str, list[tuple[str, str, str]]] = {v: [] for v in self.vertices}
        for e in self._rows:
            out[e[1]].append(e)
        return {v: tuple(es) for v, es in out.items()}

    @_memoised
    def _in(self) -> dict[str, tuple[tuple[str, str, str], ...]]:
        inc: dict[str, list[tuple[str, str, str]]] = {v: [] for v in self.vertices}
        for e in self._rows:
            inc[e[2]].append(e)
        return {v: tuple(es) for v, es in inc.items()}

    @_memoised
    def _emitters(self) -> frozenset[str]:
        return frozenset(map(itemgetter(1), self._rows))

    @_memoised
    def _receivers(self) -> frozenset[str]:
        return frozenset(map(itemgetter(2), self._rows))

    @_memoised
    def _condensation(self) -> _Condensation:
        """The strongly connected components in reverse topological order, so
        edges leaving a component enter earlier ones; for each, the indices
        of those it enters and its kind: ``"acyclic"`` (one vertex, no loop),
        ``"exitless"`` (each member emits one edge, inside: a cycle without an
        exit) or ``"cyclic"``.  Every verdict reads its component facts here.
        One iterative Tarjan pass (SIAM J. Comput. 1972) fills all three, each
        component as it is popped, in O(V+E) and with no recursion limit.
        """
        out = self._out
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        comp_of: dict[str, int] = {}  # popped; the other vertices in index are on the stack
        stack: list[str] = []
        components: list[tuple[str, ...]] = []
        successors: list[frozenset[int]] = []
        kinds: list[str] = []
        for root in self.vertices:
            if root in index:
                continue
            index[root] = low[root] = len(index)
            stack.append(root)
            work = [(root, iter(out[root]), 0)]  # vertex, its edges, stack height below it
            while work:
                v, edges, height = work[-1]
                for _, _, w in edges:
                    if w not in index:
                        index[w] = low[w] = len(index)
                        work.append((w, iter(out[w]), len(stack)))
                        stack.append(w)
                        break
                    if w not in comp_of and index[w] < low[v]:
                        low[v] = index[w]
                else:
                    work.pop()
                    if work:
                        u = work[-1][0]
                        if low[v] < low[u]:
                            low[u] = low[v]
                    if low[v] == index[v]:
                        k = len(components)
                        members = tuple(stack[height:])
                        del stack[height:]
                        for w in members:
                            comp_of[w] = k
                        ends = [comp_of[w] for m in members for _, _, w in out[m]]
                        entered = frozenset(ends)
                        components.append(members)
                        successors.append(entered - {k})
                        # Each member of a component with an edge inside has one.
                        kinds.append("acyclic" if k not in entered else
                                     "exitless" if len(ends) == len(members) else "cyclic")
        return _Condensation(tuple(components), tuple(successors), tuple(kinds))

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        """Edges emitted at ``v``, in declaration order."""
        if v not in self.vertex_pos:
            raise ValueError(f"unknown vertex {v!r}")
        return tuple(self.edge_map[e[0]] for e in self._out[v])

    def adjacency_matrix(self) -> list[list[int]]:
        """Integer matrix ``M[i][j]`` = number of edges from vertex i to vertex j.

        Row and column order follow vertex declaration order.  Entry sums of
        the n-th matrix power count paths of length n, which makes this the
        reference oracle for path enumeration.
        """
        pos = self.vertex_pos
        n = len(self.vertices)
        m = [[0] * n for _ in range(n)]
        for _, src, dst in self._rows:
            m[pos[src]][pos[dst]] += 1
        return m

    def path(self, edge_ids: Iterable[str]) -> "Path":
        """Build a validated path from a sequence of edge ids.

        Raises ValueError on unknown ids or non-composable consecutive edges.
        """
        ids = tuple(edge_ids)
        if not ids:
            raise ValueError("path needs at least one edge")
        for eid in ids:
            if eid not in self._row_of:
                raise ValueError(f"unknown edge {eid!r}")
        for i in range(len(ids) - 1):
            (a, _, a_dst), (b, b_src, _) = self._row_of[ids[i]], self._row_of[ids[i + 1]]
            if a_dst != b_src:
                raise ValueError(
                    f"edges do not compose at position {i + 1}: "
                    f"{a!r} ends at {a_dst!r} but {b!r} starts at {b_src!r}")
        return Path(self, ids)


class Path:
    """A composable sequence of edge ids in a fixed graph.

    Equality and hashing use the edge sequence only; the graph reference is
    carried for convenience.  Construct through :meth:`Graph.path` unless the
    sequence is already known to compose.  The slots are written through
    their descriptors, past ``__setattr__`` (which refuses), in about 70% of
    the time of ``object.__setattr__``; :func:`_paths` fills many at once.
    """

    __slots__ = ("graph", "edges")
    graph: Graph
    edges: tuple[str, ...]

    def __init__(self, graph: Graph, edges: tuple[str, ...] = ()):
        _set_graph(self, graph)
        _set_edges(self, edges)

    __setattr__ = _refuse_assignment
    __delattr__ = _refuse_deletion

    def __reduce__(self):
        # Slots are restored through __setattr__, which refuses; rebuild
        # through __init__ instead (pickle, copy and deepcopy all use this).
        return Path, (self.graph, self.edges)

    def __repr__(self) -> str:
        return f"Path(edges={self.edges!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.edges,))

    @property
    def length(self) -> int:
        return len(self.edges)

    @property
    def source(self) -> str:
        return self.graph._row_of[self.edges[0]][1]

    @property
    def range(self) -> str:
        return self.graph._row_of[self.edges[-1]][2]

    def is_cycle(self) -> bool:
        return self.source == self.range

    def __str__(self) -> str:
        return " ".join(self.edges)


_set_graph, _set_edges = Path.graph.__set__, Path.edges.__set__


def _paths(g: Graph, seqs: list[tuple[str, ...]]) -> list[Path]:
    """``[Path(g, s) for s in seqs]``, allocated and filled by C loops, with
    no ``__init__`` frame per path."""
    paths = list(map(object.__new__, repeat(Path, len(seqs))))
    deque(map(_set_graph, paths, repeat(g)), 0)
    deque(map(_set_edges, paths, seqs), 0)
    return paths


class VertexClasses(NamedTuple):
    sinks: frozenset[str]      # emit no edge
    sources: frozenset[str]    # receive no edge
    regular: frozenset[str]    # emit at least one edge


class Connectivity(NamedTuple):
    weakly_connected: bool
    strongly_connected: bool


def vertex_classes(g: Graph) -> VertexClasses:
    """Partition information: sinks, sources, and regular (non-sink) vertices."""
    vs = frozenset(g.vertices)
    return VertexClasses(vs - g._emitters, vs - g._receivers, g._emitters)


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


def _walks(g: Graph, n: int, first: Iterable[tuple[str, str, str]]) -> Iterator[tuple[str, ...]]:
    """Edge-id tuples of the length-``n`` paths (``n >= 1``) whose first edge
    is in ``first``, yielded lazily.

    Depth-first with an explicit stack of out-edge iterators, so memory is
    O(n) and path length is not bound by the recursion limit.  Edges are
    tried in declaration order, so the tuples come in lexicographic order
    when ``first`` is in declaration order.
    """
    out = g._out
    trail: list[str] = []
    stack = [iter(first)]
    while stack:
        for eid, _, dst in stack[-1]:
            trail.append(eid)
            if len(trail) == n:
                yield tuple(trail)
                trail.pop()
            else:
                stack.append(iter(out[dst]))
                break
        else:
            stack.pop()
            if trail:
                trail.pop()


def _same_graph(a: Graph, b: Graph) -> bool:
    return a is b or a == b


def _vertex_set(g: Graph, vs: Optional[Iterable[str]]) -> Optional[frozenset[str]]:
    if vs is None:
        return None
    out = frozenset(vs)
    for v in out:
        if v not in g.vertex_pos:
            raise ValueError(f"unknown vertex {v!r}")
    return out


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


def _power(m, n: int, mul):
    """``m`` to the n-th power under the associative product ``mul``."""
    if n < 1:
        raise ValueError("exponent must be at least 1")
    result = None
    while True:
        if n & 1:
            result = m if result is None else mul(result, m)
        n >>= 1
        if not n:
            return result
        m = mul(m, m)


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
    if not any("." in eid for eid, _, _ in g._rows):
        return Graph._proven(g.vertices, edges)
    result = Graph(g.vertices, edges)
    check = result._validation
    if not check.ok:
        raise ValueError(
            "power graph edge ids collide; avoid '.' in edge ids: "
            + "; ".join(i.message for i in check.issues))
    return result


def _count_paths_saturating(g: Graph, n: int, ceiling: Optional[int] = None) -> int:
    """``min(count_paths(g, n), ceiling)`` without forming larger integers;
    the exact count when ``ceiling`` is None.

    For nonnegative integers, ``min(., ceiling)`` commutes with sums and
    products, so clamping every partial count keeps it equal to the clamped
    exact count.  Two routes, picked by input size: the per-vertex
    recurrence c_r(v) = min(ceiling, sum of c_{r-1}(dst e) over e out of v),
    with c_0 = 1, takes O(n E); squaring the V x V matrix takes
    O(V^3 log n).  The recurrence runs when n E <= V^3 (floor(log2 n) + 1).
    """
    vertices = g.vertices
    if n * len(g._rows) <= len(vertices) ** 3 * n.bit_length():
        top = inf if ceiling is None else ceiling
        pos = g.vertex_pos
        succ = [[pos[dst] for _, _, dst in g._out[v]] for v in vertices]
        counts = [1] * len(vertices)
        for _ in range(n):
            counts = [min(top, sum([counts[j] for j in s])) for s in succ]
        return min(sum(counts), top)
    if ceiling is None:
        return sum(sum(row) for row in matrix_power(g.adjacency_matrix(), n))

    def mul(a, b):
        return [[min(x, ceiling) for x in row] for row in matmul(a, b)]

    m = [[min(x, ceiling) for x in row] for row in g.adjacency_matrix()]
    return min(sum(sum(row) for row in _power(m, n, mul)), ceiling)


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


def connectivity(g: Graph) -> Connectivity:
    """Weak and strong connectivity of a nonempty graph.

    Weak: every vertex is reachable from every other ignoring direction.
    Strong: for every ordered pair (v, w), including v == w, there is a
    directed path of length at least one from v to w.  A single vertex
    without a loop is weakly but not strongly connected.
    """
    if not g.vertices:
        raise ValueError("empty graph")
    _, successors, kinds = g._condensation
    # Union-find with path halving over the successor links: k is still a
    # root when its links are joined, as its successors are all earlier.
    parent = list(range(len(kinds)))
    for k, entered in enumerate(successors):
        for c in entered:
            while parent[c] != c:
                parent[c] = c = parent[parent[c]]
            parent[c] = k
    roots = sum(c == p for c, p in enumerate(parent))
    return Connectivity(roots == 1, kinds in (("exitless",), ("cyclic",)))
