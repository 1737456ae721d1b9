"""Finite directed multigraphs with ordered vertices and edges.

The graphs here are the combinatorial substrate for everything else in the
package: an edge ``e`` is emitted at ``src(e)`` and received at ``dst(e)``,
parallel edges and self-loops are allowed, and the declaration order of
vertices and edges is significant.  Every walk here, and every enumeration
in :mod:`graphcstar.paths` (paths, cycles, power graphs), breaks ties by
declaration order, so results are deterministic and reproducible across
runs.  No verdict enumerates paths, so that code lives in its own module
and building a graph and reading its verdicts never compiles it.  What
stays here is what the verdict modules read at import or on every call,
such as the walker behind ``find_witness``.

A path ``e1 e2 ... en`` requires ``dst(e_i) == src(e_{i+1})``; its source is
``src(e1)`` and its range is ``dst(en)``.  A cycle is a path whose source
equals its range.

A :class:`Graph` keeps its edges as plain ``(id, src, dst)`` rows, which the
garbage collector stops scanning after one pass (it never stops scanning an
:class:`Edge`); its ``Edge`` views are built only when a caller reads them,
and then take the rows' place, each row freed as its ``Edge`` is made.
Sinks, sources and unit degrees are read from two counts, of the vertices
that emit an edge and of those that receive one, each the size of a set
built in C from the rows and dropped at once, so no per-vertex set outlives
the read; only the routines that walk edges build per-vertex edge lists.
One Tarjan pass records each vertex's strongly connected component, the
links between components and the kind of each (``Graph._condensation``),
and every verdict reads that record.  One pass over it, ``Graph._reach``,
gives each vertex's longest path and longest nonreturning path, where finite:
:mod:`graphcstar.paths` reads both records to skip dead ends and acyclic
regions, and ``find_witness`` stops past the second.

Caps bound only enumerations, never a verdict; their defaults and the one
refusal of a negative cap, :func:`_refuse_negative_cap`, live here.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from threading import RLock
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

DEFAULT_LATTICE_CAP = 16
DEFAULT_PATH_CAP = 10**6


class CapExceeded(Exception):
    """An enumeration would exceed its configured size cap.

    No partial results are produced: callers either get the complete answer
    or this error.
    """


def _refuse_negative_cap(cap: int, name: str) -> None:
    if cap < 0:
        raise ValueError(f"{name} cap must be nonnegative, got {cap}")


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


def _violations(vertices: Sequence[str], rows: Sequence[tuple[str, str, str]]
                ) -> Iterator[tuple[str, int, str]]:
    """``(field, index, id)`` for each duplicate vertex id (field
    ``"vertices"``), duplicate edge id (``"id"``) and undeclared ``"src"`` or
    ``"dst"`` of the rows, in input order: the one check of the graph
    invariants.

    Four set passes in C decide whether there is anything to report: the
    vertex ids and the edge ids each have as many distinct values as items,
    and the declared vertices hold the ``src`` and the ``dst`` column.  When
    all four hold it yields nothing; otherwise a walk over the items finds
    and locates each fault.
    """
    declared = set(vertices)
    if (len(declared) == len(vertices) and len(set(map(itemgetter(0), rows))) == len(rows)
            and declared.issuperset(map(itemgetter(1), rows))
            and declared.issuperset(map(itemgetter(2), rows))):
        return
    seen: set[str] = set()
    for i, v in enumerate(vertices):
        if v in seen:
            yield "vertices", i, v
        seen.add(v)
    seen.clear()
    for i, (eid, src, dst) in enumerate(rows):
        if eid in seen:
            yield "id", i, eid
        seen.add(eid)
        if src not in declared:
            yield "src", i, src
        if dst not in declared:
            yield "dst", i, dst


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
    component_of: dict[str, int]
    successors: tuple[frozenset[int], ...]
    kinds: tuple[str, ...]


_Reach = NamedTuple("_Reach", [("depth", dict[str, int]), ("bound", dict[str, int])])


def _refuse_assignment(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _refuse_tuple_arithmetic(self, other):
    # A NamedTuple would repeat or concatenate itself as a plain tuple.
    raise TypeError(f"unsupported operand for {type(self).__name__}: {type(other).__name__!r}")


# Held while a graph swaps its Edge view in for its rows (see Graph.edges),
# and while a field that holds rows is built (see _on_rows).
_swapping = RLock()


def _stored(g: Graph) -> tuple[tuple[str, str, str], ...]:
    """The edges as stored: the rows, or the ``Edge`` view once swapped in.
    Only while another thread swaps does a graph lack them; this waits."""
    rows = vars(g).get("_edges")
    if rows is None:
        with _swapping:
            rows = vars(g)["_edges"]
    return rows


class _memoised:
    """A field built on its first read and stored in the instance dict, where
    later reads find it.  Unlike ``functools.cached_property`` on Python 3.11
    it takes no lock: racing threads build equal values (only the swap in
    :attr:`Graph.edges`, which takes the rows away, and :class:`_on_rows`
    hold one).  A raise stores nothing."""

    def __init__(self, build):
        self.build, self.name, self.__doc__ = build, build.__name__, build.__doc__

    def __get__(self, g, owner=None):
        if g is None:
            return self
        value = vars(g)[self.name] = self.build(g)
        return value


class _on_rows(_memoised):
    """A memoised field that holds rows: built and stored under the lock of
    the swap in :attr:`Graph.edges`, so that none built on the plain rows is
    stored after the ``Edge`` view has taken their place."""

    def __get__(self, g, owner=None):
        with _swapping:
            return super().__get__(g, owner)


class Graph:
    """A finite directed multigraph with named vertices and edges.

    Construction does not validate; call :meth:`validate` to collect every
    invariant violation, or build through :meth:`checked` to raise on the
    first invalid input.  Reading :attr:`vertices` or the edges, which every
    operation does, raises :class:`InvalidGraphError` on an invalid graph; an
    operation also given a bad argument may raise that ValueError first.
    Instances are immutable and safe to share between threads, as are the
    read-only views :attr:`vertex_pos` and :attr:`edge_map`.  Equality,
    hashing, the repr and pickling use the unchecked ``(vertices, edges)``.
    An :class:`Edge` or a plain ``(id, src, dst)`` tuple is stored as given,
    any other sequence as an ``Edge``; when a pass over the item types and one
    over their lengths find only those two, the edges are kept as one tuple
    with no per-item step.  The first read's check decides by set passes and
    walks the items only to report faults (see :meth:`validate`).
    :attr:`edges`, :meth:`out_edges` and :attr:`edge_map` hold ``Edge``
    objects, built on the first read of any of them; the ``Edge`` view then
    takes the place of the plain rows, also in the per-vertex edge lists and
    the index by id, which the other two read.  The swap replaces the rows
    in a list, one at a time, so it holds a few bytes per edge while it
    runs, not a second copy; a thread that reads the graph meanwhile waits
    for it.  A power graph holds plain rows too.  The other facts are
    memoised on first read as well: the per-vertex edge lists and indexes,
    the counts of emitting and receiving vertices, the condensation
    ``_condensation`` and the reach facts ``_reach`` read from it.
    """

    def __init__(self, vertices: Iterable[str], edges: Iterable[Edge | tuple[str, str, str]]):
        # Written past __setattr__, which refuses; the memoised fields and
        # indexes are stored in the same __dict__.
        rows = tuple(edges)
        # Two passes in C show that every row is kept as given, as is usual;
        # otherwise each item is read in turn.
        if not ({tuple, Edge}.issuperset(map(type, rows)) and {3}.issuperset(map(len, rows))):
            rows = tuple(e if type(e) is tuple and len(e) == 3 or type(e) is Edge else Edge(*e)
                         for e in rows)
        vars(self).update(_vertices=tuple(vertices), _edges=rows)

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
        return Graph, (self._vertices, tuple(map(tuple, _stored(self))))

    # Cached only once the check passes, after which a read is a plain
    # attribute lookup; an invalid graph raises on every read.
    @_memoised
    def vertices(self) -> tuple[str, ...]:
        self.require_valid()
        return self._vertices

    @_on_rows
    def _rows(self) -> tuple[tuple[str, str, str], ...]:
        self.require_valid()
        return self._edges

    @_memoised
    def edges(self) -> tuple[Edge, ...]:
        # The view replaces the rows, which are equal to it, and the indexes
        # built on the rows are dropped, to be rebuilt on the view.  The rows
        # move into a list where each plain one is freed as its Edge is made,
        # so the swap holds one copy of each edge and two pointers per edge;
        # a tuple built from a generator would hold both copies at its peak.
        self.require_valid()
        d = vars(self)
        with _swapping:
            if "edges" in d:  # swapped in by another thread meanwhile
                return d["edges"]
            edges = list(d.pop("_edges"))
            for name in ("_rows", "_out", "_in", "_row_of"):
                d.pop(name, None)
            try:
                for i, e in enumerate(edges):
                    if type(e) is not Edge:
                        edges[i] = Edge._make(e)
            finally:
                # Restored even when interrupted, with the rest still plain.
                d.update(_edges=(edges := tuple(edges)), _rows=edges)
            d["edges"] = edges
        return edges

    def __repr__(self) -> str:
        return f"Graph(vertices={self._vertices!r}, edges={tuple(map(Edge._make, _stored(self)))!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._vertices == other._vertices and _stored(self) == _stored(other)

    def __hash__(self) -> int:
        return hash((self._vertices, _stored(self)))

    @classmethod
    def checked(cls, vertices: Iterable[str], edges: Iterable[Edge | tuple[str, str, str]]) -> "Graph":
        g = cls(tuple(vertices), tuple(edges))
        g.require_valid()
        return g

    def validate(self) -> ValidationResult:
        """Check all graph invariants, reporting every violation.

        Invariants: vertex ids are unique, edge ids are unique, and both
        endpoints of every edge are declared vertices.  The check is
        :func:`_violations`, which ``power_graph`` also runs on the parts it
        builds, and ``parse_json`` on a well-formed document whose id lookup
        or size tests fail: four set passes in C decide that a valid graph
        has nothing to report, and only an invalid one is walked item by
        item, to word and locate its faults in input order.
        """
        rows = _stored(self)
        return ValidationResult(tuple(
            ValidationIssue("duplicate id", x, f"duplicate vertex id {x!r}") if field == "vertices"
            else ValidationIssue("duplicate id", x, f"duplicate edge id {x!r}") if field == "id"
            else ValidationIssue("dangling endpoint", rows[i][0],
                                 f"edge {rows[i][0]!r} has undeclared {field} vertex {x!r}")
            for field, i, x in _violations(self._vertices, rows)))

    @_memoised
    def _validation(self) -> ValidationResult:
        return self.validate()

    def require_valid(self) -> None:
        if not self._validation.ok:
            raise InvalidGraphError(self._validation)

    # Index structures below read the checked fields; private ones hold rows.

    @_memoised
    def vertex_pos(self) -> Mapping[str, int]:
        return MappingProxyType({v: i for i, v in enumerate(self.vertices)})

    @property
    def edge_map(self) -> Mapping[str, Edge]:
        self.edges  # so that _row_of holds the view
        return MappingProxyType(self._row_of)

    @_on_rows
    def _row_of(self) -> dict[str, tuple[str, str, str]]:
        return {e[0]: e for e in self._rows}

    @_on_rows
    def _out(self) -> dict[str, tuple[tuple[str, str, str], ...]]:
        out: dict[str, list[tuple[str, str, str]]] = {v: [] for v in self.vertices}
        for e in self._rows:
            out[e[1]].append(e)
        return {v: tuple(es) for v, es in out.items()}

    @_on_rows
    def _in(self) -> dict[str, tuple[tuple[str, str, str], ...]]:
        inc: dict[str, list[tuple[str, str, str]]] = {v: [] for v in self.vertices}
        for e in self._rows:
            inc[e[2]].append(e)
        return {v: tuple(es) for v, es in inc.items()}

    @_memoised
    def _emitting(self) -> int:
        return len(frozenset(map(itemgetter(1), self._rows)))

    @_memoised
    def _receiving(self) -> int:
        return len(frozenset(map(itemgetter(2), self._rows)))

    @_memoised
    def _condensation(self) -> _Condensation:
        """The strongly connected components in reverse topological order, so
        edges leaving a component enter earlier ones: each vertex's component
        (``component_of``) and, for each component, the indices of those it
        enters and its kind: ``"acyclic"`` (one vertex, no loop), ``"exitless"``
        (each member emits one edge, inside: a cycle without an exit) or
        ``"cyclic"``.  Every verdict reads its component facts here.  One
        iterative Tarjan pass (SIAM J. Comput. 1972) fills all three, each
        component as it is popped, in O(V+E) and with no recursion limit.
        """
        out = self._out
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        comp_of: dict[str, int] = {}  # popped; the other vertices in index are on the stack
        stack: list[str] = []
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
                        k = len(kinds)
                        members = stack[height:]
                        del stack[height:]
                        for w in members:
                            comp_of[w] = k
                        ends = [comp_of[w] for m in members for _, _, w in out[m]]
                        entered = frozenset(ends)
                        successors.append(entered - {k})
                        # Each member of a component with an edge inside has one.
                        kinds.append("acyclic" if k not in entered else
                                     "exitless" if len(ends) == len(members) else "cyclic")
        return _Condensation(comp_of, tuple(successors), tuple(kinds))

    @_memoised
    def _reach(self) -> _Reach:
        """``depth``, the longest path from each vertex that reaches no cycle (0
        at a sink), and ``bound``, the longest nonreturning path from each that
        reaches no cycle with an exit: a simple path, then at most one turn
        round an exitless cycle.  Other vertices start paths, or nonreturning
        ones, of every large enough length.  Each component is listed after
        those it enters, so one pass over the record fills both in O(V+E)."""
        component_of, successors, kinds = self._condensation
        sizes = Counter(component_of.values()) if "exitless" in kinds else {}
        depth: list[Optional[int]] = []  # per component, None past a cycle
        bound: list[Optional[int]] = []  # per component, None past a cyclic one
        for k, (entered, kind) in enumerate(zip(successors, kinds)):
            ds, bs = [depth[c] for c in entered], [bound[c] for c in entered]
            depth.append(None if kind != "acyclic" or None in ds else 1 + max(ds, default=-1))
            bound.append(None if kind == "cyclic" or None in bs else
                         sizes[k] if kind == "exitless" else 1 + max(bs, default=-1))
        return _Reach(*({v: f[k] for v, k in component_of.items() if f[k] is not None}
                        for f in (depth, bound)))

    @_memoised
    def _depth(self) -> dict[str, int]:
        """``_reach.depth``; with no sink every vertex reaches a cycle: ``{}``
        at once, with no Tarjan pass."""
        return {} if self._emitting == len(self.vertices) else self._reach.depth

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        """Edges emitted at ``v``, in declaration order."""
        if v not in self.vertex_pos:
            raise ValueError(f"unknown vertex {v!r}")
        self.edges  # so that _out holds the view
        return self._out[v]

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

        Raises ValueError on unknown ids or non-composable consecutive edges,
        and TypeError on a bare str.
        """
        _refuse_str(edge_ids, "edge")
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
    the time of ``object.__setattr__``; ``paths._paths`` fills many at once.
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


class VertexClasses(NamedTuple):
    sinks: frozenset[str]      # emit no edge
    sources: frozenset[str]    # receive no edge
    regular: frozenset[str]    # emit at least one edge


class Connectivity(NamedTuple):
    weakly_connected: bool
    strongly_connected: bool


def vertex_classes(g: Graph) -> VertexClasses:
    """Partition information: sinks, sources, and regular (non-sink) vertices.

    The sets are built on each call and kept only by the caller; the graph
    records just their sizes, as its ``_emitting`` and ``_receiving`` counts.
    """
    rows = g._rows
    vs = frozenset(g.vertices)
    emitters, receivers = frozenset(map(itemgetter(1), rows)), frozenset(map(itemgetter(2), rows))
    vars(g).update(_emitting=len(emitters), _receiving=len(receivers))
    return VertexClasses(vs - emitters, vs - receivers, emitters)


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


def _refuse_str(ids: Iterable[str], kind: str) -> None:
    # A str is an iterable of ids too: its characters.
    if isinstance(ids, str):
        raise TypeError(f"pass a collection of {kind} ids, not the str {ids!r}")


def _vertex_set(g: Graph, vs: Optional[Iterable[str]]) -> Optional[frozenset[str]]:
    if vs is None:
        return None
    _refuse_str(vs, "vertex")
    out = frozenset(vs)
    for v in out:
        if v not in g.vertex_pos:
            raise ValueError(f"unknown vertex {v!r}")
    return out


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
    return Connectivity(roots == 1, len(kinds) == 1 and kinds[0] != "acyclic")
