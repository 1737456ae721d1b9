"""Weighted path vectors over a graph and their bimodule operations.

A :class:`VertexWeights` is a nonnegative function on vertices (an element of
the coefficient algebra); a :class:`PathVector` assigns complex weights to
paths of one fixed length m (an element of the m-fold tensor power of the
edge correspondence).  The operations here realize the vertex-indexed inner
product, the left action by vertex weights, the correspondence norm, and the
compression check that detects returning behaviour at the operator level:
for paths alpha (length m) and beta (length k < m), the compression of the
operator of beta by the operator of alpha is nonzero exactly when beta is the
leading block of alpha and alpha overlaps itself with shift k.
"""

from __future__ import annotations

from math import isfinite, sqrt
from types import MappingProxyType
from typing import Iterable, NamedTuple, Optional

from .graphs import Graph, Path, _refuse_str, _refuse_tuple_arithmetic, _same_graph


class VertexWeights(NamedTuple("VertexWeights", [
        ("graph", Graph), ("weights", MappingProxyType[str, float])])):
    """A nonnegative weight for each vertex; omitted vertices weigh 0.
    Checked whenever one is built, unpickling included, and read-only."""

    __slots__ = ()
    __hash__ = None  # the weights are a mapping; refused before hashing the graph
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too
    __getnewargs__ = lambda self: (self.graph, dict(self.weights))  # a proxy does not pickle
    __add__ = __radd__ = __mul__ = __rmul__ = _refuse_tuple_arithmetic

    def __new__(cls, graph: Graph, weights: dict[str, float]):
        pos = graph.vertex_pos  # refuses an invalid graph
        clean: dict[str, float] = {}
        for v, w in weights.items():
            if v not in pos:
                raise ValueError(f"unknown vertex {v!r}")
            w = float(w)
            if not isfinite(w):
                raise ValueError(f"non-finite weight {w} at vertex {v!r}")
            if w < 0:
                raise ValueError(f"negative weight {w} at vertex {v!r}")
            clean[v] = w
        return super().__new__(cls, graph, MappingProxyType(clean))

    def __repr__(self) -> str:
        return f"VertexWeights(weights={dict(self.weights)!r})"

    @classmethod
    def indicator(cls, g: Graph, vertices: Iterable[str]) -> "VertexWeights":
        _refuse_str(vertices, "vertex")
        return cls(g, {v: 1.0 for v in vertices})

    def __call__(self, v: str) -> float:
        if v not in self.graph.vertex_pos:
            raise ValueError(f"unknown vertex {v!r}")
        return self.weights.get(v, 0.0)

    @property
    def sup_norm(self) -> float:
        return max(self.weights.values(), default=0.0)

    def is_zero(self) -> bool:
        return all(w == 0.0 for w in self.weights.values())


class PathVector(NamedTuple("PathVector", [
        ("graph", Graph), ("length", int), ("weights", MappingProxyType[Path, complex])])):
    """Complex weights on paths of one fixed length; omitted paths weigh 0.
    Zero weights are dropped, so equal vectors over one graph compare equal;
    checked whenever one is built, unpickling included, and read-only."""

    __slots__ = ()
    __hash__ = None
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too
    __getnewargs__ = lambda self: (self.graph, self.length, dict(self.weights))
    __radd__ = __mul__ = _refuse_tuple_arithmetic

    def __new__(cls, graph: Graph, length: int, weights: dict[Path, complex]):
        graph.vertices  # refuses an invalid graph
        if length < 1:
            raise ValueError("path vectors need length at least 1")
        clean: dict[Path, complex] = {}
        for p, w in weights.items():
            if not _same_graph(p.graph, graph):
                raise ValueError("path from a different graph")
            if p.length != length:
                raise ValueError(f"path of length {p.length} in a vector of length {length}")
            w = complex(w)
            if w != 0:
                clean[p] = w
        return super().__new__(cls, graph, length, MappingProxyType(clean))

    def __repr__(self) -> str:
        return f"PathVector(length={self.length!r}, weights={dict(self.weights)!r})"

    @classmethod
    def delta(cls, path: Path, weight: complex = 1.0) -> "PathVector":
        return cls(path.graph, path.length, {path: weight})

    def __add__(self, other: "PathVector") -> "PathVector":
        if not _same_graph(self.graph, other.graph) or self.length != other.length:
            raise ValueError("vectors live in different modules")
        merged = dict(self.weights)
        for p, w in other.weights.items():
            merged[p] = merged.get(p, 0j) + w
        return PathVector(self.graph, self.length, merged)

    def __rmul__(self, scalar: complex) -> "PathVector":
        return PathVector(
            self.graph, self.length,
            {p: complex(scalar) * w for p, w in self.weights.items()})


def inner_product(x: PathVector, y: PathVector) -> dict[str, complex]:
    """Vertex-indexed inner product: at v, sum conj(x(alpha)) * y(alpha) over
    paths alpha with range v.  Only nonzero entries are returned; an empty
    dict is the zero function.
    """
    if not _same_graph(x.graph, y.graph):
        raise ValueError("vectors live over different graphs")
    if x.length != y.length:
        raise ValueError(f"length mismatch: {x.length} vs {y.length}")
    acc: dict[str, complex] = {}
    for p, w in x.weights.items():
        yw = y.weights.get(p)
        if yw is None:
            continue
        v = p.range
        acc[v] = acc.get(v, 0j) + w.conjugate() * yw
    return {v: val for v, val in acc.items() if val != 0}


def left_action(a: VertexWeights, x: PathVector) -> PathVector:
    """Multiply each path weight by the vertex weight at the path's source."""
    if not _same_graph(a.graph, x.graph):
        raise ValueError("weights and vector live over different graphs")
    return PathVector(
        x.graph, x.length,
        {p: a(p.source) * w for p, w in x.weights.items()})


def sup_norm(values: dict[str, complex]) -> float:
    """Sup norm of a vertex-indexed function (max modulus, 0 when empty)."""
    return max((abs(v) for v in values.values()), default=0.0)


def norm(x: PathVector) -> float:
    """Correspondence norm: sqrt of max over v of sum of |x(alpha)|^2 with
    range(alpha) == v."""
    acc: dict[str, float] = {}
    for p, w in x.weights.items():
        v = p.range
        acc[v] = acc.get(v, 0.0) + (w.real * w.real + w.imag * w.imag)
    return sqrt(max(acc.values(), default=0.0))


def operator_sandwich(alpha: Path, beta: Path) -> Optional[Path]:
    """Compress the creation operator of ``beta`` by that of ``alpha``.

    For alpha of length m and beta of length k < m, the product
    (adjoint of alpha) . beta . alpha is nonzero exactly when beta equals the
    first k edges of alpha and ``alpha[i] == alpha[i-k]`` for all i > k; the
    result is then the path formed by the last k edges of alpha.  Returns
    None when the product vanishes.  Raises ValueError for k >= m or when the
    paths come from different graphs.
    """
    if not _same_graph(alpha.graph, beta.graph):
        raise ValueError("paths live in different graphs")
    m, k = alpha.length, beta.length
    if k >= m:
        raise ValueError(f"middle path must be shorter: got lengths {k} >= {m}")
    if beta.edges != alpha.edges[:k]:
        return None
    if alpha.edges[k:] != alpha.edges[:m - k]:
        return None
    return Path(alpha.graph, alpha.edges[m - k:])


def is_nonreturning_vector(alpha: Path) -> bool:
    """Whether the delta vector at ``alpha`` is nonreturning.

    The delta vector at a path alpha of length m is nonreturning when
    ``operator_sandwich(alpha, beta)`` vanishes for every shorter path beta.
    Only sandwiches with beta the leading block of alpha can survive, so the
    check reduces to self-overlaps of alpha: it fails exactly when alpha
    equals its own shift by some k in 1..m-1.  For m == 1 the condition is
    vacuous and the answer is True.

    Only scaled delta vectors are decided here; arbitrary superpositions of
    paths are out of scope.
    """
    m = alpha.length
    edges = alpha.edges
    for k in range(1, m):
        if edges[k:] == edges[:m - k]:
            return False
    return True
