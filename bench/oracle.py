"""Independent oracle for the benchmark: standard library only, sharing no
code with ``graphcstar``.

Graphs are plain data here: a tuple of vertex ids and a tuple of
``(edge id, src, dst)`` triples, wrapped in :class:`Plain` for indexing.
The fast routes below are the ones the benchmark checks the program
against; :mod:`brute` holds the definitional brute force that checks these
routes on small graphs.
"""

from __future__ import annotations

import hashlib
from math import comb, factorial, lcm


class Plain:
    """Indexed view of a graph given as vertex ids and edge triples."""

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        self.edges = tuple(tuple(e) for e in edges)
        self.pos = {v: i for i, v in enumerate(self.vertices)}
        n = len(self.vertices)
        self.src = [self.pos[e[1]] for e in self.edges]
        self.dst = [self.pos[e[2]] for e in self.edges]
        self.out = [[] for _ in range(n)]  # edge indices, declaration order
        self.inc = [[] for _ in range(n)]
        for i, (s, d) in enumerate(zip(self.src, self.dst)):
            self.out[s].append(i)
            self.inc[d].append(i)
        self.succ = [[self.dst[i] for i in es] for es in self.out]

    def __len__(self):
        return len(self.vertices)


# -- strongly connected components -----------------------------------------

def scc(g: Plain) -> list[int]:
    """Component index of every vertex (iterative Tarjan).  Components are
    numbered in the order Tarjan completes them, which is reverse
    topological: an edge between components goes to a lower number."""
    n = len(g)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0
    ncomp = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        work = [(root, 0)]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, i = work[-1]
            succ = g.succ[v]
            if i < len(succ):
                work[-1] = (v, i + 1)
                w = succ[i]
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, 0))
                elif on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
                continue
            work.pop()
            if work:
                u = work[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
    return comp


def terminal_components(g: Plain, comp: list[int]) -> list[int]:
    """Components with no edge leaving them."""
    leaves = set(comp)
    for s, d in zip(g.src, g.dst):
        if comp[s] != comp[d]:
            leaves.discard(comp[s])
    return sorted(leaves)


# -- hereditary and saturated sets ------------------------------------------

def closure(g: Plain, seed_ids) -> frozenset:
    """Least saturated hereditary superset, by a worklist that counts each
    vertex's out-edges still landing outside the set: O(V + E)."""
    n = len(g)
    inside = [False] * n
    outside = [len(es) for es in g.out]
    work = []
    for v in seed_ids:
        i = g.pos[v]
        if not inside[i]:
            inside[i] = True
            work.append(i)
    while work:
        v = work.pop()
        for w in g.succ[v]:  # hereditary: successors join
            if not inside[w]:
                inside[w] = True
                work.append(w)
        for e in g.inc[v]:  # saturation: a non-sink whose last outside edge
            u = g.src[e]     # just landed inside joins
            outside[u] -= 1
            if outside[u] == 0 and not inside[u]:
                inside[u] = True
                work.append(u)
    return frozenset(g.vertices[i] for i in range(n) if inside[i])


def hereditary_trivial(g: Plain) -> bool:
    """Only the empty and full sets are hereditary iff the graph is one
    strongly connected component (mutual reachability, length 0 allowed)."""
    return len(set(scc(g))) <= 1


def saturated_hereditary_trivial(g: Plain) -> bool:
    """Terminal-component rule: a nonempty saturated hereditary set contains
    a terminal component, and the closure of one terminal component never
    contains another, so the lattice is trivial iff there is exactly one
    terminal component and its closure is everything."""
    comp = scc(g)
    terms = terminal_components(g, comp)
    if len(terms) != 1:
        return False
    members = [v for v, c in zip(g.vertices, comp) if c == terms[0]]
    return len(closure(g, members)) == len(g)


def is_hereditary(g: Plain, members) -> bool:
    s = {g.pos[v] for v in members}
    return all(d in s for v in s for d in g.succ[v])


def is_saturated(g: Plain, members) -> bool:
    s = {g.pos[v] for v in members}
    return all(v in s or not succ or any(d not in s for d in succ)
               for v, succ in enumerate(g.succ))


# -- Condition (L), periodicity, simplicity ----------------------------------

def condition_L(g: Plain):
    """Colour walk over the out-degree-one subgraph.  Returns ``(holds,
    cycle)``; on failure ``cycle`` is the edge-id tuple of the exitless cycle
    through the earliest vertex lying on one, walked from that vertex."""
    n = len(g)
    nxt = [es[0] if len(es) == 1 else -1 for es in g.out]
    colour = [0] * n  # 0 unseen, 1 on the current walk, 2 finished
    best = None
    for start in range(n):
        if colour[start] or nxt[start] < 0:
            continue
        walk = []
        v = start
        while v >= 0 and colour[v] == 0:
            colour[v] = 1
            walk.append(v)
            e = nxt[v]
            v = g.dst[e] if e >= 0 else -1
        if v >= 0 and colour[v] == 1:  # closed a new cycle at v
            cyc = walk[walk.index(v):]
            first = min(cyc)
            if best is None or first < best:
                best = first
        for u in walk:
            colour[u] = 2
    if best is None:
        return True, None
    edges = []
    v = best
    while True:
        e = nxt[v]
        edges.append(g.edges[e][0])
        v = g.dst[e]
        if v == best:
            return False, tuple(edges)


def periodicity(g: Plain):
    """``(periodic, minimal period)``: periodic iff every in- and out-degree
    is one; the period is then the lcm of the cycle lengths."""
    if not all(len(o) == 1 and len(i) == 1 for o, i in zip(g.out, g.inc)):
        return False, None
    seen = [False] * len(g)
    period = 1
    for v in range(len(g)):
        length = 0
        while not seen[v]:
            seen[v] = True
            v = g.succ[v][0]
            length += 1
        if length:
            period = lcm(period, length)
    return True, period


def reaches_all(g: Plain, targets) -> bool:
    """Whether every vertex has a path (length 0 allowed) to every target."""
    preds = [[g.src[e] for e in es] for es in g.inc]
    for t in targets:
        seen = {t}
        stack = [t]
        while stack:
            for u in preds[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) != len(g):
            return False
    return True


def cofinal_simple(g: Plain) -> bool:
    """Simplicity by the cofinality criterion of Bates, Pask, Raeburn and
    Szymanski (NYJM 2000) for finite graphs: Condition (L), and every vertex
    reaches every vertex on a cycle and every sink."""
    if not condition_L(g)[0]:
        return False
    comp = scc(g)
    size: dict[int, int] = {}
    for c in comp:
        size[c] = size.get(c, 0) + 1
    on_cycle = [size[comp[v]] > 1 or v in g.succ[v] for v in range(len(g))]
    targets = [v for v in range(len(g)) if on_cycle[v] or not g.out[v]]
    return reaches_all(g, targets)


def connectivity(g: Plain):
    """``(weak, strong)`` with strong meaning a path of length >= 1 between
    every ordered pair, the pair (v, v) included."""
    parent = list(range(len(g)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s, d in zip(g.src, g.dst):
        parent[find(s)] = find(d)
    weak = len({find(v) for v in range(len(g))}) == 1
    strong = len(set(scc(g))) == 1 and (len(g) > 1 or bool(g.out[0]))
    return weak, strong


def vertex_classes(g: Plain):
    sinks = frozenset(v for v, o in zip(g.vertices, g.out) if not o)
    sources = frozenset(v for v, i in zip(g.vertices, g.inc) if not i)
    return sinks, sources, frozenset(g.vertices) - sinks


# -- path counting and enumeration -------------------------------------------

def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def count_paths(g: Plain, n: int) -> int:
    """Paths of length ``n`` by repeated squaring of the adjacency matrix."""
    size = len(g)
    base = [[0] * size for _ in range(size)]
    for s, d in zip(g.src, g.dst):
        base[s][d] += 1
    result = None
    while n:
        if n & 1:
            result = base if result is None else _matmul(result, base)
        n >>= 1
        if n:
            base = _matmul(base, base)
    return sum(map(sum, result))


def rose_paths(k: int, n: int) -> int:
    """R_k has k^n paths of length n."""
    return k ** n


def complete_cycles(k: int) -> int:
    """Elementary cycles of the complete digraph with loops on k vertices:
    one per cyclic order of each nonempty vertex subset."""
    return sum(comb(k, j) * factorial(j - 1) for j in range(1, k + 1))


def iter_paths(g: Plain, n: int, starts=None):
    """Paths of length ``n`` as edge-index lists, lazily, in lexicographic
    declaration order; ``starts`` restricts the source vertex indices."""
    firsts = [e for e in range(len(g.edges)) if starts is None or g.src[e] in starts]
    path: list[int] = []
    iters = [iter(firsts)]
    while iters:
        e = next(iters[-1], None)
        if e is None:
            iters.pop()
            if path:
                path.pop()
            continue
        path.append(e)
        if len(path) == n:
            yield path
            path.pop()
        else:
            iters.append(iter(g.out[g.dst[e]]))


def power_digest(g: Plain, n: int) -> tuple[int, str]:
    """Edge count and digest of the n-th power graph's edge list: each
    length-n path, in lexicographic order, as ``id src dst`` lines."""
    h = hashlib.sha256()
    count = 0
    ids = [e[0] for e in g.edges]
    for p in iter_paths(g, n):
        line = f"{'.'.join(ids[e] for e in p)} {g.edges[p[0]][1]} {g.edges[p[-1]][2]}\n"
        h.update(line.encode())
        count += 1
    return count, h.hexdigest()


def first_witness(g: Plain, weights: dict, n: int, epsilon: float, max_length: int):
    """Lexicographically first path beyond length ``n`` whose source weight
    exceeds ``sup - epsilon`` and whose last edge does not occur earlier, by
    lazy depth-first search; ``(m, edge ids)`` or None."""
    threshold = max(weights.values(), default=0.0) - epsilon
    starts = {g.pos[v] for v, w in weights.items() if w > threshold}
    if not starts:
        return None
    for m in range(n + 1, max_length + 1):
        for p in iter_paths(g, m, starts):
            if p[-1] not in p[:-1]:
                return m, tuple(g.edges[e][0] for e in p)
    return None
