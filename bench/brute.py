"""Definitional brute force that checks the oracle on small graphs.

Everything here follows the definitions literally (all vertex subsets, all
edge sequences, all matrix powers) and is meant for graphs of at most four
vertices.  :func:`selfcheck` returns a list of disagreements with
:mod:`oracle`, empty when the oracle is right.
"""

from __future__ import annotations

from itertools import combinations
from math import lcm

import oracle


def _subsets(g):
    n = len(g.vertices)
    for mask in range(1 << n):
        yield frozenset(v for i, v in enumerate(g.vertices) if mask >> i & 1)


def hereditary(g, s) -> bool:
    return all(d in s for _, src, d in g.edges if src in s)


def saturated(g, s) -> bool:
    for v in g.vertices:
        outs = [d for _, src, d in g.edges if src == v]
        if v not in s and outs and all(d in s for d in outs):
            return False
    return True


def lattice(g, kind):
    return [s for s in _subsets(g)
            if hereditary(g, s) and (kind == "hereditary" or saturated(g, s))]


def all_paths(g, n):
    """Every composable sequence of n edge indices, sorted lexicographically."""
    seqs = [(e,) for e in range(len(g.edges))]
    for _ in range(n - 1):
        seqs = [s + (e,) for s in seqs for e in range(len(g.edges))
                if g.edges[s[-1]][2] == g.edges[e][1]]
    return sorted(seqs)


def elementary_cycles(g):
    """Cycles whose edge sources are pairwise distinct, each given once per
    starting edge position (every rotation)."""
    found = []
    for n in range(1, len(g.vertices) + 1):
        for s in all_paths(g, n):
            srcs = [g.edges[e][1] for e in s]
            if len(set(srcs)) == n and g.edges[s[-1]][2] == srcs[0]:
                found.append(s)
    return found


def has_exit(g, cycle) -> bool:
    used = set(cycle)
    return any(f not in used and g.edges[f][1] == g.edges[e][1]
               for e in cycle for f in range(len(g.edges)))


def adjacency(g):
    n = len(g.vertices)
    pos = {v: i for i, v in enumerate(g.vertices)}
    m = [[0] * n for _ in range(n)]
    for _, s, d in g.edges:
        m[pos[s]][pos[d]] += 1
    return m


def _reach(g):
    """reach[v] = vertices at the end of a path of length >= 1 from v."""
    reach = {v: set() for v in g.vertices}
    for n in range(1, len(g.vertices) + 1):
        for s in all_paths(g, n):
            reach[g.edges[s[0]][1]].add(g.edges[s[-1]][2])
    return reach


def selfcheck(g) -> list[str]:
    """Compare every oracle route with brute force on one small graph."""
    bad = []
    vs = g.vertices

    def want(name, got, expected):
        if got != expected:
            bad.append(f"{name}: oracle {got!r}, brute force {expected!r} on {g.edges!r}")

    her = lattice(g, "hereditary")
    sat = lattice(g, "saturated_hereditary")
    full = frozenset(vs)
    want("hereditary_trivial", oracle.hereditary_trivial(g), set(her) <= {frozenset(), full})
    want("saturated_hereditary_trivial", oracle.saturated_hereditary_trivial(g),
         set(sat) <= {frozenset(), full})
    for s in _subsets(g):
        want("is_hereditary", oracle.is_hereditary(g, s), s in her)
        want("is_saturated", oracle.is_saturated(g, s), saturated(g, s))
        want("closure", oracle.closure(g, s),
             frozenset.intersection(*[t for t in sat if s <= t]))

    exitless = [c for c in elementary_cycles(g) if not has_exit(g, c)]
    if exitless:
        first = min(vs.index(g.edges[c[0]][1]) for c in exitless)
        cycle = next(c for c in exitless if vs.index(g.edges[c[0]][1]) == first)
        want("condition_L", oracle.condition_L(g), (False, tuple(g.edges[e][0] for e in cycle)))
    else:
        want("condition_L", oracle.condition_L(g), (True, None))

    a = adjacency(g)
    identity = [[int(i == j) for j in range(len(vs))] for i in range(len(vs))]
    power, period = a, None
    for n in range(1, lcm(*range(1, len(vs) + 1)) + 1):
        if power == identity:
            period = n
            break
        power = [[sum(power[i][k] * a[k][j] for k in range(len(vs))) for j in range(len(vs))]
                 for i in range(len(vs))]
    want("periodicity", oracle.periodicity(g), (period is not None, period))

    simple = oracle.condition_L(g)[0] and set(sat) <= {frozenset(), full}
    want("cofinal_simple", oracle.cofinal_simple(g), simple)

    reach = _reach(g)
    undirected = {v: {v} for v in vs}
    for _ in vs:
        for _, s, d in g.edges:
            undirected[s] |= undirected[d]
            undirected[d] |= undirected[s]
    want("connectivity", oracle.connectivity(g),
         (all(undirected[v] == full for v in vs), all(reach[v] == full for v in vs)))
    comp = oracle.scc(g)
    for i, j in combinations(range(len(vs)), 2):
        mutual = vs[j] in reach[vs[i]] and vs[i] in reach[vs[j]]
        want("scc", comp[i] == comp[j], mutual)

    for n in range(1, 4):
        paths = all_paths(g, n)
        want(f"count_paths n={n}", oracle.count_paths(g, n), len(paths))
        want(f"iter_paths n={n}", [tuple(p) for p in oracle.iter_paths(g, n)], paths)

    weights = {v: float(i + 1) for i, v in enumerate(vs)}
    for n in range(0, 3):
        expected = None
        for m in range(n + 1, n + 4):
            hits = [p for p in all_paths(g, m)
                    if weights[g.edges[p[0]][1]] > max(weights.values()) - 1.5
                    and p[-1] not in p[:-1]
                    and all(p[k:] != p[:m - k] for k in range(1, m))]
            if hits:
                expected = (m, tuple(g.edges[e][0] for e in hits[0]))
                break
        want(f"first_witness n={n}", oracle.first_witness(g, weights, n, 1.5, n + 3), expected)
    return bad


def selfcheck_closed_forms() -> list[str]:
    """The closed forms the benchmark uses against enumeration: k^n paths
    on R_k, k paths of each length on C_k, and the elementary cycle count of
    the complete digraph with loops."""
    bad = []
    for k in range(1, 5):
        vs = tuple(f"v{i}" for i in range(k))
        complete = oracle.Plain(vs, [(f"e{i}{j}", vs[i], vs[j]) for i in range(k) for j in range(k)])
        based = [c for c in elementary_cycles(complete)
                 if complete.src[c[0]] == min(complete.src[e] for e in c)]
        if len(based) != oracle.complete_cycles(k):
            bad.append(f"complete_cycles({k}) = {oracle.complete_cycles(k)}, enumeration {len(based)}")
        rose = oracle.Plain(("u",), [(f"e{i}", "u", "u") for i in range(k)])
        cycle = oracle.Plain(vs, [(f"e{i}", vs[i], vs[(i + 1) % k]) for i in range(k)])
        for n in range(1, 4):
            if oracle.rose_paths(k, n) != len(all_paths(rose, n)):
                bad.append(f"rose_paths({k}, {n})")
            if len(all_paths(cycle, n)) != k:
                bad.append(f"C_{k} has {len(all_paths(cycle, n))} paths of length {n}, not {k}")
    return bad
