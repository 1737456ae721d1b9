"""Workload inputs, the operations run on them, and their correctness checks.

Each workload function takes the seed and returns a :class:`Spec`.  Making
a spec generates every input as plain data, writes the CLI input files and
computes the expected answers with :mod:`oracle`; none of that is program
work.  ``Spec.build(pkg)`` then turns the plain inputs into ``graphcstar``
objects (the benchmark's set-up) and returns the operations of one round.

Sizes and family mixes are fixed per workload; the seed only changes the
random structure inside each family (edge placement, declaration order,
chord and seed-vertex choice, witness weights), so every seed gives rounds
with the same number and kind of operations.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import brute
import oracle

PRIMES = [p for p in range(2, 1000) if all(p % d for d in range(2, int(p ** 0.5) + 1))]


@dataclass
class Job:
    """One timed library call and the check of its result (None = correct)."""
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


@dataclass
class Cli:
    """One ``graphcstar`` subprocess; ``args`` follow the program name."""
    label: str
    args: list
    check: Callable[[subprocess.CompletedProcess], Optional[str]]


@dataclass
class Round:
    jobs: list
    cli: list
    probes: list  # fault probes: run untimed, failed while the fault stands


@dataclass
class Spec:
    build: Callable[[Any], Round]
    oracle_bad: list = field(default_factory=list)


# -- graph families (plain data) ---------------------------------------------

def _ids(prefix, n):
    return [f"{prefix}{i}" for i in range(n)]


def cycle(n, rng):
    """C_n through the vertices in a seeded order, edges declared from a
    seeded starting point."""
    vs = _ids("v", n)
    order = vs[:]
    rng.shuffle(order)
    start = rng.randrange(n)
    es = [(f"e{i}", order[(start + i) % n], order[(start + i + 1) % n]) for i in range(n)]
    return vs, es


def chain(n, rng, loops=None):
    """Out-degree-one chain through a seeded vertex order, ending in a rose
    of 1-3 loops (``loops`` fixes the count)."""
    vs = _ids("v", n)
    order = vs[:]
    rng.shuffle(order)
    es = [(f"e{i}", order[i], order[i + 1]) for i in range(n - 1)]
    k = loops or rng.randint(1, 3)
    es += [(f"r{i}", order[-1], order[-1]) for i in range(k)]
    return vs, es


def random_multigraph(n, rng, per_vertex=3):
    """E = 3V random edges, none leaving the last vertex: it is always a
    sink, so which verdict route ``classify`` takes does not depend on the
    seed."""
    vs = _ids("v", n)
    tails = vs[:-1] or vs
    return vs, [(f"e{i}", rng.choice(tails), rng.choice(vs)) for i in range(per_vertex * n)]


def strong(n, rng, extra=None):
    """Strongly connected: a Hamiltonian cycle in seeded order plus chords."""
    vs, es = cycle(n, rng)
    chords = extra if extra is not None else max(1, n // 2)
    es += [(f"c{i}", rng.choice(vs), rng.choice(vs)) for i in range(chords)]
    return vs, es


def prime_cycles(n, rng, largest=997):
    """Disjoint cycles of prime lengths summing to n (n >= 2)."""
    lengths = []
    left = n
    while left:
        choices = [p for p in PRIMES if p <= min(left, largest) and left - p != 1]
        lengths.append(rng.choice(choices[-8:]))
        left -= lengths[-1]
    vs = _ids("v", n)
    order = vs[:]
    rng.shuffle(order)
    es, at = [], 0
    for length in lengths:
        ring = order[at:at + length]
        es += [(f"p{at + i}", ring[i], ring[(i + 1) % length]) for i in range(length)]
        at += length
    return vs, es


def rose(k):
    return ("u",), [(f"e{i}", "u", "u") for i in range(k)]


def tree_shuffled(n, rng):
    """Random out-tree from a root plus n random edges, declared in shuffled
    order (the closure sweep depends on edge order)."""
    vs = _ids("v", n)
    es = [(vs[rng.randrange(i)], vs[i]) for i in range(1, n)]
    es += [(rng.choice(vs), rng.choice(vs)) for _ in range(n)]
    rng.shuffle(es)
    return vs, [(f"e{i}", s, d) for i, (s, d) in enumerate(es)]


def complete_with_loops(k):
    vs = _ids("k", k)
    return vs, [(f"k{i}_{j}", vs[i], vs[j]) for i in range(k) for j in range(k)]


# -- independent writers and readers ------------------------------------------

def to_dsl(vs, es) -> str:
    return "".join(f"vertex {v}\n" for v in vs) + "".join(f"edge {e} {s} {d}\n" for e, s, d in es)


def to_json(vs, es) -> str:
    return json.dumps({"vertices": list(vs),
                       "edges": [{"id": e, "src": s, "dst": d} for e, s, d in es]})


def read_dsl(text):
    vs, es = [], []
    for line in text.splitlines():
        words = line.split("#", 1)[0].split()
        if words and words[0] == "vertex":
            vs.append(words[1])
        elif words and words[0] == "edge":
            es.append(tuple(words[1:4]))
        elif words:
            raise ValueError(f"unexpected DSL line {line!r}")
    return tuple(vs), tuple(es)


_DOT_VERTEX = re.compile(r'^  "([^"]*)"(?: \[.*\])?;$')
_DOT_EDGE = re.compile(r'^  "([^"]*)" -> "([^"]*)" \[label="([^"]*)"(?:, [^\]]*)?\];$')


def read_dot(text):
    lines = text.splitlines()
    if not lines or lines[0] != "digraph G {" or lines[-1] != "}":
        raise ValueError("not a DOT digraph")
    vs, es = [], []
    for line in lines[1:-1]:
        if line.startswith("  //"):
            continue
        m = _DOT_EDGE.match(line)
        if m:
            es.append((m.group(3), m.group(1), m.group(2)))
            continue
        m = _DOT_VERTEX.match(line)
        if not m:
            raise ValueError(f"unexpected DOT line {line!r}")
        vs.append(m.group(1))
    return tuple(vs), tuple(es)


def _same_graph(g, vs, es) -> Optional[str]:
    if tuple(g.vertices) != tuple(vs) or tuple(map(tuple, g.edges)) != tuple(es):
        return "graph differs from the generated one"
    return None


def _compare(name, got, expected) -> Optional[str]:
    return None if got == expected else f"{name}: got {got!r}, expected {expected!r}"


def _first_error(*errors):
    return next((e for e in errors if e), None)


def _selfcheck(graphs) -> list:
    """The oracle against brute force on every graph of at most 4 vertices."""
    bad = brute.selfcheck_closed_forms()
    for g in graphs:
        if len(g.vertices) <= 4:
            bad += brute.selfcheck(g)
    return bad


def _cli_exit0(proc) -> Optional[str]:
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr[-300:]!r}"
    return None


# -- census ---------------------------------------------------------------------

# Jobs per round by vertex count.  The median job falls in the middle of the
# 3-vertex block and the 90th percentile in the middle of the 14-vertex
# block, so neither sits on a boundary between sizes of different cost.
CENSUS_SIZES = {1: 12, 2: 20, 3: 36, 4: 10, 5: 2, 6: 2, 7: 2, 8: 1, 9: 1, 10: 1,
                11: 1, 12: 1, 13: 1, 14: 11, 15: 2, 16: 1}
CENSUS_SMOKE_SIZES = {1: 2, 2: 3, 3: 3, 4: 3, 6: 1, 8: 1}
CENSUS_FAMILIES = {
    "cycle": cycle,
    "chain": chain,
    "random": random_multigraph,
    "strong": strong,
    "primes": prime_cycles,
    "rose": lambda n, rng: rose(rng.randint(1, 4)),
}
CENSUS_CLI_SLICE = (4, 9)  # the first graph of each of these vertex counts


def _families_for(n):
    if n >= 14:
        # The tail uses only families without sinks or sources: each of its
        # jobs enumerates the lattice five times, the most classify does.
        return ["cycle", "strong", "primes"]
    names = [f for f in CENSUS_FAMILIES if f != "rose" or n == 1]
    return [f for f in names if f != "primes" or n >= 2]


def census_expectation(g: oracle.Plain) -> dict:
    """The report fields, derived by the oracle."""
    classes = oracle.vertex_classes(g)
    no_sinks, no_sources = not classes[0], not classes[1]
    holds_l, cycle_edges = oracle.condition_L(g)
    periodic, period = oracle.periodicity(g)
    her_trivial = oracle.hereditary_trivial(g)
    sat_trivial = oracle.saturated_hereditary_trivial(g)
    simple = oracle.cofinal_simple(g)
    cond_s = no_sinks and holds_l
    schweizer = no_sinks and no_sources
    failed = [name for name, bad in (("has_sources", not no_sources), ("has_sinks", not no_sinks)) if bad]
    counterexample = []
    if not periodic and not holds_l:
        counterexample.append("nonperiodic_but_not_L")
    if not periodic and sat_trivial and not simple:
        counterexample.append("nonperiodic_trivial_invariant_not_simple")
    if periodic:
        counterexample.append("periodic_disjoint_cycles")
    return {
        "graph": {"vertices": len(g.vertices), "edges": len(g.edges)},
        "flags": {
            "no_sinks": no_sinks, "no_sources": no_sources, "finite": True,
            "full": no_sources, "unital": True, "injective_left_action": no_sinks,
            "condition_L": holds_l, "condition_S": cond_s, "nonperiodic": not periodic,
            "trivial_hereditary": her_trivial, "trivial_saturated_hereditary": sat_trivial,
        },
        "condition_S_reason": "has_sinks" if not no_sinks else ("ok" if holds_l else "fails_L"),
        "simplicity": "simple" if simple else "not_simple",
        "schweizer": {
            "hypotheses_hold": schweizer, "failed": failed,
            "predicted": ("simple" if not periodic and her_trivial else "not_simple") if schweizer else None,
        },
        "counterexample_flags": counterexample,
        "minimal_period": period,
        "violating_cycle": list(cycle_edges) if cycle_edges else None,
    }


def _check_lattice(g: oracle.Plain, name, elements, saturated, trivial, exact) -> Optional[str]:
    full = list(g.vertices)
    if not elements or elements[0] != [] or elements[-1] != full:
        return f"{name}: must start with [] and end with the full set"
    masks = [sum(1 << g.pos[v] for v in s) for s in elements]
    if masks != sorted(set(masks)):
        return f"{name}: elements not distinct in bitmask order"
    for s in elements:
        if s != sorted(s, key=g.pos.__getitem__):
            return f"{name}: element {s} not in declaration order"
        if not oracle.is_hereditary(g, s) or (saturated and not oracle.is_saturated(g, s)):
            return f"{name}: {s} fails the oracle's membership test"
    if (len(elements) == 2) != trivial:
        return f"{name}: {len(elements)} elements, oracle says trivial={trivial}"
    if exact is not None and elements != exact:
        return f"{name}: differs from brute-force enumeration"
    return None


def _census_check(g: oracle.Plain, expected: dict, exact: dict):
    def check(report: dict) -> Optional[str]:
        for key, want in expected.items():
            if report.get(key) != want:
                return f"{key}: got {report.get(key)!r}, oracle {want!r}"
        flags = expected["flags"]
        return _first_error(
            _check_lattice(g, "hereditary_lattice", report["hereditary_lattice"], False,
                           flags["trivial_hereditary"], exact.get("hereditary")),
            _check_lattice(g, "saturated_hereditary_lattice", report["saturated_hereditary_lattice"],
                           True, flags["trivial_saturated_hereditary"],
                           exact.get("saturated_hereditary")))
    return check


def _census_text_check(expected: dict):
    def check(proc) -> Optional[str]:
        err = _cli_exit0(proc)
        if err:
            return err
        lines = set(proc.stdout.splitlines())
        cycle = expected["violating_cycle"]
        want = [f"simplicity: {expected['simplicity']}",
                "condition (L): holds" if cycle is None
                else f"condition (L): fails (exitless cycle: {' '.join(cycle)})",
                "periodicity: nonperiodic" if expected["minimal_period"] is None
                else f"periodicity: periodic, minimal period {expected['minimal_period']}"]
        missing = [w for w in want if w not in lines]
        return f"text report lacks {missing}" if missing else None
    return check


def census(seed: int, smoke: bool, workdir: Path) -> Spec:
    rng = random.Random(f"census:{seed}")
    sizes = CENSUS_SMOKE_SIZES if smoke else CENSUS_SIZES
    draw = []  # (label, plain graph)
    for n, count in sizes.items():
        families = _families_for(n)
        for i in range(count):
            family = families[i % len(families)]
            vs, es = CENSUS_FAMILIES[family](n, rng)
            draw.append((f"{family} V={n} #{i}", oracle.Plain(vs, es)))
    bad = _selfcheck(g for _, g in draw)
    checks = []
    for _, g in draw:
        exact = {}
        if len(g.vertices) <= 4:
            exact = {k: [sorted(s, key=g.pos.__getitem__) for s in brute.lattice(g, k)]
                     for k in ("hereditary", "saturated_hereditary")}
        checks.append((census_expectation(g), exact))

    cli = []
    for n in CENSUS_CLI_SLICE:
        idx = next((i for i, (_, g) in enumerate(draw) if len(g.vertices) == n), None)
        if idx is None:
            continue
        label, g = draw[idx]
        txt, js = workdir / f"census{idx}.txt", workdir / f"census{idx}.json"
        txt.write_text(to_dsl(g.vertices, g.edges))
        js.write_text(to_json(g.vertices, g.edges))
        expected, exact = checks[idx]
        lib_check = _census_check(g, expected, exact)

        def json_check(proc, lib_check=lib_check):
            return _cli_exit0(proc) or lib_check(json.loads(proc.stdout))

        for path in (txt, js):
            cli.append(Cli(f"analyze {label} {path.suffix}", ["analyze", str(path)],
                           _census_text_check(expected)))
            cli.append(Cli(f"analyze --format json {label} {path.suffix}",
                           ["analyze", str(path), "--format", "json"], json_check))

    def build(pkg) -> Round:
        jobs = []
        for (label, g), (expected, exact) in zip(draw, checks):
            graph = pkg.Graph(g.vertices, g.edges)
            graph.require_valid()
            jobs.append(Job(f"classify {label}",
                            lambda graph=graph: pkg.report_to_dict(pkg.classify(graph)),
                            _census_check(g, expected, exact)))
        return Round(jobs, cli, [])

    return Spec(build, bad)


# -- sparse-large -------------------------------------------------------------------

SPARSE_FAMILIES = {
    "cycle": cycle,
    "primes": prime_cycles,
    "chain": lambda n, rng: chain(n, rng, loops=2),
    "strong": strong,
    "shuffled": tree_shuffled,
}
# Every graph gets the read, write and linear decision jobs; the decision
# jobs that are quadratic today (connectivity on strongly connected graphs,
# closure and Condition (L) on chains) run at the smaller size only, so a
# round stays a few seconds long.
SPARSE_SIZES = {"all": (1000, 5000, 10000), "decide": (1000,)}
SPARSE_SMOKE_SIZES = {"all": (40, 80, 120), "decide": (40,)}
PROBE_CYCLE = 1500  # longer than the default recursion limit


def _sparse_expectations(g: oracle.Plain, closure_seed, decide):
    sinks = oracle.vertex_classes(g)[0]
    expected = {"vertex_classes": oracle.vertex_classes(g), "periodicity": oracle.periodicity(g)}
    if not decide:
        return expected
    holds_l, cycle_edges = oracle.condition_L(g)
    return {
        **expected,
        "condition_L": (holds_l, cycle_edges),
        "condition_S": (bool(not sinks and holds_l),
                        "has_sinks" if sinks else ("ok" if holds_l else "fails_L")),
        "connectivity": oracle.connectivity(g),
        "closure": oracle.closure(g, closure_seed),
    }


def _dot_check(vs, es):
    def check(text) -> Optional[str]:
        return _compare("emit_dot", read_dot(text), (tuple(vs), tuple(es)))
    return check


def _cycles_probe_check(proc) -> Optional[str]:
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) != 1:
        return f"exit {proc.returncode}, {len(lines)} output lines; want exit 0 and one cycle"
    return None


def sparse_large(seed: int, smoke: bool, workdir: Path) -> Spec:
    rng = random.Random(f"sparse-large:{seed}")
    sizes = SPARSE_SMOKE_SIZES if smoke else SPARSE_SIZES
    graphs = []  # (label, plain, dsl text, json text, decide?, closure seed, expectations)
    for n in sizes["all"]:
        for family, make in SPARSE_FAMILIES.items():
            vs, es = make(n, rng)
            g = oracle.Plain(vs, es)
            tail = vs[len(vs) - max(1, len(vs) // 10):]
            seed_set = (rng.choice(tail),)
            decide = n in sizes["decide"]
            expected = _sparse_expectations(g, seed_set, decide)
            graphs.append((f"{family} V={n}", g, to_dsl(vs, es), to_json(vs, es),
                           decide, seed_set, expected))
    bad = _selfcheck([oracle.Plain(*make(4, rng)) for make in SPARSE_FAMILIES.values()])

    # Four 1000-vertex graphs (cycle, chain, strong, shuffled), so the median
    # CLI call falls among calls of like cost, and a 10000-vertex prime-cycle
    # graph.
    cli = []
    as_json = (3, 4)
    for idx in (0, 2, 3, 4, len(graphs) - 4):
        label, g, dsl, js, *_ = graphs[idx]
        path = workdir / f"sparse{idx}{'.json' if idx in as_json else '.txt'}"
        path.write_text(js if idx in as_json else dsl)
        dot_check = _dot_check(g.vertices, g.edges)
        cli.append(Cli(f"dot {label}", ["dot", str(path)],
                       lambda proc, c=dot_check: _cli_exit0(proc) or c(proc.stdout)))
    probe_vs, probe_es = cycle(PROBE_CYCLE, random.Random("probe"))
    probe = workdir / "probe_cycle.txt"
    probe.write_text(to_dsl(probe_vs, probe_es))
    probes = [Cli(f"cycles C_{PROBE_CYCLE}", ["cycles", str(probe)], _cycles_probe_check)]

    def build(pkg) -> Round:
        jobs = []
        for label, g, dsl, js, decide, seed_set, expected in graphs:
            graph = pkg.Graph(g.vertices, g.edges)
            graph.require_valid()
            vs, es = g.vertices, g.edges
            same = lambda out, vs=vs, es=es: _same_graph(out, vs, es)
            dot_check = _dot_check(vs, es)
            jobs += [
                Job(f"parse_dsl {label}", lambda t=dsl: pkg.parse_dsl(t), same),
                Job(f"parse_json {label}", lambda t=js: pkg.parse_json(t), same),
                Job(f"serialize_dsl {label}", lambda x=graph: pkg.serialize_dsl(x),
                    lambda out, vs=vs, es=es: _compare("serialize_dsl", read_dsl(out), (vs, es))),
                Job(f"serialize_json {label}", lambda x=graph: pkg.serialize_json(x),
                    lambda out, t=js: _compare("serialize_json", out, json.loads(t))),
                Job(f"emit_dot {label}", lambda x=graph: pkg.emit_dot(x), dot_check),
                Job(f"vertex_classes {label}", lambda x=graph: pkg.vertex_classes(x),
                    lambda out, e=expected: _compare("vertex_classes", tuple(out), e["vertex_classes"])),
                Job(f"periodicity {label}", lambda x=graph: pkg.periodicity(x),
                    lambda out, e=expected: _compare("periodicity", (out.periodic, out.minimal_period),
                                                     e["periodicity"])),
            ]
            if not decide:
                continue
            jobs += [
                Job(f"condition_L {label}", lambda x=graph: pkg.condition_L(x),
                    lambda out, e=expected: _compare(
                        "condition_L",
                        (out.holds, out.violating_cycle.edges if out.violating_cycle else None),
                        e["condition_L"])),
                Job(f"condition_S {label}", lambda x=graph: pkg.condition_S(x),
                    lambda out, e=expected: _compare("condition_S", tuple(out), e["condition_S"])),
                Job(f"connectivity {label}", lambda x=graph: pkg.connectivity(x),
                    lambda out, e=expected: _compare("connectivity", tuple(out), e["connectivity"])),
                Job(f"closure {label}",
                    lambda x=graph, s=seed_set: pkg.saturated_hereditary_closure(x, s),
                    lambda out, e=expected: _compare("closure", out, e["closure"])),
            ]
        return Round(jobs, cli, probes)

    return Spec(build, bad)


# -- path-search -------------------------------------------------------------------

def theta(rng):
    """Two parallel edges out and one edge back, plus a loop: long paths
    mostly repeat their last edge."""
    es = [("x1", "a", "b"), ("x2", "a", "b"), ("y", "b", "a"), ("z", "a", "a")]
    rng.shuffle(es)
    return ("a", "b"), es


def k2_loops(rng):
    vs, es = complete_with_loops(2)
    rng.shuffle(es)
    return vs, es


# (graph name, n, max_length) per witness job.  A search builds every path
# of length n+1 (2^(n+1) on R2, K2 and theta, 3^(n+1) on R3), so the jobs
# form blocks of similar cost: light ones, a block of 88 around the median
# job and 14 searches on R2 and K2 at n=15 around the 90th percentile.  The
# percentiles fall inside these blocks, not on the steep slope between jobs
# of unlike cost, where a small shift in rank moves the value a lot.
WITNESS_JOBS = ([("R2", n, n + 2) for n in range(3, 9)] + [("K2", n, n + 2) for n in range(3, 9)]
                + [("theta", n, n + 3) for n in range(3, 9)] + [("R3", n, n + 2) for n in range(1, 5)]
                + [("R2", 11, 13), ("K2", 11, 13), ("theta", 11, 14), ("R3", 6, 8)] * 22
                + [("R2", 13, 15), ("K2", 13, 15), ("theta", 13, 16), ("R3", 8, 10)]
                + [("R2", 15, 17), ("K2", 15, 17)] * 7 + [("theta", 15, 18), ("R3", 9, 11)]
                + [("R2", 16, 18), ("R2", 17, 19)])
POWER_JOBS = [("R2", 14), ("K2", 13), ("R3", 9), ("R3", 10), ("K2", 15), ("R2", 16)]
COUNT_JOBS = ([("C3", n) for n in (10000, 20000, 40000)] + [("R2", n) for n in (10000, 30000, 100000)]
              + [("R3", n) for n in (10000, 30000)] + [("C5", n) for n in (2000, 4000)]
              + [("K2", n) for n in (5000, 10000)])
CYCLE_JOBS = [6, 6, 7, 7, 8]
PROBE_POWER = 100000


def _witness_check(g: oracle.Plain, weights, n, eps, max_length, expected):
    threshold = max(weights.values()) - eps
    index = {e[0]: i for i, e in enumerate(g.edges)}

    def check(found) -> Optional[str]:
        if found is None or expected is None:
            return _compare("find_witness", found, expected)
        m, path = found
        edges = tuple(path.edges)
        idx = [index[eid] for eid in edges]
        if not n < m <= max_length or len(edges) != m:
            return f"witness length {m} outside ({n}, {max_length}]"
        if any(g.dst[a] != g.src[b] for a, b in zip(idx, idx[1:])):
            return "witness does not compose"
        if weights.get(g.edges[idx[0]][1], 0.0) <= threshold:
            return "witness source below the weight threshold"
        if edges[-1] in edges[:-1]:
            return "witness is returning"
        if any(edges[k:] == edges[:m - k] for k in range(1, m)):
            return "witness overlaps itself under a shift"
        return _compare("find_witness", (m, edges), expected)
    return check


def _power_check(g: oracle.Plain, expected_count, expected_digest):
    def check(out) -> Optional[str]:
        if tuple(out.vertices) != g.vertices:
            return "power graph changed the vertices"
        if len(out.edges) != expected_count:
            return f"power graph has {len(out.edges)} edges, oracle counts {expected_count}"
        h = hashlib.sha256()
        for e in out.edges:
            h.update(f"{e.id} {e.src} {e.dst}\n".encode())
        return _compare("power graph edge list digest", h.hexdigest(), expected_digest)
    return check


def _cycles_check(g: oracle.Plain, expected_count):
    index = {e[0]: i for i, e in enumerate(g.edges)}

    def check(cycles) -> Optional[str]:
        if len(cycles) != expected_count:
            return f"{len(cycles)} cycles, closed form {expected_count}"
        keys = []
        for c in cycles:
            idx = [index[eid] for eid in c.edges]
            srcs = [g.src[i] for i in idx]
            if len(set(srcs)) != len(srcs) or g.dst[idx[-1]] != srcs[0] or any(
                    g.dst[a] != g.src[b] for a, b in zip(idx, idx[1:])):
                return f"{c.edges} is not an elementary cycle"
            if srcs[0] != min(srcs):
                return f"{c.edges} is not based at its earliest vertex"
            keys.append((srcs[0], idx))
        if keys != sorted(keys):
            return "cycles not ordered by base, then lexicographically"
        return None
    return check


def _power_probe_check(proc) -> Optional[str]:
    if proc.returncode != 3 or "cap" not in proc.stderr:
        return f"exit {proc.returncode} ({proc.stderr.strip()[-120:]!r}); want exit 3 with a cap message"
    return None


def path_search(seed: int, smoke: bool, workdir: Path) -> Spec:
    rng = random.Random(f"path-search:{seed}")
    small = {
        "R2": rose(2), "R3": rose(3), "K2": k2_loops(rng), "theta": theta(rng),
        "C3": cycle(3, rng), "C5": cycle(5, rng),
    }
    plain = {name: oracle.Plain(*ge) for name, ge in small.items()}
    bad = _selfcheck(list(plain.values()))

    witness = []
    for name, n, max_length in (WITNESS_JOBS if not smoke else [j for j in WITNESS_JOBS if j[1] <= 6]):
        g = plain[name]
        # Only the first vertex clears the threshold, so the seed changes
        # the weights and the witness found, not the amount of search.
        weights = {v: round(rng.uniform(0.1, 1.0), 3) for v in g.vertices}
        weights[g.vertices[0]] = round(rng.uniform(2.0, 3.0), 3)
        eps = round(rng.uniform(0.1, 0.5), 3)
        expected = oracle.first_witness(g, weights, n, eps, max_length)
        witness.append((name, n, max_length, weights, eps, expected))
    power = []
    for name, n in (POWER_JOBS if not smoke else [(nm, min(n, 8)) for nm, n in POWER_JOBS]):
        power.append((name, n) + oracle.power_digest(plain[name], n))
    count = []
    for name, n in (COUNT_JOBS if not smoke else [(nm, 50) for nm, _ in COUNT_JOBS]):
        n += rng.randrange(100)
        closed = {"R2": oracle.rose_paths(2, n), "R3": oracle.rose_paths(3, n),
                  "C3": 3, "C5": 5}.get(name)
        count.append((name, n, closed if closed is not None else oracle.count_paths(plain[name], n)))
    cycle_jobs = CYCLE_JOBS if not smoke else [4, 5]
    complete = {k: oracle.Plain(*complete_with_loops(k)) for k in set(cycle_jobs)}

    files = {}
    for name in ("R2", "K2", "theta"):
        vs, es = small[name]
        files[name] = workdir / f"{name}.txt"
        files[name].write_text(to_dsl(vs, es))
    files["K2.json"] = workdir / "K2.json"
    files["K2.json"].write_text(to_json(*small["K2"]))
    files["K5"] = workdir / "K5.txt"
    files["K5"].write_text(to_dsl(*complete_with_loops(5)))

    def cli_witness(name, path, n, max_length, support):
        g = plain[name]
        weights = {v: 1.0 for v in support}
        expected = oracle.first_witness(g, weights, n, 0.5, max_length)

        def check(proc):
            err = _cli_exit0(proc)
            if err:
                return err
            out = json.loads(proc.stdout)
            return _compare("witness", (out["m"], tuple(out["path"])), expected)
        return Cli(f"witness {name}", ["witness", str(path), "--support", ",".join(support),
                                       "--epsilon", "0.5", "--n", str(n), "--max-length",
                                       str(max_length), "--format", "json"], check)

    def cli_power(name, path, n, fmt):
        count, _ = oracle.power_digest(plain[name], n)

        def check(proc):
            err = _cli_exit0(proc)
            if err:
                return err
            if fmt == "json":
                edges = json.loads(proc.stdout)["edges"]
            else:
                edges = read_dsl(proc.stdout)[1]
            return _compare(f"power {name} edge count", len(edges), count)
        return Cli(f"power {name} -n {n} {fmt}", ["power", str(path), "-n", str(n), "--format", fmt], check)

    def cli_cycles(fmt):
        expected = oracle.complete_cycles(5)

        def check(proc):
            err = _cli_exit0(proc)
            if err:
                return err
            got = len(json.loads(proc.stdout)) if fmt == "json" else len(proc.stdout.splitlines())
            return _compare("cycles K5", got, expected)
        return Cli(f"cycles K5 {fmt}", ["cycles", str(files["K5"]), "--format", fmt], check)

    cli = [
        cli_witness("R2", files["R2"], 11, 13, ["u"]),
        cli_witness("theta", files["theta"], 8, 11, ["a"]),
        cli_power("K2", files["K2.json"], 8, "text"),
        cli_power("R2", files["R2"], 10, "json"),
        cli_cycles("text"),
        cli_cycles("json"),
    ]
    probe_file = workdir / "probe_rose.txt"
    probe_file.write_text(to_dsl(*rose(2)))
    probes = [Cli(f"power R2 -n {PROBE_POWER} --cap-paths 10",
                  ["power", str(probe_file), "-n", str(PROBE_POWER), "--cap-paths", "10"],
                  _power_probe_check)]

    def build(pkg) -> Round:
        graphs = {}
        for name, (vs, es) in small.items():
            graphs[name] = pkg.Graph(vs, es)
            graphs[name].require_valid()
        for k, g in complete.items():
            graphs[f"K{k}+"] = pkg.Graph(g.vertices, g.edges)
            graphs[f"K{k}+"].require_valid()
        jobs = []
        for name, n, max_length, weights, eps, expected in witness:
            graph = graphs[name]
            req = pkg.WitnessRequest(a=pkg.VertexWeights(graph, weights), n=n,
                                    epsilon=eps, max_length=max_length)
            jobs.append(Job(f"find_witness {name} n={n}",
                            lambda x=graph, r=req: pkg.find_witness(x, r),
                            _witness_check(plain[name], weights, n, eps, max_length, expected)))
        for name, n, edges, digest in power:
            jobs.append(Job(f"power_graph {name} n={n}",
                            lambda x=graphs[name], n=n: pkg.power_graph(x, n),
                            _power_check(plain[name], edges, digest)))
        for name, n, expected in count:
            jobs.append(Job(f"count_paths {name} n={n}",
                            lambda x=graphs[name], n=n: pkg.count_paths(x, n),
                            lambda out, e=expected: None if out == e else "count_paths: wrong count"))
        for k in cycle_jobs:
            jobs.append(Job(f"simple_cycles K{k}+",
                            lambda x=graphs[f"K{k}+"]: pkg.simple_cycles(x),
                            _cycles_check(complete[k], oracle.complete_cycles(k))))
        return Round(jobs, cli, probes)

    return Spec(build, bad)


WORKLOADS = {"census": census, "sparse-large": sparse_large, "path-search": path_search}
