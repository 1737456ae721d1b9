"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its time budget.

The lines are echoed in the terminal summary (see conftest) so they are
visible in a plain ``pytest -v`` run; ``pytest -s`` shows them inline.
"""

import json
import random
import time

import conftest
from conftest import (
    SINKFREE_L_FIXTURES,
    FIXTURE_GRAPHS,
    _iso_representatives,
    cycle_graph,
    fixture_path,
    lcm_graph,
    random_graph,
    random_no_sink_no_source,
    random_strongly_connected,
    source_loop,
    two_loops,
)

from graphcstar import (
    Graph,
    Path,
    PathVector,
    VertexWeights,
    WitnessRequest,
    classify,
    condition_L,
    condition_S,
    connectivity,
    find_witness,
    inner_product,
    is_disjoint_cycles,
    is_hereditary,
    is_nonreturning_vector,
    is_returning,
    is_saturated,
    lattice,
    left_action,
    operator_sandwich,
    parse_dsl,
    parse_json,
    paths_of_length,
    periodicity,
    power_graph,
    saturated_hereditary_closure,
    schweizer_check,
    serialize_dsl,
    serialize_json,
    simplicity_verdict,
    sup_norm,
)
from graphcstar.cli import main as cli_main


def _report(num, name, failures, detail, elapsed, budget):
    ok = not failures
    line = (f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} "
            f"({detail}; {elapsed:.2f}s of {budget:.0f}s budget)")
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, f"criterion {num} failures: {failures[:10]}"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.2f}s"


def test_criterion_01_lcm_periodicity():
    start = time.perf_counter()
    failures = []
    g = lcm_graph()
    s = periodicity(g)
    d = periodicity(g, method="direct-power")
    if not (s.periodic and s.minimal_period == 12):
        failures.append(("structural", s))
    if not (d.periodic and d.minimal_period == 12):
        failures.append(("direct-power", d))
    p12 = power_graph(g, 12)
    if len(p12.edges) != 9 or any(e.src != e.dst for e in p12.edges):
        failures.append(("power", len(p12.edges)))
    _report(1, "disjoint 2,3,4 cycles: period 12, 12th power is 9 loops",
            failures, "both methods plus power graph", time.perf_counter() - start, 1.0)


def test_criterion_02_single_cycles():
    start = time.perf_counter()
    failures = []
    for n in range(1, 9):
        g = cycle_graph(n)
        per = periodicity(g)
        if not (per.periodic and per.minimal_period == n):
            failures.append((n, "period", per))
        if condition_L(g).holds:
            failures.append((n, "condition_L"))
        if not lattice(g, "saturated_hereditary").is_trivial():
            failures.append((n, "lattice"))
        if simplicity_verdict(g)[0] != "not_simple":
            failures.append((n, "verdict"))
    _report(2, "cycles C_n, n=1..8: periodic n, not (L), trivial lattice, not simple",
            failures, "8 cycles", time.perf_counter() - start, 1.0)


def test_criterion_03_two_loops_reproduction():
    start = time.perf_counter()
    failures = []
    rep = classify(two_loops())
    checks = {
        "nonperiodic": rep.flags.nonperiodic,
        "fails_L": not rep.flags.condition_L,
        "witness_cycle": rep.violating_cycle is not None and rep.violating_cycle.edges == ("c",),
        "lattice": [sorted(s) for s in rep.saturated_hereditary_lattice.elements]
                   == [[], ["w"], ["u", "w"]],
        "schweizer_holds": rep.schweizer.holds,
        "predicted_not_simple": rep.schweizer_predicted == "not_simple",
        "verdict_not_simple": rep.simplicity == "not_simple",
        "flagged": "nonperiodic_but_not_L" in rep.counterexample_flags,
    }
    failures = [k for k, v in checks.items() if not v]
    _report(3, "loop-edge-loop graph: full report reproduction",
            failures, f"{len(checks)} checks", time.perf_counter() - start, 1.0)


def test_criterion_04_source_loop_reproduction():
    start = time.perf_counter()
    rep = classify(source_loop())
    checks = {
        "nonperiodic": rep.flags.nonperiodic,
        "trivial_sat_her": rep.flags.trivial_saturated_hereditary,
        "fails_L": not rep.flags.condition_L,
        "verdict_not_simple": rep.simplicity == "not_simple",
        "schweizer_fails_on_source": rep.schweizer.failed == ("has_sources",),
        "flagged": "nonperiodic_trivial_invariant_not_simple" in rep.counterexample_flags,
    }
    failures = [k for k, v in checks.items() if not v]
    _report(4, "source feeding a loop: full report reproduction",
            failures, f"{len(checks)} checks", time.perf_counter() - start, 1.0)


def test_criterion_05_periodicity_methods_agree():
    start = time.perf_counter()
    rng = random.Random(1005)
    failures = []
    samples = 500
    periodic_count = 0
    for i in range(samples):
        g = random_no_sink_no_source(rng, max_vertices=5, max_edges=8)
        s = periodicity(g)
        d = periodicity(g, method="direct-power")
        if d.searched_bound is None or d.searched_bound > 15:
            failures.append((i, "bound", d.searched_bound))
        if s.periodic != d.periodic or s.minimal_period != d.minimal_period:
            failures.append((i, "disagree", s, d))
        if s.periodic != is_disjoint_cycles(g):
            failures.append((i, "structural criterion", s.periodic))
        periodic_count += s.periodic
    if not 0 < periodic_count < samples:
        failures.append(("coverage", periodic_count))
    _report(5, "periodic iff disjoint cycles; structural = direct-power, bound <= 15",
            failures, f"{samples} random graphs, {periodic_count} periodic",
            time.perf_counter() - start, 60.0)


def test_criterion_06_strongly_connected_dichotomy():
    start = time.perf_counter()
    rng = random.Random(1006)
    failures = []
    samples = 200
    cycles = 0
    for i in range(samples):
        g = random_strongly_connected(rng)
        if not connectivity(g).strongly_connected:
            failures.append((i, "generator"))
            continue
        nonper = not periodicity(g).periodic
        l_holds = condition_L(g).holds
        single_cycle = is_disjoint_cycles(g)  # connected, so: one cycle
        if not (nonper == l_holds == (not single_cycle)):
            failures.append((i, nonper, l_holds, single_cycle))
        cycles += single_cycle
    if not 0 < cycles < samples:
        failures.append(("coverage", cycles))
    _report(6, "strongly connected: nonperiodic iff (L) iff not a single cycle",
            failures, f"{samples} graphs, {cycles} bare cycles",
            time.perf_counter() - start, 60.0)


def test_criterion_07_schweizer_consistency():
    start = time.perf_counter()
    rng = random.Random(1007)
    failures = []
    samples = 500
    simple_count = 0
    for i in range(samples):
        g = random_no_sink_no_source(rng, max_vertices=6, max_edges=10)
        status, predicted = schweizer_check(g)  # raises on internal mismatch
        if not status.holds:
            failures.append((i, "hypotheses", status))
            continue
        actual, _ = simplicity_verdict(g)
        if predicted != actual:
            failures.append((i, predicted, actual))
        simple_count += actual == "simple"
    if not 0 < simple_count < samples:
        failures.append(("coverage", simple_count))
    _report(7, "no sources/sinks: dichotomy prediction matches the verdict",
            failures, f"{samples} graphs, {simple_count} simple",
            time.perf_counter() - start, 60.0)


def test_criterion_08_nonreturning_paths_are_nonreturning_vectors():
    start = time.perf_counter()
    failures = []
    slots, reps = _iso_representatives(4, 6)
    vertices = tuple(f"v{i}" for i in range(4))
    checked = 0
    for combo in reps:
        edges = tuple((f"e{i}", vertices[slots[s][0]], vertices[slots[s][1]])
                      for i, s in enumerate(combo))
        g = Graph(vertices, edges)
        by_len: dict[int, list[tuple[str, ...]]] = {}
        for m in range(1, 7):
            tuples = [p.edges for p in paths_of_length(g, m)]
            if not tuples:
                break
            by_len[m] = tuples
        # every 97th shorter path gets a direct sandwich evaluation even when
        # the algebraic prefix test already rules it out
        samples = {k: tk[::97] for k, tk in by_len.items()}
        # positions of each path in its length's list, in ascending order
        positions: dict[int, dict[tuple[str, ...], list[int]]] = {}
        for k, tk in by_len.items():
            index = positions[k] = {}
            for pos, t in enumerate(tk):
                index.setdefault(t, []).append(pos)
        for m in list(by_len):
            for pt in by_len[m]:
                if pt[-1] in pt[:-1]:
                    continue  # returning paths are out of scope
                alpha = Path(g, pt)
                checked += 1
                if not is_nonreturning_vector(alpha):
                    failures.append((combo, pt, "fast check"))
                    continue
                for k in range(1, m):
                    tk = by_len[k]
                    pref = pt[:k]
                    for pos in positions[k].get(pref, ()):
                        if operator_sandwich(alpha, Path(g, tk[pos])) is not None:
                            failures.append((combo, pt, k, "oracle hit"))
                    for bt in samples[k]:
                        if bt != pref and operator_sandwich(alpha, Path(g, bt)) is not None:
                            failures.append((combo, pt, bt, "sampled hit"))
    _report(8, "all graphs <=4 vertices <=6 edges: nonreturning paths pass the sandwich oracle",
            failures, f"{len(reps)} graphs up to iso, {checked} nonreturning paths",
            time.perf_counter() - start, 120.0)


def test_criterion_09_witness_contract():
    start = time.perf_counter()
    failures = []
    searches = 0
    for name, g in SINKFREE_L_FIXTURES.items():
        if condition_S(g) != (True, "ok"):
            failures.append((name, "fixture must be sink-free and satisfy (L)"))
            continue
        for v in g.vertices:
            a = VertexWeights.indicator(g, [v])
            epsilon = 0.5
            for n in range(0, 4):
                max_length = n + 2 * len(g.edges) + 2
                found = find_witness(
                    g, WitnessRequest(a=a, n=n, epsilon=epsilon, max_length=max_length))
                searches += 1
                if found is None:
                    failures.append((name, v, n, "no witness"))
                    continue
                m, path = found
                if not (n < m <= max_length):
                    failures.append((name, v, n, "length bound", m))
                if path.source != v or not a(path.source) > a.sup_norm - epsilon:
                    failures.append((name, v, n, "source", path.source))
                if is_returning(path):
                    failures.append((name, v, n, "returning", path.edges))
                if not is_nonreturning_vector(path):
                    failures.append((name, v, n, "vector", path.edges))
                zeta = PathVector.delta(path)
                attained = sup_norm(inner_product(zeta, left_action(a, zeta)))
                if not attained > a.sup_norm - epsilon:
                    failures.append((name, v, n, "attained", attained))
    _report(9, "witness search succeeds with all postconditions on sink-free (L) fixtures",
            failures, f"{searches} searches over {len(SINKFREE_L_FIXTURES)} fixtures",
            time.perf_counter() - start, 10.0)


def test_criterion_10_closure_laws_and_fixed_points():
    start = time.perf_counter()
    rng = random.Random(1010)
    failures = []
    pairs = 1000
    for i in range(pairs):
        g = random_graph(rng, max_vertices=10, max_edges=14)
        s = frozenset(v for v in g.vertices if rng.random() < 0.35)
        t = s | frozenset(v for v in g.vertices if rng.random() < 0.25)
        cs = saturated_hereditary_closure(g, s)
        ct = saturated_hereditary_closure(g, t)
        if not (s <= cs and cs <= ct):
            failures.append((i, "extensive/monotone"))
        if saturated_hereditary_closure(g, cs) != cs:
            failures.append((i, "idempotent"))
        if not (is_hereditary(g, cs) and is_saturated(g, cs)):
            failures.append((i, "not closed"))
    graphs_checked = 0
    for i in range(25):
        g = random_graph(rng, max_vertices=10, max_edges=14)
        elements = set(lattice(g, "saturated_hereditary").elements)
        n = len(g.vertices)
        fixed = set()
        for mask in range(1 << n):
            s = frozenset(v for j, v in enumerate(g.vertices) if mask >> j & 1)
            if saturated_hereditary_closure(g, s) == s:
                fixed.add(s)
        if fixed != elements:
            failures.append((i, "fixed points", len(fixed), len(elements)))
        graphs_checked += 1
    _report(10, "closure is extensive/monotone/idempotent; fixed points = lattice",
            failures, f"{pairs} pairs, {graphs_checked} full lattices",
            time.perf_counter() - start, 60.0)


def test_criterion_11_parser_round_trip_and_diagnostics(tmp_path, capsys):
    start = time.perf_counter()
    rng = random.Random(1011)
    failures = []
    rounds = 1000
    for i in range(rounds):
        g = random_graph(rng, max_vertices=8, max_edges=12)
        if parse_dsl(serialize_dsl(g)) != g:
            failures.append((i, "dsl"))
        if parse_json(json.dumps(serialize_json(g))) != g:
            failures.append((i, "json"))
    for name, (expected, filename) in FIXTURE_GRAPHS.items():
        text = fixture_path(name).read_text()
        got = parse_json(text) if filename.endswith(".json") else parse_dsl(text)
        if got != expected:
            failures.append((name, "fixture"))

    malformed = [
        ("bad1.txt", "vertx u\n", 1),                        # unknown directive
        ("bad2.txt", "vertex u\nedge e u\n", 1),             # wrong arity
        ("bad3.txt", "vertex u\nvertex u\n", 2),             # duplicate vertex
        ("bad4.txt", "vertex u\nedge e u zz\n", 2),          # dangling endpoint
        ("bad5.json", '{"vertices": }', 1),                  # invalid JSON
        ("bad6.json", '{"vertices": ["u"], "edges": [{}]}', 1),   # schema
        ("bad7.json", '{"vertices": ["u", "u"], "edges": []}', 2),  # duplicate
    ]
    for filename, text, expected_code in malformed:
        f = tmp_path / filename
        f.write_text(text)
        code = cli_main(["analyze", str(f)])
        err = capsys.readouterr().err
        if code != expected_code:
            failures.append((filename, "exit", code))
        if "line" not in err and "edges[" not in err and "vertices" not in err and "$" not in err:
            failures.append((filename, "diagnostic", err))
    _report(11, "round trips, fixture files, located diagnostics with exit codes",
            failures, f"{rounds} round trips, {len(malformed)} malformed inputs",
            time.perf_counter() - start, 10.0)
