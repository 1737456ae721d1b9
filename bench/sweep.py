"""Doubling size sweep: time per layer and its growth exponent.

    python3 bench/sweep.py

For each layer, one public function runs on inputs whose size doubles
until a single call takes longer than ``LIMIT_S`` seconds or the largest
size is reached.  Each time is the best of three calls (one call once a call
takes over a second).  The growth exponent between consecutive sizes is
log2(t(2n) / t(n)): about 1 for linear work, 2 for quadratic; for sizes that
are exponents (vertex count of a lattice, path length) it grows with n.
"""

from __future__ import annotations

import math
import random
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
LIMIT_S = 2.0  # a layer stops growing once one call takes longer (seconds)
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402
import graphcstar as pkg  # noqa: E402


def _graph(vs_es):
    return pkg.Graph(*vs_es)


def layers():
    rng = random.Random(0)
    shuffled = lambda n: _graph(workloads.tree_shuffled(n, rng))
    return [
        # (layer, size name, sizes, make input, call)
        ("io_formats.parse_dsl", "V", [1000 << i for i in range(6)],
         lambda n: workloads.to_dsl(*workloads.tree_shuffled(n, rng)), pkg.parse_dsl),
        ("io_formats.parse_json", "V", [1000 << i for i in range(6)],
         lambda n: workloads.to_json(*workloads.tree_shuffled(n, rng)), pkg.parse_json),
        ("io_formats.serialize_dsl", "V", [1000 << i for i in range(6)], shuffled, pkg.serialize_dsl),
        ("io_formats.emit_dot", "V", [1000 << i for i in range(6)], shuffled, pkg.emit_dot),
        ("graphs.Graph.validate", "V", [1000 << i for i in range(6)], shuffled,
         lambda g: g.validate()),
        ("graphs.connectivity (cycle)", "V", [125 << i for i in range(6)],
         lambda n: _graph(workloads.cycle(n, rng)), pkg.connectivity),
        ("conditions.condition_L (chain)", "V", [500 << i for i in range(6)],
         lambda n: _graph(workloads.chain(n, rng, loops=2)), pkg.condition_L),
        ("conditions.periodicity (prime cycles)", "V", [1000 << i for i in range(6)],
         lambda n: _graph(workloads.prime_cycles(n, rng)), pkg.periodicity),
        ("ideals.saturated_hereditary_closure (chain)", "V", [250 << i for i in range(6)],
         lambda n: _graph(workloads.chain(n, rng, loops=2)),
         lambda g: pkg.saturated_hereditary_closure(g, [g.edges[-1].src])),
        ("ideals.lattice (random, E=3V)", "V", [4, 8, 16],
         lambda n: _graph(workloads.random_multigraph(n, rng)),
         lambda g: pkg.lattice(g, "saturated_hereditary")),
        ("verdicts.classify (cycle)", "V", [4, 8, 16],
         lambda n: _graph(workloads.cycle(n, rng)), pkg.classify),
        ("conditions.find_witness (R_2)", "path length", [4, 8, 16],
         lambda m: (_graph(workloads.rose(2)), m),
         lambda a: pkg.find_witness(a[0], pkg.WitnessRequest(
             pkg.VertexWeights.indicator(a[0], ["u"]), a[1] - 1, 0.5, a[1]))),
        ("graphs.power_graph (R_2)", "power", [4, 8, 16],
         lambda n: (_graph(workloads.rose(2)), n), lambda a: pkg.power_graph(*a)),
        ("graphs.count_paths (C_3)", "n", [5000 << i for i in range(5)],
         lambda n: (_graph(workloads.cycle(3, rng)), n), lambda a: pkg.count_paths(*a)),
        ("graphs.simple_cycles (complete with loops)", "k", [2, 4, 8],
         lambda k: _graph(workloads.complete_with_loops(k)), pkg.simple_cycles),
    ]


def best_time(call, arg):
    times = []
    for _ in range(3):
        start = perf_counter()
        call(arg)
        times.append(perf_counter() - start)
        if times[-1] > 1.0:
            break
    return min(times)


def main():
    print("| layer | size | sizes | seconds | growth exponents |")
    print("|---|---|---|---|---|")
    for name, size_name, sizes, make, call in layers():
        done = []
        for n in sizes:
            t = best_time(call, make(n))
            done.append((n, t))
            if t > LIMIT_S:
                break
        exps = [math.log2(t2 / t1) / math.log2(n2 / n1)
                for (n1, t1), (n2, t2) in zip(done, done[1:])]
        print(f"| {name} | {size_name} | {', '.join(str(n) for n, _ in done)} | "
              f"{', '.join(f'{t:.3g}' for _, t in done)} | "
              f"{', '.join(f'{e:.2f}' for e in exps)} |", flush=True)


if __name__ == "__main__":
    main()
