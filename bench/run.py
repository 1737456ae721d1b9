"""Benchmark for graphcstar: three workloads, end-to-end and per-layer metrics.

Usage::

    python3 bench/run.py --workload census --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1             # every workload, one process each
    python3 bench/run.py --smoke              # tiny sizes, every check, seconds

Run from the repository root; the program is imported from ``src/``.  One
workload runs in one fresh process as a closed loop with a single client:
each job starts when the previous one has finished, and CLI subprocesses run
one at a time.  A run repeats whole rounds (the workload's jobs, its CLI
slice and its fault probes), each on freshly built graphs, and stops at the
round boundary nearest to ``--seconds``, once at least 100 jobs were timed.
Every time sample is scaled by the speed of fixed reference work timed
right beside it (see :func:`reference` and :func:`startup_reference`).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Metric names and
units are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 15
MIN_JOBS = 100
JOB_ORDER_SEED = "job order"
IMPORT_REPEATS = 3
REFERENCE_S = 0.0035  # the reference routine's time at the speed times are scaled to
STARTUP_S = 0.06  # a bare interpreter's start-up time at that speed

# Metric names and units are declared once, in BENCHMARK.json; this file
# only says how each one is computed.
DECLARED = ROOT / "BENCHMARK.json"


def declared_units(kind) -> dict:
    """name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in json.loads(DECLARED.read_text())[kind]}


def import_fresh():
    """Import graphcstar from scratch, dropping any loaded copy first."""
    for name in [n for n in sys.modules if n == "graphcstar" or n.startswith("graphcstar.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return importlib.import_module("graphcstar")


# The machine's speed swings by up to 1.8x within seconds, with load from
# outside the benchmark, and that swing would swamp the program's own
# changes.  So a fixed routine is timed right before and right after every
# timed job and set-up, and each sample is scaled to the speed at which the
# routine takes REFERENCE_S.  The routine does the kind of work the program
# does (subsets as frozensets of vertex names, set and dict lookups) but
# calls none of it, so a change to the program cannot change its time.
_REF_VERTICES = [f"r{i}" for i in range(10)]
_REF_SUCCESSORS = {v: {_REF_VERTICES[(i * 5 + 3) % 10], _REF_VERTICES[(i * 3 + 1) % 10]}
                   for i, v in enumerate(_REF_VERTICES)}


def reference() -> float:
    """Seconds one run of the reference routine takes, with the collector off."""
    gc.disable()
    try:
        start = perf_counter()
        closed = 0
        for mask in range(1 << len(_REF_VERTICES)):
            s = frozenset(v for i, v in enumerate(_REF_VERTICES) if mask >> i & 1)
            if all(_REF_SUCCESSORS[v] <= s for v in s):
                closed += 1
        return perf_counter() - start
    finally:
        gc.enable()


def scaled(elapsed, before, after, unit=REFERENCE_S):
    """``elapsed`` at the speed at which the reference takes ``unit``, from
    the reference's times just before and just after the sample."""
    return elapsed * unit / (before * after) ** 0.5


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def startup_reference(env) -> float:
    """Seconds a bare interpreter takes to start and exit.  A CLI call is
    mostly process and interpreter start-up, which the in-process routine
    tracks less well, so CLI times are scaled by this instead."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, capture_output=True,
                   timeout=60, check=True)
    return perf_counter() - start


class Runner:
    def __init__(self, spec, pkg, workdir):
        self.spec = spec
        self.pkg = pkg
        self.ops = None
        self.workdir = workdir
        self.env = cli_env()
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def _error(self, label, message):
        if len(self.errors) < 20:
            print(f"check failed: {label}: {message}", file=sys.stderr)
        self.errors.append(f"{label}: {message}")

    def _subprocess(self, argv):
        return subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=170)

    def _renew(self):
        """Fresh program objects for the next round, built untimed.

        ``Graph`` memoises its indexes, so reusing one round's graphs would
        let later rounds run warm.  Every round instead starts from newly
        built, validated graphs whose indexes are not built yet, and runs
        the jobs in the same order, so all rounds do the same work."""
        self.ops = None
        gc.collect()
        self.ops = self.spec.build(self.pkg)
        # A fixed shuffled order spreads each kind of job over the round, so
        # jobs of one kind do not all meet the same stretch of machine load.
        # It does not depend on the seed: memory left behind by one job can
        # change the peak of the next, so every run keeps the same order.
        random.Random(JOB_ORDER_SEED).shuffle(self.ops.jobs)
        gc.collect()

    def round(self, tracer=None, cli_spans=None):
        """One round; returns (job times, scaled job times, scaled CLI
        times, tracer totals of CLI runs).

        With a tracer, its wrappers are installed only after the round's
        graphs are built, so the tracer sees the jobs and nothing else."""
        self._renew()
        if tracer is None:
            return self._play(None, None)
        tracer.reset()
        tracer.install()
        try:
            return self._play(tracer, cli_spans)
        finally:
            tracer.uninstall()

    def _play(self, tracer, cli_spans):
        """CLI calls are spread evenly between the jobs, so their samples
        see the same machine conditions as the jobs do.  Consecutive jobs
        share the reference timed between them."""
        job_times, job_scaled, cli_times, cli_totals = [], [], [], []
        before = None  # the reference timed after the last job, if nothing ran since
        jobs, clis = self.ops.jobs, self.ops.cli
        cli_at = {}  # job index -> CLI calls made just before it
        for k in range(len(clis)):
            cli_at.setdefault((k + 1) * len(jobs) // (len(clis) + 1), []).append(k)
        for i, job in enumerate(jobs):
            for k in cli_at.get(i, ()):
                self._cli(k, tracer, cli_spans, cli_times, cli_totals)
                before = None
            if before is None:
                before = reference()
            self.attempted += 1
            try:
                with tracer.job(job.label) if tracer is not None else nullcontext():
                    start = perf_counter()
                    out = job.call()
                    elapsed = perf_counter() - start
            except Exception as exc:  # a failed operation is counted, not fatal
                self.failed += 1
                print(f"failed: {job.label}: {exc!r}", file=sys.stderr)
                before = None
                continue
            after = reference()
            job_times.append(elapsed)
            job_scaled.append(scaled(elapsed, before, after))
            before = after
            err = job.check(out)
            if err:
                self._error(job.label, err)
        for probe in self.ops.probes:
            self.attempted += 1
            proc = self._subprocess([sys.executable, "-m", "graphcstar.cli", *probe.args])
            if probe.check(proc):
                self.failed += 1
        return job_times, job_scaled, cli_times, cli_totals

    def _cli(self, i, tracer, cli_spans, cli_times, cli_totals):
        cli = self.ops.cli[i]
        self.attempted += 1
        if tracer is not None:
            out_path = self.workdir / f"cli-trace-{i}.json"
            argv = [sys.executable, str(BENCH / "tracer.py"), str(out_path), *cli.args]
        else:
            argv = [sys.executable, "-m", "graphcstar.cli", *cli.args]
        ref_before = startup_reference(self.env)
        start = perf_counter()
        proc = self._subprocess(argv)
        elapsed = perf_counter() - start
        cli_times.append(scaled(elapsed, ref_before, startup_reference(self.env), STARTUP_S))
        err = cli.check(proc)
        if err:
            self._error(cli.label, err)
        if tracer is not None:
            data = json.loads(out_path.read_text())
            cli_totals.append(data["totals"])
            if cli_spans is not None:
                cli_spans.extend(dict(s, job=cli.label) for s in data["spans"])


def measure_import(env) -> float:
    code = ("import time; t = time.perf_counter(); import graphcstar.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) >= 10 else max(values)


def per_layer_metrics(totals_per_round, import_times, overheads, ratios):
    """Per-layer metrics from the traced rounds: counts from the first round
    (every round is identical), times as the median over rounds."""
    out = {}
    first = totals_per_round[0]
    for name, unit in declared_units("per_layer").items():
        if name == "cli.import_s":
            value = statistics.median(import_times)
        elif name == "trace.overhead_s":
            value = statistics.median(overheads)
        elif name == "trace.overhead_ratio":
            value = statistics.median(ratios)
        elif name == "conditions.find_witness.hit_ratio":
            c = first["counters"]
            paths = c.get("conditions.find_witness.paths", 0)
            value = c.get("conditions.find_witness.hits", 0) / paths if paths else 0.0
        elif name == "ideals.lattice.useful_ratio":
            calls = first["stats"].get("ideals.lattice", [0])[0]
            value = first["counters"].get("ideals.lattice.distinct", 0) / calls if calls else 0.0
        elif name == "graphs.paths_of_length.paths":
            value = first["counters"].get(name, 0)
        elif name.endswith(".calls"):
            fn = name[:-len(".calls")]
            value = first["stats"].get(fn, [0])[0]
            others = {t["stats"].get(fn, [0])[0] for t in totals_per_round}
            if len(others) > 1:
                print(f"warning: {name} differs between traced rounds: {sorted(others)}",
                      file=sys.stderr)
        else:
            fn = name[:-len(".self_s")]
            value = statistics.median(t["stats"].get(fn, [0, 0.0, 0.0])[2] for t in totals_per_round)
        out[name] = {"value": value, "unit": unit}
    return out


def run_workload(args) -> dict:
    import tracer as tracing
    import workloads

    workdir = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        spec = workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir)
        for message in spec.oracle_bad[:20]:
            print(f"oracle self-check failed: {message}", file=sys.stderr)
        # Keep the benchmark's own inputs and expected values out of the
        # collector's scans, so they are not charged to the program's jobs.
        gc.collect()
        gc.freeze()

        setup_times = []
        for _ in range(1 if args.smoke else SETUP_REPEATS):
            # Free the previous set-up before the clock starts: releasing it
            # is the benchmark's housekeeping, not the program's set-up.
            pkg = ops = None
            gc.collect()
            before = reference()
            start = perf_counter()
            pkg = import_fresh()
            ops = spec.build(pkg)
            elapsed = perf_counter() - start
            setup_times.append(scaled(elapsed, before, reference()))
        ops = None
        if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"imported graphcstar from {pkg.__file__}, not from {SRC}")

        runner = Runner(spec, pkg, workdir)
        tracer = tracing.Tracer() if args.trace else None
        raw, jobs, clis, traced = [], [], [], []
        untraced_sums, traced_sums, import_times, spans = [], [], [], []
        start = perf_counter()
        rounds = 0
        while True:
            job_times, job_scaled, cli_times, _ = runner.round()
            raw += job_times
            jobs += job_scaled
            clis += cli_times
            untraced_sums.append(sum(job_times))
            if tracer is not None:
                cli_spans = []
                job_times, _, _, cli_totals = runner.round(tracer, cli_spans)
                traced_sums.append(sum(job_times))
                totals = tracing.merge({}, tracer.totals())
                for t in cli_totals:
                    tracing.merge(totals, t)
                traced.append(totals)
                if not spans:
                    spans = list(tracer.span_records()) + cli_spans
                import_times += [measure_import(runner.env) for _ in range(IMPORT_REPEATS)]
            rounds += 1
            elapsed = perf_counter() - start
            # Stop at the round boundary nearest to --seconds.
            if args.smoke or (elapsed + elapsed / rounds / 2 >= args.seconds and len(jobs) >= MIN_JOBS):
                break

        correct = not spec.oracle_bad and not runner.errors
        if tracer is None:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "jobs_per_s": len(jobs) / sum(jobs),
                "job_p50_s": statistics.median(jobs),
                "job_p90_s": p90(jobs),
                "cli_p50_s": statistics.median(clis),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {k: {"value": metrics[k], "unit": u}
                       for k, u in declared_units("end_to_end").items()}
        else:
            base = statistics.median(untraced_sums)
            overheads = [t - base for t in traced_sums]
            metrics = per_layer_metrics(traced, import_times, overheads,
                                        [o / base for o in overheads])
            out_dir = BENCH / "_out"
            out_dir.mkdir(exist_ok=True)
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
            with open(trace_path, "w", encoding="utf-8") as fh:
                for record in spans:
                    fh.write(json.dumps(record) + "\n")
        print(f"{args.workload}: seed {args.seed}, {rounds} round(s) in {perf_counter() - start:.1f} s, "
              f"{len(jobs)} timed jobs, "
              f"{len(clis)} CLI calls, {runner.attempted} operations, {runner.failed} failed, "
              f"correct={correct}; unscaled: jobs_per_s {len(raw) / sum(raw):.4g}, "
              f"job_p50_s {statistics.median(raw):.4g}, job_p90_s {p90(raw):.4g}",
              file=sys.stderr)
        return {"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
                "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def run_all(args) -> int:
    """Each declared workload in its own process, one after another."""
    worst = 0
    trace_modes = (0, 1) if args.smoke else (args.trace,)
    for name in [w["name"] for w in json.loads(DECLARED.read_text())["workloads"]]:
        for trace in trace_modes:
            argv = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} (trace {trace}): exit {proc.returncode}")
                worst = 1
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                worst = 1
            print(f"{name} (trace {trace}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"  {metric:48s} {m['value']:.6g} {m['unit']}")
    if args.smoke:
        print("smoke: " + ("ok" if not worst else "FAILED"))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="census, sparse-large, path-search, or all (default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one round, with every check")
    args = parser.parse_args(argv)

    if not (SRC / "graphcstar" / "__init__.py").is_file():
        print(f"error: no graphcstar package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
