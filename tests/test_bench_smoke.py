"""The benchmark harness at its smoke sizes, so it cannot rot.

Runs ``python3 bench/run.py --smoke`` (every workload, traced and untraced,
one round at tiny sizes, with all correctness checks and fault probes) and
asserts it succeeds with no failed operation.  No timing is checked.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke():
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert "smoke: ok" in lines, proc.stdout
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    for name in (w["name"] for w in declared):
        for trace in (0, 1):
            head = f"{name} (trace {trace}): "
            line = next((l for l in lines if l.startswith(head)), None)
            assert line is not None, proc.stdout
            assert "correct=True" in line and " failed=0" in line, line
