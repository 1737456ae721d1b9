"""Regenerate ``tests/fixtures/cli_golden.json``, the stdout that
``test_stdout_matches_golden`` pins.

A key is a command line with a fixture's file name in place of its path,
``<command> <file> <flags...>``; the keys are every entry of ``COMMANDS`` on
every ``g_*`` fixture file.  Each command runs in process through
``graphcstar.cli.main`` with no cap set in the environment, and must exit 0
with nothing on stderr.  Run from the repository root::

    PYTHONPATH=src python tests/regen_golden.py

It prints each key it adds, changes or drops; a change that runs it lists
those keys in CHANGES.md, with the reason.
"""

import contextlib
import io
import json
import os
from pathlib import Path

from graphcstar.cli import ENV_CAP_PATHS, ENV_CAP_VERTICES, main

FIXTURES_DIR = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES_DIR / "cli_golden.json"

COMMANDS = (
    "analyze",
    "analyze --format json",
    "classify",
    "classify --format json",
    "cycles",
    "cycles --format json",
    "dot",
    "dot --annotate",
    "ideals --kind hereditary",
    "ideals --kind hereditary --format json",
    "ideals --kind satHer",
    "ideals --kind satHer --format json",
    "power -n 2",
    "power -n 3",
    "power -n 3 --format json",
)


def stdout_of(key: str) -> str:
    command, name, *flags = key.split()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(FIXTURES_DIR / name), *flags])
    if code != 0 or err.getvalue():
        raise SystemExit(f"{key}: exit {code}, stderr {err.getvalue()!r}")
    return out.getvalue()


def regenerate() -> None:
    os.environ.pop(ENV_CAP_VERTICES, None)
    os.environ.pop(ENV_CAP_PATHS, None)
    names = sorted(p.name for p in FIXTURES_DIR.glob("g_*") if p.suffix in (".txt", ".json"))
    keys = sorted(" ".join([c.split()[0], name, *c.split()[1:]]) for c in COMMANDS for name in names)
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    new = {key: stdout_of(key) for key in keys}
    for key in keys:
        if key not in old:
            print(f"added: {key}")
        elif old[key] != new[key]:
            print(f"changed: {key}")
    for key in sorted(set(old) - set(new)):
        print(f"dropped: {key}")
    GOLDEN.write_text(json.dumps(new, indent=1) + "\n")


if __name__ == "__main__":
    regenerate()
