"""Regenerate ``tests/fixtures/parity.json``, the byte-parity corpus that
``test_cli_output_matches_parity_hashes`` checks.

The corpus is a deterministic list of command lines: every subcommand, in
text and JSON, over the ``g_*`` fixtures and over seeded graphs of 1-19
vertices written as DSL and JSON files, plus files that fail to load (a
syntax error, a schema error, an undeclared endpoint, bytes that are not
UTF-8, an empty graph, a missing file) and caps set low or negative.  Each
command line runs in process through ``graphcstar.cli.main`` with no cap set
in the environment (``outcome``), and the fixture stores one sha256 per
command line of its stdout, its stderr and its exit code (``digest``).  Paths
are written as ``<fixtures>`` and ``<tmp>`` in the keys and in stderr, so the
hashes do not depend on where the files live.  Run from the repository root::

    PYTHONPATH=src python tests/regen_parity.py

It prints each key it adds, changes or drops; a change that runs it lists
those keys in CHANGES.md, with the reason.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from pathlib import Path

from graphcstar.cli import ENV_CAP_PATHS, ENV_CAP_VERTICES, main

FIXTURES_DIR = Path(__file__).parent / "fixtures"
PARITY = FIXTURES_DIR / "parity.json"

# Run on every loadable graph.
COMMANDS = (
    "analyze",
    "analyze --format json",
    "classify",
    "classify --format json",
    "ideals --kind hereditary",
    "ideals --kind satHer --format json",
    "dot",
    "dot --annotate",
    "cycles --cap-paths 50",
    "cycles --format json --cap-paths 50",
    "power -n 2 --cap-paths 400",
    "power -n 3 --format json --cap-paths 400",
    "witness --support {v} --epsilon 0.5 --n 1 --max-length 5",
    "witness --weights {v}=2,{w}=1 --epsilon 0.25 --n 2 --max-length 5 --format json",
)

# Run on the fixtures only: caps set low, negative, or not at all.
CAP_COMMANDS = (
    "analyze --cap-vertices 1",
    "classify --format json --cap-vertices 0",
    "ideals --kind satHer --cap-vertices 1 --format json",
    "dot --annotate --cap-vertices 1",
    "ideals --kind hereditary --cap-vertices -1",
    "cycles",
    "cycles --cap-paths 0",
    "cycles --cap-paths -1",
    "power -n 2",
    "power -n 4 --cap-paths 3",
    "power -n 0",
    "witness --support {v} --epsilon 0.5 --max-length 0",
    "witness --weights {v}=nan --epsilon 0.5 --max-length 3",
    "witness --support nowhere --epsilon 0.5 --max-length 3",
)

# Files that do not load, or load as a graph no verdict accepts.
BAD_FILES = {
    "syntax.txt": b"vertex u\nedge a u\n",
    "schema.json": b'{"vertices": ["u"], "edges": [{"id": "a", "src": "u"}]}',
    "dangling.txt": b"vertex u\nedge a u w\n",
    "latin1.txt": b"vertex \xe9\n",
    "empty.txt": b"# no vertices\n",
}
BAD_COMMANDS = ("analyze", "classify --format json", "ideals", "dot", "cycles",
                "power -n 2", "witness --support u --epsilon 0.5 --max-length 2")


def _seeded_graphs():
    """``(name, vertices, edges)`` of the seeded graphs: for each size, a
    random one, a cycle with chords and a chain into two loops, shapes that
    mix acyclic, exitless and branching components."""
    rng = random.Random(2212)
    for n in range(1, 20):
        vs = [f"v{i}" for i in range(n)]
        edges = [(rng.choice(vs), rng.choice(vs)) for _ in range(rng.randint(0, 2 * n))]
        yield f"r{n:02d}", vs, edges
        edges = [(vs[i], vs[(i + 1) % n]) for i in range(n)]
        edges += [(rng.choice(vs), rng.choice(vs)) for _ in range(rng.randint(0, 2))]
        yield f"c{n:02d}", vs, edges
        edges = [(vs[i], vs[i + 1]) for i in range(n - 1)] + [(vs[-1], vs[-1])] * 2
        edges += [(rng.choice(vs), rng.choice(vs)) for _ in range(rng.randint(0, 1))]
        yield f"h{n:02d}", vs, edges


def write_files(tmp: Path) -> list[tuple[str, list[str]]]:
    """Write the seeded and bad graph files into ``tmp``, and return ``(file,
    vertices)`` for every graph the corpus runs its commands on, the file
    written with the ``<fixtures>`` or ``<tmp>`` placeholder."""
    graphs = []
    for path in sorted(FIXTURES_DIR.glob("g_*")):
        if path.suffix in (".txt", ".json"):
            text = path.read_text()
            vs = json.loads(text)["vertices"] if path.suffix == ".json" else [
                line.split()[1] for line in text.splitlines() if line.startswith("vertex ")]
            graphs.append((f"<fixtures>/{path.name}", vs))
    for i, (name, vs, edges) in enumerate(_seeded_graphs()):
        ids = [f"e{j}" for j in range(len(edges))]
        if i % 2:
            doc = {"vertices": vs, "edges": [
                {"id": e, "src": s, "dst": d} for e, (s, d) in zip(ids, edges)]}
            name += ".json"
            (tmp / name).write_text(json.dumps(doc))
        else:
            name += ".txt"
            (tmp / name).write_text("".join(
                [f"vertex {v}\n" for v in vs] + [f"edge {e} {s} {d}\n" for e, (s, d) in zip(ids, edges)]))
        graphs.append((f"<tmp>/{name}", vs))
    for name, data in BAD_FILES.items():
        (tmp / name).write_bytes(data)
    return graphs


def corpus(graphs: list[tuple[str, list[str]]]) -> list[str]:
    """The command lines, in a fixed order, with ``<fixtures>`` and ``<tmp>``
    in place of the directories."""
    keys = []
    for file, vs in graphs:
        commands = COMMANDS + CAP_COMMANDS if file.startswith("<fixtures>") else COMMANDS
        for command in commands:
            name, *flags = command.format(v=vs[0], w=vs[-1]).split()
            keys.append(" ".join([name, file, *flags]))
    keys += [" ".join([c.split()[0], f"<tmp>/{name}", *c.split()[1:]])
             for name in [*BAD_FILES, "missing.txt"] for c in BAD_COMMANDS]
    return keys


def outcome(key: str, tmp: Path) -> tuple[str, str, int]:
    """The (stdout, stderr, exit code) of one command line, with the
    directories in stderr written back as their placeholders."""
    dirs = {"<fixtures>": str(FIXTURES_DIR), "<tmp>": str(tmp)}
    argv = key.split()
    argv[1] = dirs[argv[1].split("/")[0]] + argv[1][argv[1].index("/"):]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the command line
            code = exc.code
    stderr = err.getvalue()
    for placeholder, path in dirs.items():
        stderr = stderr.replace(path, placeholder)
    return out.getvalue(), stderr, code


def digest(result: tuple[str, str, int]) -> str:
    """sha256 of one command line's (stdout, stderr, exit code)."""
    return hashlib.sha256(json.dumps(list(result)).encode()).hexdigest()


def outcomes(tmp: Path) -> dict[str, tuple[str, str, int]]:
    """Every corpus key with its outcome, the files written into ``tmp``."""
    return {key: outcome(key, tmp) for key in corpus(write_files(tmp))}


def hashes(tmp: Path) -> dict[str, str]:
    """Every corpus key with its digest, the files written into ``tmp``."""
    return {key: digest(result) for key, result in outcomes(tmp).items()}


def regenerate() -> None:
    os.environ.pop(ENV_CAP_VERTICES, None)
    os.environ.pop(ENV_CAP_PATHS, None)
    with tempfile.TemporaryDirectory() as tmp:
        new = hashes(Path(tmp))
    old = json.loads(PARITY.read_text()) if PARITY.exists() else {}
    for key in new:
        if key not in old:
            print(f"added: {key}")
        elif old[key] != new[key]:
            print(f"changed: {key}")
    for key in sorted(set(old) - set(new)):
        print(f"dropped: {key}")
    PARITY.write_text(json.dumps(new, indent=1) + "\n")


if __name__ == "__main__":
    regenerate()
