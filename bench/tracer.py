"""Per-layer tracing from outside the program.

:class:`Tracer` replaces the public functions of every ``graphcstar``
module, and the public methods of its classes, with timing wrappers.  A
function is wrapped under the module that defines it, in every namespace
that binds it (``verdicts.lattice`` and ``graphcstar.lattice`` are the same
``ideals.lattice`` span), so nested calls are attributed to their layer.
``Graph.require_valid`` is left alone: it runs on every accessor and only
reads a memoised result, whose real work is ``Graph.validate``.

Self time is a span's duration minus the durations of its direct children.
Every call updates the per-name totals; individual spans (with parent ids)
are kept only for the first few calls of each name within a job, and the
remaining calls of that name are folded into one aggregate record per job,
so memory stays bounded however often ``is_hereditary`` runs.

Run as a script, it traces one CLI invocation::

    python3 bench/tracer.py OUT.json analyze graph.txt --format json

which runs ``graphcstar.cli.main`` with the remaining arguments, writes the
totals and spans to OUT.json and exits with the CLI's exit code.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from pathlib import Path
from time import perf_counter

SKIP = {"graphs.Graph.require_valid"}
SPANS_PER_NAME = 3  # individual spans kept per (job, name); the rest aggregate


def graphcstar_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "graphcstar" or name.startswith("graphcstar."))]


class Tracer:
    def __init__(self):
        self.patches: list[tuple[object, str, object, object]] = []
        self.stack: list[list] = []  # [span id, name, child time]
        self.reset()

    def reset(self):
        """Start a new accounting period (one round)."""
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {}
        self.lattice_keys: set = set()
        self.spans: list[tuple] = []
        self._ids = 0
        self._per_job: dict[str, list] = {}  # name -> [recorded, aggregate id, calls, self_s]
        self._job = None
        self._origin = perf_counter()

    # -- patching --------------------------------------------------------

    def install(self):
        wrappers: dict[int, object] = {}

        def wrapped(owner, attr, fn):
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"
            if name in SKIP:
                return
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(name, fn)
            self.patches.append((owner, attr, fn, wrappers[id(fn)]))

        for module in graphcstar_modules():
            for attr, value in vars(module).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__.startswith("graphcstar."):
                    wrapped(module, attr, value)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for mattr, method in vars(value).items():
                        if not mattr.startswith("_") and inspect.isfunction(method):
                            wrapped(value, mattr, method)
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)
        self.patches.clear()

    def _wrap(self, name, fn):
        tracer = self
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [tracer._open(name), name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][2] += duration
                tracer._close(frame, start, end, duration)
            tracer._count(name, args, kwargs, result)
            return result

        return wrapper

    # -- accounting ------------------------------------------------------

    def _open(self, name):
        entry = self._per_job.get(name)
        if entry is None:
            self._ids += 1
            entry = self._per_job[name] = [0, self._ids, 0, 0.0]
        if entry[0] < SPANS_PER_NAME:
            entry[0] += 1
            self._ids += 1
            return self._ids
        return entry[1]

    def _close(self, frame, start, end, duration):
        span_id, name, child = frame
        self_time = duration - child
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += duration
        st[2] += self_time
        entry = self._per_job[name]
        parent = self.stack[-1][0] if self.stack else None
        if span_id == entry[1]:
            entry[2] += 1
            entry[3] += self_time
        else:
            self.spans.append((span_id, parent, self._job, name,
                               start - self._origin, end - self._origin, self_time, 1))

    def _count(self, name, args, kwargs, result):
        if name == "graphs.paths_of_length":
            self._add("graphs.paths_of_length.paths", len(result))
            if any(f[1] == "conditions.find_witness" for f in self.stack):
                self._add("conditions.find_witness.paths", len(result))
        elif name == "conditions.find_witness":
            self._add("conditions.find_witness.hits", result is not None)
        elif name == "ideals.lattice":
            kind = kwargs.get("kind", args[1] if len(args) > 1 else None)
            self.lattice_keys.add((id(args[0]), kind))

    def _add(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + int(amount)

    def job(self, label):
        return _Job(self, label)

    # -- output ----------------------------------------------------------

    def totals(self) -> dict:
        """Plain-data totals for this period; :func:`merge` adds them up."""
        counters = dict(self.counters)
        counters["ideals.lattice.distinct"] = len(self.lattice_keys)
        return {"stats": self.stats, "counters": counters}

    def span_records(self):
        for span_id, parent, job, name, start, end, self_time, calls in self.spans:
            yield {"id": span_id, "parent": parent, "job": job, "name": name,
                   "start_s": start, "end_s": end, "self_s": self_time, "calls": calls}


class _Job:
    """A top-level span around one benchmark operation."""

    def __init__(self, tracer, label):
        self.tracer = tracer
        self.label = label

    def __enter__(self):
        t = self.tracer
        t._job = self.label
        t._per_job = {}
        t._ids += 1
        self.frame = [t._ids, "job", 0.0]
        t.stack.append(self.frame)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        end = perf_counter()
        t.stack.pop()
        t.spans.append((self.frame[0], None, self.label, "job",
                        self.start - t._origin, end - t._origin, end - self.start - self.frame[2], 1))
        for name, (_, agg_id, calls, self_time) in t._per_job.items():
            if calls:  # the calls beyond SPANS_PER_NAME, folded into one record
                t.spans.append((agg_id, self.frame[0], self.label, name, None, None, self_time, calls))
        return False


def merge(into: dict, totals: dict) -> dict:
    """Add one period's totals into an accumulator of the same shape."""
    stats = into.setdefault("stats", {})
    for name, (calls, total, self_time) in totals["stats"].items():
        st = stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += calls
        st[1] += total
        st[2] += self_time
    counters = into.setdefault("counters", {})
    for key, value in totals["counters"].items():
        counters[key] = counters.get(key, 0) + value
    return into


def _trace_cli(out_path: str, argv: list[str]) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import graphcstar.cli

    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        with tracer.job("cli " + " ".join(argv[:1])):
            code = graphcstar.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"totals": tracer.totals(), "spans": list(tracer.span_records())}, fh)
    return code


if __name__ == "__main__":
    sys.exit(_trace_cli(sys.argv[1], sys.argv[2:]))
