"""Command line interface.

Subcommands: analyze, power, cycles, ideals, witness, classify, dot.  Input
files ending in ``.json`` are read in the JSON form, everything else as the
line DSL, both as UTF-8 with an optional byte-order mark.  Each command
only computes and returns its output text (witness also returns its exit
code); :func:`main` loads the graph, maps errors to exit codes, and writes
the text.

Start-up is most of a call's time, so each subcommand imports only the code
it runs: every one loads ``graphs`` and ``io_formats`` (and ``json`` only
for JSON input or output); ``power`` and ``cycles`` import ``paths`` when
they run, and ``analyze``, ``classify``, ``ideals``, ``witness`` and
``dot --annotate`` the verdict modules they need.  No other subcommand
loads ``paths``, only ``witness`` loads ``correspondence``, and none loads
``dataclasses`` or ``inspect``; the text report is rendered from
:func:`~graphcstar.verdicts.report_to_dict`, as the JSON one is.

Exit codes: 0 success; 1 parse or schema error (JSON nested too deeply or
holding an integer of more than 4,300 digits included), or an input file that
is missing or not UTF-8; 2 semantic graph error, invalid arguments, or an
empty graph where a verdict is asked for;
3 a bound or cap was exhausted (including an unsuccessful witness search);
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Optional

from .graphs import (
    DEFAULT_CYCLE_CAP,
    DEFAULT_POWER_CAP,
    CapExceeded,
    Graph,
    InternalInvariantError,
)
from .io_formats import (
    FormatError,
    GraphSemanticError,
    ParseError,
    emit_dot,
    parse_dsl,
    parse_json,
    serialize_dsl,
    serialize_json,
)

if TYPE_CHECKING:
    from .correspondence import VertexWeights
    from .verdicts import AnalysisReport

ENV_CAP_VERTICES = "GRAPHCSTAR_CAP_VERTICES"
ENV_CAP_PATHS = "GRAPHCSTAR_CAP_PATHS"
CAP_VERTICES_HELP = ("vertex cap on lattice listings (analyze, ideals, classify --format json, "
                     "dot --annotate; env GRAPHCSTAR_CAP_VERTICES); verdicts need none")


def _load_graph(path: str) -> Graph:
    # One whole decode: an incremental "utf-8-sig" decoder drops a truncated
    # BOM at end of file instead of raising.  Newlines as a text-mode read.
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8-sig").replace("\r\n", "\n").replace("\r", "\n")
    if path.endswith(".json"):
        return parse_json(text)
    return parse_dsl(text)


def _resolve_cap(flag_value: Optional[int], flag: str, env_name: str, default: int) -> int:
    if flag_value is not None:
        value, source = flag_value, flag
    else:
        env = os.environ.get(env_name)
        if env is None:
            return default
        try:
            value, source = int(env), env_name
        except ValueError:
            raise ValueError(f"{env_name} must be an integer, got {env!r}") from None
    if value < 0:
        raise ValueError(f"{source} must be nonnegative, got {value}")
    return value


def _vertex_cap(args) -> int:
    from .ideals import DEFAULT_LATTICE_CAP
    return _resolve_cap(args.cap_vertices, "--cap-vertices", ENV_CAP_VERTICES, DEFAULT_LATTICE_CAP)


def _path_cap(args, default: int) -> int:
    return _resolve_cap(args.cap_paths, "--cap-paths", ENV_CAP_PATHS, default)


def _json_text(data, indent: Optional[int] = None) -> str:
    import json
    return json.dumps(data, indent=indent) + "\n"


def _subset_str(members: list[str]) -> str:
    return "{" + " ".join(members) + "}"


def render_report_text(report: AnalysisReport) -> str:
    from .verdicts import CITATIONS, report_to_dict
    d = report_to_dict(report)
    flags = d["flags"]
    lines = [f"graph: {d['graph']['vertices']} vertices, {d['graph']['edges']} edges", "flags:"]
    lines += [f"  {name}: {'yes' if value else 'no'}" for name, value in flags.items()]
    if flags["condition_L"]:
        lines.append("condition (L): holds")
    else:
        lines.append(f"condition (L): fails (exitless cycle: {' '.join(d['violating_cycle'])})")
    if flags["condition_S"]:
        lines.append("condition (S): holds")
    else:
        lines.append(f"condition (S): fails ({d['condition_S_reason']})")
    if flags["nonperiodic"]:
        lines.append("periodicity: nonperiodic")
    else:
        lines.append(f"periodicity: periodic, minimal period {d['minimal_period']}")
    lines.append("hereditary lattice: " + " ".join(map(_subset_str, d["hereditary_lattice"])))
    lines.append("saturated hereditary lattice: "
                 + " ".join(map(_subset_str, d["saturated_hereditary_lattice"])))
    lines.append(f"simplicity: {d['simplicity']}")
    schweizer = d["schweizer"]
    if schweizer["hypotheses_hold"]:
        lines.append(f"schweizer hypotheses: hold; predicted {schweizer['predicted']}")
    else:
        lines.append("schweizer hypotheses: fail (" + ", ".join(schweizer["failed"]) + ")")
    lines.append("counterexample flags: " + (", ".join(d["counterexample_flags"]) or "none"))
    lines.append("citations:")
    lines += [f"  {tag}: {CITATIONS[tag]}" for tag in d["citations"]]
    return "\n".join(lines) + "\n"


def _cmd_analyze(g: Graph, args) -> str:
    from .verdicts import classify, report_to_dict
    report = classify(g, cap=_vertex_cap(args))
    if args.format == "json":
        return _json_text(report_to_dict(report), indent=2)
    return render_report_text(report)


def _cmd_classify(g: Graph, args) -> str:
    if args.format == "json":
        return _cmd_analyze(g, args)
    from .verdicts import classify
    # The text form lists no lattice, so it reads no vertex cap.
    flags = classify(g).counterexample_flags
    return "".join(f"{flag}: {'yes' if flag in flags else 'no'}\n" for flag in (
        "nonperiodic_but_not_L", "nonperiodic_trivial_invariant_not_simple",
        "periodic_disjoint_cycles"))


def _cmd_power(g: Graph, args) -> str:
    from .paths import power_graph
    result = power_graph(g, args.power, cap=_path_cap(args, DEFAULT_POWER_CAP))
    if args.format == "json":
        return _json_text(serialize_json(result), indent=2)
    return serialize_dsl(result)


def _cmd_cycles(g: Graph, args) -> str:
    from .paths import simple_cycles
    cycles = simple_cycles(g, cap=_path_cap(args, DEFAULT_CYCLE_CAP))
    if args.format == "json":
        return _json_text([list(c.edges) for c in cycles])
    if not cycles:
        return "no cycles\n"
    return "".join(f"{c.source}: {c}\n" for c in cycles)


_KIND_BY_FLAG = {"hereditary": "hereditary", "satHer": "saturated_hereditary"}


def _cmd_ideals(g: Graph, args) -> str:
    from .ideals import _listings
    (subsets,) = _listings(g, (_KIND_BY_FLAG[args.kind],), _vertex_cap(args))
    if args.format == "json":
        return _json_text(subsets)
    return "".join(_subset_str(s) + "\n" for s in subsets)


def _parse_weights(g: Graph, args) -> VertexWeights:
    from .correspondence import VertexWeights
    if args.support is not None:
        return VertexWeights.indicator(g, [v for v in args.support.split(",") if v])
    weights = {}
    for item in args.weights.split(","):
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"bad weight {item!r}, expected vertex=value")
        v, _, raw = item.partition("=")
        weights[v] = float(raw)
    return VertexWeights(g, weights)


def _cmd_witness(g: Graph, args) -> tuple[str, int]:
    from .conditions import WitnessRequest, find_witness
    a = _parse_weights(g, args)
    req = WitnessRequest(a=a, n=args.n, epsilon=args.epsilon, max_length=args.max_length)
    found = find_witness(g, req)
    if found is None:
        if args.format == "json":
            return _json_text({"found": False, "searched_max_length": args.max_length}), 3
        return (f"no witness found up to length {args.max_length} "
                "(existence is not ruled out)\n", 3)
    m, path = found
    if args.format == "json":
        return _json_text({"found": True, "m": m, "path": list(path.edges),
                           "source": path.source}), 0
    return f"witness: m={m} path: {path} (source {path.source})\n", 0


def _cmd_dot(g: Graph, args) -> str:
    if not args.annotate:
        return emit_dot(g)
    from .verdicts import classify
    return emit_dot(classify(g, cap=_vertex_cap(args)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphcstar",
        description="Structural analysis of finite directed multigraphs: "
                    "simplicity of the associated algebras, Condition (L)/(S), "
                    "ideal lattices, periodicity.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="graph file (.json for JSON, otherwise DSL)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=func)
        return p

    p = add("analyze", _cmd_analyze, "full structural report")
    p.add_argument("--cap-vertices", type=int, default=None, help=CAP_VERTICES_HELP)

    p = add("classify", _cmd_classify, "counterexample classification")
    p.add_argument("--cap-vertices", type=int, default=None, help=CAP_VERTICES_HELP)

    p = add("power", _cmd_power, "emit the n-th power graph")
    p.add_argument("-n", "--power", type=int, required=True)
    p.add_argument("--cap-paths", type=int, default=None,
                   help="edge count cap (env GRAPHCSTAR_CAP_PATHS)")

    p = add("cycles", _cmd_cycles, "list elementary cycles")
    p.add_argument("--cap-paths", type=int, default=None,
                   help="cycle count cap (env GRAPHCSTAR_CAP_PATHS)")

    p = add("ideals", _cmd_ideals, "list the subset lattice")
    p.add_argument("--kind", choices=tuple(_KIND_BY_FLAG), default="satHer")
    p.add_argument("--cap-vertices", type=int, default=None, help=CAP_VERTICES_HELP)

    p = add("witness", _cmd_witness, "search for a nonreturning witness path")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--support", help="comma-separated vertices, indicator weights")
    group.add_argument("--weights", help="comma-separated vertex=value pairs")
    p.add_argument("--n", type=int, default=0, help="witness length must exceed this")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--max-length", type=int, required=True)

    p = add("dot", _cmd_dot, "emit DOT")
    p.add_argument("--annotate", action="store_true",
                   help="color exitless cycles and invariant subsets from the report")
    p.add_argument("--cap-vertices", type=int, default=None, help=CAP_VERTICES_HELP)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = args.func(_load_graph(args.file), args)
        text, code = out if isinstance(out, tuple) else (out, 0)
        sys.stdout.write(text)
        return code
    except ParseError as exc:
        _print_error(exc)
        return 1
    except GraphSemanticError as exc:
        _print_error(exc)
        return 2
    except UnicodeDecodeError as exc:  # an input file that is not UTF-8
        print(f"error: {args.file}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _print_error(exc: FormatError) -> None:
    for d in exc.diagnostics:
        print(f"error: {d}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
