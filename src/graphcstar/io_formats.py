"""Graph input and output: line DSL, JSON documents, DOT rendering.

The DSL has one declaration per line::

    # comment
    vertex u
    edge b u w

``vertex <id>`` declares a vertex, ``edge <id> <src> <dst>`` an edge between
already-declared vertices; ``#`` starts a comment anywhere in a line.  Ids
are arbitrary non-whitespace tokens not containing ``#``.

The JSON form is ``{"vertices": [ids...], "edges": [{"id","src","dst"}...]}``
with no extra fields; serialization reproduces documents bit-exactly for
canonical data and ``parse(serialize(g)) == g`` in both formats.  The two
writers test all ids of a graph at once, on their joined text (the DSL
writer that each is one token without ``#``, the DOT writer whether any holds
a quote or backslash), and walk the ids one by one only when that test fails.
They build their text in whole-graph passes too: the DSL writer joins the
vertex ids and the edge rows in C, and the DOT writer builds every line
plain, joins the vertex lines in C, and rewrites only the lines a report
marks.  The DSL parser strips comments only from a text that holds ``#``.
Both parsers give each endpoint the declared vertex's own string, so a
parsed graph holds one string per vertex id, however many edges meet it.
Each walks its input once: the pass that builds the rows also words and
locates the faults of any line or edge it refuses.

Every failure carries located diagnostics: line and column for DSL input,
field paths like ``edges[3].src`` for JSON.  Lexical and structural problems
raise :class:`ParseError`; graph-level problems (duplicate ids, undeclared
endpoints) raise :class:`GraphSemanticError`.
"""

from __future__ import annotations

import re
import sys
from itertools import repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional, Sequence, Union

from .graphs import Graph, _violations

if TYPE_CHECKING:
    from .verdicts import AnalysisReport

# Each pattern below is a string that re compiles on first use and keeps, so
# loading this module, as every CLI call does, compiles none of them.  Only
# _COMMENT is used on a valid input; the others locate faults: _TOKEN
# diagnostic columns, and _NESTING and _NUMBER the JSON input that
# json.loads refuses without a position.  The three fault patterns take
# about 0.24 ms to compile (Python 3.11, 2 vCPUs).
_TOKEN = r"\S+"
# A comment runs from '#' to the end of its line, where a line ends at any
# of the ten code points on which str.splitlines splits.  parse_dsl puts a
# space in its place, since deleting it would join a "\r" before it and a
# "\n" after it into one line break.  Its character class took about 0.6 ms
# to compile.
_COMMENT = r"#[^\n\x0b\x0c\r\x1c-\x1e\x85\u2028\u2029]*"


class Diagnostic(NamedTuple):
    kind: str  # "syntax", "schema", or "semantic"
    message: str
    line: Optional[int] = None    # 1-based
    column: Optional[int] = None  # 1-based
    path: Optional[str] = None    # JSON field path

    @property
    def location(self) -> str:
        if self.line is not None:
            loc = f"line {self.line}"
            if self.column is not None:
                loc += f", column {self.column}"
            return loc
        if self.path is not None:
            return self.path
        return "input"

    def __str__(self) -> str:
        return f"{self.location}: {self.message}"


class FormatError(Exception):
    """Input could not be turned into a valid graph; see ``diagnostics``."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = tuple(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


class ParseError(FormatError):
    """Lexical, structural, or schema failure."""


class GraphSemanticError(FormatError):
    """Well-formed input describing an invalid graph."""


def _raise(diags: list[Diagnostic]) -> None:
    if any(d.kind in ("syntax", "schema") for d in diags):
        raise ParseError(diags)
    if diags:
        raise GraphSemanticError(diags)


def parse_dsl(text: str) -> Graph:
    """Parse DSL text into a graph.

    All problems in the input are collected before raising, so one failed
    parse reports every offending line.  The text is tested for ``#`` once;
    only when it holds one does one regex pass, before the lines are split,
    replace each comment by a space.  That keeps every line break and every
    token's column, and the main loop never looks for comments.  Lines are
    split with ``str.split``, which agrees with ``_TOKEN`` on every code
    point; token columns are worked out only for a line that gets a
    diagnostic.  Vertex and edge ids map to their declaration lines, which
    proves the graph valid as it is read, so it is not checked again.  Each
    endpoint is looked up in a dict from each declared vertex id to itself,
    so every edge holds the declared vertex's own string, not a copy.
    """
    diags: list[Diagnostic] = []
    vertex_lines: dict[str, int] = {}
    ids: dict[str, str] = {}  # each declared vertex id to itself
    edges: list[tuple[str, str, str]] = []
    edge_lines: dict[str, int] = {}

    if "#" in text:
        text = re.sub(_COMMENT, " ", text)
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        word = tokens[0]
        if word == "edge" and len(tokens) == 4:
            _, eid, src, dst = tokens
            if eid not in edge_lines:
                try:
                    edges.append((eid, ids[src], ids[dst]))
                except KeyError:  # an undeclared endpoint, located below
                    pass
                else:
                    edge_lines[eid] = lineno
                    continue
            _, ecol, scol, dcol = _columns(line)
            if eid in edge_lines:
                diags.append(Diagnostic(
                    "semantic",
                    f"duplicate edge id {eid!r} (first declared on line {edge_lines[eid]})",
                    line=lineno, column=ecol))
            if src not in ids:
                diags.append(Diagnostic(
                    "semantic", f"undeclared vertex {src!r}", line=lineno, column=scol))
            if dst not in ids:
                diags.append(Diagnostic(
                    "semantic", f"undeclared vertex {dst!r}", line=lineno, column=dcol))
        elif word == "vertex" and len(tokens) == 2:
            vid = tokens[1]
            if vid not in ids:
                vertex_lines[vid] = lineno
                ids[vid] = vid
                continue
            diags.append(Diagnostic(
                "semantic",
                f"duplicate vertex id {vid!r} (first declared on line {vertex_lines[vid]})",
                line=lineno, column=_columns(line)[1]))
        elif word == "edge":
            diags.append(Diagnostic(
                "syntax", f"expected 'edge <id> <src> <dst>', got {len(tokens) - 1} argument(s)",
                line=lineno, column=_columns(line)[0]))
        elif word == "vertex":
            diags.append(Diagnostic(
                "syntax", f"expected 'vertex <id>', got {len(tokens) - 1} argument(s)",
                line=lineno, column=_columns(line)[0]))
        else:
            diags.append(Diagnostic(
                "syntax", f"unknown directive {word!r}", line=lineno, column=_columns(line)[0]))

    _raise(diags)
    return Graph._proven(tuple(ids), tuple(edges))


def _columns(line: str) -> list[int]:
    """1-based start columns of the tokens of a comment-free line."""
    return [m.start() + 1 for m in re.finditer(_TOKEN, line)]


def serialize_dsl(g: Graph) -> str:
    """Render a graph in the DSL; inverse of :func:`parse_dsl`.

    Ids containing whitespace or '#' cannot be written in this format and
    raise ValueError; use the JSON form for such graphs.
    """
    vertices = g.vertices
    rows = g._rows
    names = [*vertices, *map(itemgetter(0), rows)]
    # Each id is one nonempty token without '#' exactly when the joined ids
    # split back into the ids and hold no '#'; only an offender's graph is
    # walked, with the same test on each id.
    joined = " ".join(names)
    if "#" in joined or joined.split() != names:
        for name in names:
            if "#" in name or name.split() != [name]:
                raise ValueError(f"id {name!r} cannot be written in the DSL")
    blocks = []
    if vertices:
        blocks.append("vertex " + "\nvertex ".join(vertices))
    if rows:
        blocks.append("edge " + "\nedge ".join(map(" ".join, rows)))
    return "\n".join(blocks) + "\n"


def parse_json(document: Union[str, dict]) -> Graph:
    """Parse the JSON graph form from a decoded dict or raw text.

    Schema problems raise :class:`ParseError` with the offending field path;
    duplicate ids and dangling endpoints raise :class:`GraphSemanticError`.
    A decoded dict is read, never changed.  One loop reads each edge object
    once; C passes over the columns would read every object three or more
    times, which on a large document costs more than the loop.  A
    well-formed edge becomes a row, with each endpoint the declared
    vertex's own string, looked up in a dict from each vertex id to itself;
    any other edge gets its schema diagnostics there, from
    :func:`_edge_faults`.  The lookup and two size tests, of that dict and
    of the edge ids, prove a well-formed document's graph valid; only when
    one fails are its graph faults located, by
    :func:`~graphcstar.graphs._violations`.
    """
    if isinstance(document, str):
        import json
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ParseError([Diagnostic(
                "syntax", f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno)]) from None
        except RecursionError:
            raise ParseError([_too_deep(document)]) from None
        except ValueError:  # an integer over the int/str conversion limit
            raise ParseError([_too_long(document)]) from None

    diags: list[Diagnostic] = []
    if not isinstance(document, dict):
        _raise([Diagnostic("schema", "document must be an object", path="$")])
    for key in document:
        if key not in ("vertices", "edges"):
            diags.append(Diagnostic("schema", f"unexpected field {key!r}", path=str(key)))
    for key in ("vertices", "edges"):
        if key not in document:
            diags.append(Diagnostic("schema", f"missing field {key!r}", path="$"))
    _raise(diags)

    vertices, edges = document["vertices"], document["edges"]
    ids: dict[str, str] = {}  # each declared vertex id to itself
    if not isinstance(vertices, list):
        diags.append(Diagnostic("schema", "must be an array", path="vertices"))
    elif all(map(isinstance, vertices, repeat(str))):
        ids = dict(zip(vertices, vertices))
    else:  # no id dict, as an unhashable id would raise
        diags += [Diagnostic("schema", "vertex id must be a string", path=f"vertices[{i}]")
                  for i, v in enumerate(vertices) if not isinstance(v, str)]
    if not isinstance(edges, list):  # a dict would yield its keys
        diags.append(Diagnostic("schema", "must be an array", path="edges"))
        edges = ()
    rows = []
    append = rows.append
    dangling = False
    refused = 0  # edges that are not rows, so the next is edges[len(rows) + refused]
    for e in edges:
        # Three fields, with "id", "src" and "dst" all strings, is exactly a
        # well-formed edge.
        if isinstance(e, dict) and len(e) == 3:
            eid, src, dst = e.get("id"), e.get("src"), e.get("dst")
            if isinstance(eid, str) and isinstance(src, str) and isinstance(dst, str):
                try:
                    append((eid, ids[src], ids[dst]))
                except KeyError:  # an undeclared endpoint, located below
                    append((eid, src, dst))
                    dangling = True
                continue
        diags += _edge_faults(e, len(rows) + refused)
        refused += 1
    _raise(diags)
    if dangling or len(ids) < len(vertices) or len(set(map(itemgetter(0), rows))) < len(rows):
        raise GraphSemanticError([
            Diagnostic("semantic", f"duplicate vertex id {x!r}", path=f"vertices[{i}]")
            if field == "vertices" else
            Diagnostic("semantic", f"duplicate edge id {x!r}", path=f"edges[{i}].id") if field == "id" else
            Diagnostic("semantic", f"undeclared vertex {x!r}", path=f"edges[{i}].{field}")
            for field, i, x in _violations(vertices, rows)])
    return Graph._proven(tuple(vertices), tuple(rows))


def _edge_faults(e, i: int) -> Iterator[Diagnostic]:
    """The schema diagnostics of ``edges[i]``, an edge that is not exactly
    the three string fields ``id``, ``src`` and ``dst``."""
    if not isinstance(e, dict):
        yield Diagnostic("schema", "edge must be an object", path=f"edges[{i}]")
        return
    for key in e:
        if key not in ("id", "src", "dst"):
            yield Diagnostic("schema", f"unexpected field {key!r}", path=f"edges[{i}].{key}")
    for key in ("id", "src", "dst"):
        if key not in e:
            yield Diagnostic("schema", f"missing field {key!r}", path=f"edges[{i}]")
        elif not isinstance(e[key], str):
            yield Diagnostic("schema", "must be a string", path=f"edges[{i}].{key}")


# A string ends at its closing quote or, unterminated, where it cannot go on;
# so a match never fails after scanning ahead, and the scan is linear.
_NESTING = r'"(?:[^"\\]|\\.)*"?|[][{}]'


def _too_deep(text: str) -> Diagnostic:
    """Locate the first bracket at the deepest nesting level of ``text``,
    for the RecursionError that ``json.loads`` raises without a position."""
    depth = deepest = at = 0
    for m in re.finditer(_NESTING, text):
        c = m.group()
        if c == "[" or c == "{":
            depth += 1
            if depth > deepest:
                deepest, at = depth, m.start()
        elif c == "]" or c == "}":
            depth -= 1
    line, column = _position(text, at)
    return Diagnostic(
        "syntax", f"invalid JSON: nested too deeply ({deepest} levels)", line=line, column=column)


_NUMBER = r'"(?:[^"\\]|\\.)*"?|-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?'


def _too_long(text: str) -> Diagnostic:
    """Locate the first integer literal of ``text`` with more digits than
    ``int`` converts, for the ValueError that ``json.loads`` raises without
    a position."""
    limit = sys.get_int_max_str_digits()
    for m in re.finditer(_NUMBER, text):
        digits = m.group().lstrip("-")
        if len(digits) > limit and digits.isdigit():
            line, column = _position(text, m.start())
            return Diagnostic(
                "syntax", f"invalid JSON: integer of {len(digits)} digits exceeds the limit of {limit}",
                line=line, column=column)
    return Diagnostic("syntax", "invalid JSON: integer too long", path="$")


def _position(text: str, at: int) -> tuple[int, int]:
    """1-based line and column of offset ``at`` in ``text``."""
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


def serialize_json(g: Graph) -> dict:
    """Plain-data JSON form; inverse of :func:`parse_json` on canonical
    documents, including key order."""
    return {
        "vertices": list(g.vertices),
        "edges": [{"id": eid, "src": src, "dst": dst} for eid, src, dst in g._rows],
    }


def _dot_escape(name: str) -> str:
    return name.replace("\\", "\\\\").replace('"', '\\"')


def _dot_vertex_lines(names: Sequence[str]) -> list[str]:
    """The plain vertex lines of ``names``, joined into one string."""
    return ['  "' + '";\n  "'.join(names) + '";'] if names else []


def emit_dot(target: Union[Graph, AnalysisReport]) -> str:
    """Render a :class:`Graph` or an :class:`AnalysisReport` (from
    ``classify``) as deterministic DOT text.

    For a report, the edges of the exitless cycle witnessing a Condition (L)
    failure are drawn red, and vertices lying in some nontrivial proper
    saturated hereditary subset are filled grey.  A report is told from a
    graph by not being a :class:`Graph`, so rendering a graph never imports
    the verdict modules.
    """
    if isinstance(target, Graph):
        g = target
        report: Optional[AnalysisReport] = None
    else:
        g = target.graph
        report = target

    vertices = g.vertices
    rows = g._rows
    lines = ["digraph G {"]
    marked: list[int] = []  # positions of the grey vertices, ascending
    red: set[int] = set()   # positions of the red edges
    if report is not None:
        if report.violating_cycle is not None:
            at = {eid: i for i, (eid, _, _) in enumerate(rows)}
            red = {at[eid] for eid in report.violating_cycle.edges}
        full = frozenset(vertices)
        pos = g.vertex_pos
        marked = sorted({pos[v] for s in report.saturated_hereditary_lattice.elements
                         if s and s != full for v in s})
        lines.append(f"  // simplicity: {report.simplicity}")

    # Ids are written between double quotes as they are, unless some id
    # holds a quote or a backslash; then every id is escaped, once.
    names, labelled = vertices, rows
    joined = " ".join([*vertices, *map(itemgetter(0), rows)])
    if '"' in joined or "\\" in joined:
        quoted = {v: _dot_escape(v) for v in vertices}
        names = tuple(quoted.values())
        labelled = [(_dot_escape(eid), quoted[src], quoted[dst]) for eid, src, dst in rows]
    # Every line is built plain; only the marked ones are then rewritten.
    edge_lines = [f'  "{src}" -> "{dst}" [label="{eid}"];' for eid, src, dst in labelled]
    for i in red:
        edge_lines[i] = edge_lines[i][:-2] + ", color=red];"
    # The vertex lines are joined in C, in runs between the marked ones.
    start = 0
    for i in marked:
        lines += _dot_vertex_lines(names[start:i])
        lines.append(f'  "{names[i]}" [style=filled, fillcolor=lightgrey];')
        start = i + 1
    lines += _dot_vertex_lines(names[start:])
    lines += edge_lines
    lines.append("}")
    return "\n".join(lines) + "\n"
