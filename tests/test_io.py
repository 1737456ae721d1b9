import json
import random

import pytest
from hypothesis import given, settings

from graphcstar import (
    Graph,
    GraphSemanticError,
    ParseError,
    classify,
    emit_dot,
    parse_dsl,
    parse_json,
    serialize_dsl,
    serialize_json,
)

from graphcstar.graphs import Edge
from graphcstar.io_formats import _TOKEN, Diagnostic

from conftest import FIXTURE_GRAPHS, fixture_path, graphs_strategy, source_loop, two_loops


def test_parse_dsl_basic():
    text = """\
# a source feeding a loop
vertex u
vertex w

edge b u w
edge c w w  # trailing comment
"""
    g = parse_dsl(text)
    assert g == source_loop()


def test_fixture_files_parse_to_intended_graphs():
    for name, (expected, filename) in FIXTURE_GRAPHS.items():
        text = fixture_path(name).read_text()
        got = parse_json(text) if filename.endswith(".json") else parse_dsl(text)
        assert got == expected, name


def test_dsl_syntax_errors_are_located():
    with pytest.raises(ParseError) as exc:
        parse_dsl("vertex u\nloop x\n")
    (d,) = exc.value.diagnostics
    assert d.kind == "syntax" and d.line == 2 and d.column == 1
    assert "unknown directive" in d.message

    with pytest.raises(ParseError) as exc:
        parse_dsl("vertex u\n  vertex\n")
    (d,) = exc.value.diagnostics
    assert d.line == 2 and d.column == 3

    with pytest.raises(ParseError) as exc:
        parse_dsl("vertex u\nedge e u\n")
    (d,) = exc.value.diagnostics
    assert d.line == 2 and "edge <id> <src> <dst>" in d.message


def test_dsl_semantic_errors_are_located():
    with pytest.raises(GraphSemanticError) as exc:
        parse_dsl("vertex u\nvertex u\n")
    (d,) = exc.value.diagnostics
    assert d.kind == "semantic" and d.line == 2 and d.column == 8
    assert "duplicate vertex id 'u'" in d.message and "line 1" in d.message

    with pytest.raises(GraphSemanticError) as exc:
        parse_dsl("vertex u\nedge e u w\n")
    (d,) = exc.value.diagnostics
    assert d.line == 2 and d.column == 10
    assert "undeclared vertex 'w'" in d.message

    with pytest.raises(GraphSemanticError) as exc:
        parse_dsl("vertex u\nedge e u u\nedge e u u\n")
    (d,) = exc.value.diagnostics
    assert d.line == 3 and "duplicate edge id 'e'" in d.message


def test_dsl_collects_all_diagnostics():
    bad = "vertex u\nvertex u\nedge e q u\nbogus\n"
    with pytest.raises(ParseError) as exc:  # syntax present wins
        parse_dsl(bad)
    kinds = [d.kind for d in exc.value.diagnostics]
    assert kinds.count("semantic") == 2 and kinds.count("syntax") == 1
    lines = [d.line for d in exc.value.diagnostics]
    assert lines == [2, 3, 4]


def test_dsl_vertices_must_precede_edges():
    with pytest.raises(GraphSemanticError) as exc:
        parse_dsl("edge e u u\nvertex u\n")
    assert all("undeclared vertex" in d.message for d in exc.value.diagnostics)


def test_serialize_dsl_round_trip():
    g = two_loops()
    assert parse_dsl(serialize_dsl(g)) == g
    with pytest.raises(ValueError, match="cannot be written"):
        serialize_dsl(Graph(("a b",), ()))
    with pytest.raises(ValueError, match="cannot be written"):
        serialize_dsl(Graph(("v",), (("e#1", "v", "v"),)))


def test_parse_json_round_trip_bit_exact():
    doc = {"vertices": ["u", "w"],
           "edges": [{"id": "b", "src": "u", "dst": "w"},
                     {"id": "c", "src": "w", "dst": "w"}]}
    g = parse_json(doc)
    assert g == source_loop()
    assert serialize_json(g) == doc
    text = json.dumps(doc)
    assert json.dumps(serialize_json(parse_json(text))) == text


def test_parse_json_schema_errors_have_paths():
    cases = [
        ("[]", "$"),
        ('{"vertices": ["u"]}', "$"),
        ('{"vertices": "u", "edges": []}', "vertices"),
        ('{"vertices": ["u", 3], "edges": []}', "vertices[1]"),
        ('{"vertices": ["u"], "edges": [5]}', "edges[0]"),
        ('{"vertices": ["u"], "edges": [{"id": "e", "src": "u"}]}', "edges[0]"),
        ('{"vertices": ["u"], "edges": [{"id": "e", "src": "u", "dst": 1}]}', "edges[0].dst"),
        ('{"vertices": ["u"], "edges": [], "extra": 1}', "extra"),
        ('{"vertices": ["u"], "edges": [{"id": "e", "src": "u", "dst": "u", "w": 1}]}',
         "edges[0].w"),
    ]
    for text, path in cases:
        with pytest.raises(ParseError) as exc:
            parse_json(text)
        assert any(d.path == path for d in exc.value.diagnostics), (text, path)


def test_parse_json_semantic_errors_have_paths():
    with pytest.raises(GraphSemanticError) as exc:
        parse_json('{"vertices": ["u"], "edges": [{"id": "e", "src": "u", "dst": "w"}]}')
    (d,) = exc.value.diagnostics
    assert d.path == "edges[0].dst" and "undeclared vertex 'w'" in d.message

    with pytest.raises(GraphSemanticError) as exc:
        parse_json('{"vertices": ["u", "u"], "edges": []}')
    (d,) = exc.value.diagnostics
    assert d.path == "vertices[1]"


def test_parse_json_decode_error_is_located():
    with pytest.raises(ParseError) as exc:
        parse_json('{"vertices": [,]}')
    (d,) = exc.value.diagnostics
    assert d.kind == "syntax" and d.line == 1 and d.column is not None


def test_every_diagnostic_is_located():
    bad_inputs = [
        "nonsense\n",
        "vertex u\nvertex u\n",
        '{"vertices": 5, "edges": []}',
        '{"vertices": ["u", "u"], "edges": []}',
        "{bad json",
    ]
    for text in bad_inputs:
        try:
            if text.lstrip().startswith("{"):
                parse_json(text)
            else:
                parse_dsl(text)
            assert False, f"expected failure for {text!r}"
        except (ParseError, GraphSemanticError) as exc:
            assert exc.diagnostics
            for d in exc.diagnostics:
                assert d.line is not None or d.path is not None
                assert str(d)


def test_emit_dot_plain():
    out = emit_dot(source_loop())
    assert out.startswith("digraph G {")
    assert '  "u";' in out and '  "w";' in out
    assert '"u" -> "w" [label="b"];' in out
    assert '"w" -> "w" [label="c"];' in out
    assert "color=red" not in out


def test_emit_dot_report_annotations():
    out = emit_dot(classify(two_loops()))
    assert "// simplicity: not_simple" in out
    # the exitless loop at w is flagged, the loop at u is not
    assert '"w" -> "w" [label="c", color=red];' in out
    assert '"u" -> "u" [label="a"];' in out
    # w lies in a nontrivial saturated hereditary subset
    assert '"w" [style=filled, fillcolor=lightgrey];' in out
    assert '"u" [style=filled' not in out


def test_emit_dot_escapes_quotes():
    g = Graph(('a"b',), (('e\\1', 'a"b', 'a"b'),))
    out = emit_dot(g)
    assert '"a\\"b"' in out and '"e\\\\1"' in out


@given(graphs_strategy())
@settings(max_examples=100, deadline=None)
def test_round_trip_both_formats(g):
    assert parse_dsl(serialize_dsl(g)) == g
    assert parse_json(serialize_json(g)) == g
    assert parse_json(json.dumps(serialize_json(g))) == g


def test_parse_json_nested_too_deeply_is_located():
    with pytest.raises(ParseError) as exc:
        parse_json("[" * 100_000 + "]" * 100_000)
    (d,) = exc.value.diagnostics
    assert d.kind == "syntax" and (d.line, d.column) == (1, 100_000)
    assert d.message == "invalid JSON: nested too deeply (100000 levels)"

    # brackets inside strings do not count; the location is the first
    # bracket at the deepest level
    text = '{"vertices": ["[{"],\n "edges": ' + "[" * 3000 + "]" * 3000 + "}"
    with pytest.raises(ParseError) as exc:
        parse_json(text)
    (d,) = exc.value.diagnostics
    assert (d.line, d.column) == (2, 3010)
    assert d.message == "invalid JSON: nested too deeply (3001 levels)"

    # an unterminated string full of escaped quotes is scanned once, not
    # once per quote
    with pytest.raises(ParseError) as exc:
        parse_json("[" * 2000 + '"' + '\\"' * 200_000)
    (d,) = exc.value.diagnostics
    assert (d.line, d.column) == (1, 2000)


def test_parse_json_integer_too_long_is_located():
    # json.loads raises a plain ValueError here, with no position
    with pytest.raises(ParseError) as exc:
        parse_json('{"vertices": [' + "7" * 5000 + '], "edges": []}')
    (d,) = exc.value.diagnostics
    assert d.kind == "syntax" and (d.line, d.column) == (1, 15)
    assert d.message == "invalid JSON: integer of 5000 digits exceeds the limit of 4300"

    # long digit runs inside strings, fractions and exponents are not integers
    text = ('{"vertices": ["' + "1" * 5000 + '", 1.' + "2" * 5000 + ", 3e" + "4" * 5000
            + ',\n  -' + "5" * 4301 + '], "edges": []}')
    with pytest.raises(ParseError) as exc:
        parse_json(text)
    (d,) = exc.value.diagnostics
    assert (d.line, d.column) == (2, 3)
    assert d.message == "invalid JSON: integer of 4301 digits exceeds the limit of 4300"


def test_graph_keeps_edges_and_wraps_tuples():
    e = Edge("b", "u", "w")
    g = Graph(("u", "w"), [e, ("c", "w", "w")])
    assert g.edges[0] is e
    assert type(g.edges[1]) is Edge and g.edges[1] == Edge("c", "w", "w")
    with pytest.raises(TypeError):
        Graph(("u",), (("e", "u"),))


def test_split_agrees_with_token_regex_on_every_code_point():
    # The DSL parser splits lines with str.split and finds columns with
    # _TOKEN only for lines with a diagnostic; both must see the same tokens.
    text = "x".join(map(chr, range(0x110000)))
    assert text.split() == _TOKEN.findall(text)


# -- Parity with the previous parsers -------------------------------------------
#
# The two functions below are the parsers as they were before tokenizing with
# str.split and checking JSON graphs by set sizes.  They serve as a reference
# route: on seeded documents of every shape the current parsers must return
# the same graph or the same diagnostics, field for field.

def _reference_raise(diags):
    if any(d.kind in ("syntax", "schema") for d in diags):
        raise ParseError(diags)
    if diags:
        raise GraphSemanticError(diags)


def _reference_parse_dsl(text):
    diags = []
    vertices = []
    vertex_lines = {}
    edges = []
    edge_lines = {}
    edge_ids = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(line)]
        if not tokens:
            continue
        word, col = tokens[0]
        if word == "vertex":
            if len(tokens) != 2:
                diags.append(Diagnostic(
                    "syntax", f"expected 'vertex <id>', got {len(tokens) - 1} argument(s)",
                    line=lineno, column=col))
                continue
            vid, vcol = tokens[1]
            if vid in vertex_lines:
                diags.append(Diagnostic(
                    "semantic",
                    f"duplicate vertex id {vid!r} (first declared on line {vertex_lines[vid]})",
                    line=lineno, column=vcol))
                continue
            vertices.append(vid)
            vertex_lines[vid] = lineno
        elif word == "edge":
            if len(tokens) != 4:
                diags.append(Diagnostic(
                    "syntax", f"expected 'edge <id> <src> <dst>', got {len(tokens) - 1} argument(s)",
                    line=lineno, column=col))
                continue
            eid, ecol = tokens[1]
            src, scol = tokens[2]
            dst, dcol = tokens[3]
            bad = False
            if eid in edge_ids:
                diags.append(Diagnostic(
                    "semantic",
                    f"duplicate edge id {eid!r} (first declared on line {edge_lines[eid]})",
                    line=lineno, column=ecol))
                bad = True
            if src not in vertex_lines:
                diags.append(Diagnostic(
                    "semantic", f"undeclared vertex {src!r}", line=lineno, column=scol))
                bad = True
            if dst not in vertex_lines:
                diags.append(Diagnostic(
                    "semantic", f"undeclared vertex {dst!r}", line=lineno, column=dcol))
                bad = True
            if bad:
                continue
            edges.append(Edge(eid, src, dst))
            edge_ids.add(eid)
            edge_lines[eid] = lineno
        else:
            diags.append(Diagnostic(
                "syntax", f"unknown directive {word!r}", line=lineno, column=col))

    _reference_raise(diags)
    return Graph(tuple(vertices), tuple(edges))


def _reference_parse_json(document):
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ParseError([Diagnostic(
                "syntax", f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno)]) from None

    diags = []
    if not isinstance(document, dict):
        _reference_raise([Diagnostic("schema", "document must be an object", path="$")])
    for key in document:
        if key not in ("vertices", "edges"):
            diags.append(Diagnostic("schema", f"unexpected field {key!r}", path=str(key)))
    for key in ("vertices", "edges"):
        if key not in document:
            diags.append(Diagnostic("schema", f"missing field {key!r}", path="$"))
    if diags:
        _reference_raise(diags)

    vertices = []
    if not isinstance(document["vertices"], list):
        diags.append(Diagnostic("schema", "must be an array", path="vertices"))
    else:
        for i, v in enumerate(document["vertices"]):
            if not isinstance(v, str):
                diags.append(Diagnostic("schema", "vertex id must be a string", path=f"vertices[{i}]"))
            else:
                vertices.append(v)

    edges = []
    if not isinstance(document["edges"], list):
        diags.append(Diagnostic("schema", "must be an array", path="edges"))
    else:
        for i, e in enumerate(document["edges"]):
            if not isinstance(e, dict):
                diags.append(Diagnostic("schema", "edge must be an object", path=f"edges[{i}]"))
                continue
            ok = True
            for key in e:
                if key not in ("id", "src", "dst"):
                    diags.append(Diagnostic(
                        "schema", f"unexpected field {key!r}", path=f"edges[{i}].{key}"))
                    ok = False
            for key in ("id", "src", "dst"):
                if key not in e:
                    diags.append(Diagnostic("schema", f"missing field {key!r}", path=f"edges[{i}]"))
                    ok = False
                elif not isinstance(e[key], str):
                    diags.append(Diagnostic("schema", "must be a string", path=f"edges[{i}].{key}"))
                    ok = False
            if ok:
                edges.append(Edge(e["id"], e["src"], e["dst"]))
    if diags:
        _reference_raise(diags)

    declared = set(vertices)
    seen_v = set()
    for i, v in enumerate(vertices):
        if v in seen_v:
            diags.append(Diagnostic("semantic", f"duplicate vertex id {v!r}", path=f"vertices[{i}]"))
        seen_v.add(v)
    seen_e = set()
    for i, e in enumerate(edges):
        if e.id in seen_e:
            diags.append(Diagnostic("semantic", f"duplicate edge id {e.id!r}", path=f"edges[{i}].id"))
        seen_e.add(e.id)
        if e.src not in declared:
            diags.append(Diagnostic("semantic", f"undeclared vertex {e.src!r}", path=f"edges[{i}].src"))
        if e.dst not in declared:
            diags.append(Diagnostic("semantic", f"undeclared vertex {e.dst!r}", path=f"edges[{i}].dst"))
    _reference_raise(diags)

    return Graph(tuple(vertices), tuple(edges))


def _outcome(parse, document):
    """The returned graph, which must be valid, or the error type and each
    diagnostic's fields."""
    try:
        result = parse(document)
    except (ParseError, GraphSemanticError) as exc:
        return type(exc).__name__, [
            (d.kind, d.message, d.line, d.column, d.path) for d in exc.diagnostics]
    assert result.validate().ok
    assert all(type(e) is Edge for e in result.edges)
    return "ok", result


# A document starts as a valid graph over ids that include non-ASCII
# characters that are not whitespace; each item is then spoiled with a
# per-document probability, so clean documents, single defects and many
# defects all occur.
_IDS = ("u", "w", "x", "\u00e9", "v\u200b", "a.b", "7")
_SPACES = (" ", "  ", "\t", "\u3000", "\x1f", "\u00a0", "\u2003")
_NEWLINES = ("\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x1e", "\u2028")


def _random_dsl(rng):
    vs = rng.sample(_IDS, rng.randrange(1, len(_IDS)))
    lines = [["vertex", v] for v in vs]
    lines += [["edge", f"e{i}", rng.choice(vs), rng.choice(vs)] for i in range(rng.randrange(8))]
    spoil = rng.choice((0, 0, 0.1, 0.3))
    for i, words in enumerate(lines):
        if rng.random() >= spoil:
            continue
        defect = rng.randrange(6)
        if defect == 0:    # duplicate id
            lines[i] = list(rng.choice(lines))
        elif defect == 1:  # undeclared endpoint, or an edge before its vertices
            if words[0] == "edge":
                words[rng.choice((2, 3))] = "zz"
            else:
                lines.insert(0, ["edge", "e0", words[1], words[1]])
        elif defect == 2:  # wrong arity
            lines[i] = words[:-1] if rng.random() < 0.5 else words + ["w"]
        elif defect == 3:  # unknown directive
            words[0] = rng.choice(("vert", "Edge", "vertex:", "\u00e9dge", "-"))
        elif defect == 4:  # an id running into a comment
            words[-1] += "#" + rng.choice(_IDS)
        else:              # a comment-only or blank line
            lines.insert(i, rng.choice((["#", "vertex", "u"], ["#edge"], [])))
    out = []
    for words in lines:
        line = "".join(rng.choice(_SPACES) + w for w in words)
        if rng.random() < 0.5:
            line = line.lstrip()
        if rng.random() < 0.15:
            line += rng.choice(_SPACES) + "# " + rng.choice(_IDS + ("edge a b c",))
        out.append(line + rng.choice(_NEWLINES))
    return "".join(out)


def _random_json(rng):
    def value():
        return rng.choice((3, None, 1.5, True, ["u"], {"id": "u"}, "u"))

    vs = rng.sample(_IDS, rng.randrange(1, len(_IDS)))
    edges = [{"id": f"e{i}", "src": rng.choice(vs), "dst": rng.choice(vs)}
             for i in range(rng.randrange(8))]
    spoil = rng.choice((0, 0, 0.1, 0.3))
    for i, v in enumerate(vs):
        if rng.random() < spoil:
            vs[i] = rng.choice(vs) if rng.random() < 0.7 else value()
    for i, e in enumerate(edges):
        if rng.random() >= spoil:
            continue
        defect = rng.randrange(6)
        if defect == 0:    # duplicate id
            e["id"] = f"e{rng.randrange(len(edges))}"
        elif defect == 1:  # undeclared endpoint
            e[rng.choice(("src", "dst"))] = "zz"
        elif defect == 2:  # missing field, sometimes with a wrong one in its place
            del e[rng.choice(list(e))]
            if rng.random() < 0.5:
                e[rng.choice(("w", "ID", "src "))] = "u"
        elif defect == 3:  # extra field
            e[rng.choice(("w", "ID", "src "))] = value()
        elif defect == 4:  # field that is not a string
            e[rng.choice(("id", "src", "dst"))] = value()
        else:              # not an object
            edges[i] = value()
            continue
        keys = list(e)
        rng.shuffle(keys)
        edges[i] = {k: e[k] for k in keys}
    doc = {"vertices": vs, "edges": edges}
    roll = rng.random()
    if roll < 0.03:
        doc = rng.choice(([], "doc", 3, None))
    elif roll < 0.06:
        del doc[rng.choice(("vertices", "edges"))]
    elif roll < 0.09:
        doc["extra"] = 1
    elif roll < 0.12:
        doc[rng.choice(("vertices", "edges"))] = value()
    if rng.random() < 0.5:
        return doc  # a decoded document
    text = json.dumps(doc, indent=rng.choice((None, 1)))
    if rng.random() < 0.05:
        text = text[:rng.randrange(len(text) + 1)]  # often no longer valid JSON
    return text


def test_parse_dsl_matches_reference_route():
    rng = random.Random(2024)
    failures = 0
    for _ in range(2000):
        text = _random_dsl(rng)
        got = _outcome(parse_dsl, text)
        assert got == _outcome(_reference_parse_dsl, text), repr(text)
        failures += got[0] != "ok"
    assert 400 < failures < 1600  # both outcomes are well represented


def test_parse_json_matches_reference_route():
    rng = random.Random(2025)
    failures = 0
    for _ in range(2000):
        doc = _random_json(rng)
        got = _outcome(parse_json, doc)
        assert got == _outcome(_reference_parse_json, doc), repr(doc)
        failures += got[0] != "ok"
    assert 400 < failures < 1600


def test_parse_json_takes_non_string_keys_from_decoded_documents():
    doc = {"vertices": ["u"], "edges": [{1: "e", "src": "u", "dst": "u"}]}
    assert _outcome(parse_json, doc) == _outcome(_reference_parse_json, doc)
    assert _outcome(parse_json, doc)[1][0][4] == "edges[0].1"
