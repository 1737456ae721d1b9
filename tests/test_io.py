import json
import random
import re

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
    paths_of_length,
    power_graph,
    serialize_dsl,
    serialize_json,
)

from graphcstar import graphs
from graphcstar.graphs import Edge, ValidationIssue
from graphcstar.io_formats import _COMMENT, _DSL_ID, _TOKEN, Diagnostic

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

    _reference_raise(_reference_semantic_walk(vertices, edges))
    return Graph(tuple(vertices), tuple(edges))


def _reference_semantic_walk(vertices, edges):
    """The located diagnostics of the graph invariants, as parse_json worked
    them out before it shared Graph.validate's walk."""
    diags = []
    declared = set(vertices)
    seen_v = set()
    for i, v in enumerate(vertices):
        if v in seen_v:
            diags.append(Diagnostic("semantic", f"duplicate vertex id {v!r}", path=f"vertices[{i}]"))
        seen_v.add(v)
    seen_e = set()
    for i, (eid, src, dst) in enumerate(edges):
        if eid in seen_e:
            diags.append(Diagnostic("semantic", f"duplicate edge id {eid!r}", path=f"edges[{i}].id"))
        seen_e.add(eid)
        if src not in declared:
            diags.append(Diagnostic("semantic", f"undeclared vertex {src!r}", path=f"edges[{i}].src"))
        if dst not in declared:
            diags.append(Diagnostic("semantic", f"undeclared vertex {dst!r}", path=f"edges[{i}].dst"))
    return diags


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


# -- The shared validity walk ---------------------------------------------------
#
# Graph.validate, parse_json and power_graph's dotted-id route all run
# graphs._violations.  Graph.validate's loop as it was before is kept below;
# with _reference_semantic_walk above, it is the reference for that walk on
# seeded invalid vertex and edge lists.

def _reference_validate(vertices, rows):
    issues = []
    seen_v = set()
    for v in vertices:
        if v in seen_v:
            issues.append(ValidationIssue("duplicate id", v, f"duplicate vertex id {v!r}"))
        seen_v.add(v)
    seen_e = set()
    for eid, src, dst in rows:
        if eid in seen_e:
            issues.append(ValidationIssue("duplicate id", eid, f"duplicate edge id {eid!r}"))
        seen_e.add(eid)
        if src not in seen_v:
            issues.append(ValidationIssue(
                "dangling endpoint", eid, f"edge {eid!r} has undeclared src vertex {src!r}"))
        if dst not in seen_v:
            issues.append(ValidationIssue(
                "dangling endpoint", eid, f"edge {eid!r} has undeclared dst vertex {dst!r}"))
    return tuple(issues)


_DEFECTS = ("vertex", "edge", "src", "dst")
# Vertex and edge ids, the empty and dotted ones included.
_WALK_IDS = ("u", "w", "", ".", "a.b", "u.", "\u00e9")


def _invalid_parts(rng, defects):
    """A vertex list and an edge list with at least one of each defect in
    ``defects``: a duplicate vertex id, a duplicate edge id, an undeclared
    src, an undeclared dst."""
    vs = rng.sample(_WALK_IDS, rng.randint(1, 4))
    undeclared = [x for x in (*_WALK_IDS, "zz") if x not in vs]
    rows = [(eid, rng.choice(vs), rng.choice(vs))
            for eid in rng.sample(_WALK_IDS + ("e", "e.f"), rng.randint(1, 5))]
    for defect in defects:
        for _ in range(rng.randint(1, 2)):
            if defect == "vertex":
                vs.insert(rng.randint(0, len(vs)), rng.choice(vs))
            elif defect == "edge":
                rows.insert(rng.randint(0, len(rows)), (rng.choice(rows)[0], rng.choice(vs), rng.choice(vs)))
            else:
                i = rng.randrange(len(rows))
                eid, src, dst = rows[i]
                bad = rng.choice(undeclared)
                rows[i] = (eid, bad, dst) if defect == "src" else (eid, src, bad)
    return vs, rows


def _seeded_invalid_parts():
    """1,200 seeded ``(defects, vertices, rows, as_text)``: invalid vertex and
    edge lists, and whether ``parse_json`` reads each as a document or as
    its JSON text."""
    rng = random.Random(1919)
    for _ in range(1200):
        roll = rng.random()
        defects = (_DEFECTS if roll < 0.2 else (rng.choice(_DEFECTS),) if roll < 0.6
                   else tuple(rng.sample(_DEFECTS, rng.randint(2, 3))))
        vs, rows = _invalid_parts(rng, defects)
        yield defects, vs, rows, rng.random() >= 0.5


def test_shared_walk_matches_reference_routes():
    seen = dict.fromkeys((*_DEFECTS, "all"), 0)
    for defects, vs, rows, as_text in _seeded_invalid_parts():
        expected = _reference_validate(vs, rows)
        assert expected, (vs, rows)
        assert Graph(vs, rows).validate().issues == expected, (vs, rows)
        doc = {"vertices": vs, "edges": [{"id": e, "src": s, "dst": d} for e, s, d in rows]}
        with pytest.raises(GraphSemanticError) as info:
            parse_json(json.dumps(doc) if as_text else doc)
        assert list(info.value.diagnostics) == _reference_semantic_walk(vs, rows), (vs, rows)
        seen["all" if len(defects) == 4 else defects[0]] += 1
    assert min(seen.values()) > 100  # each defect alone, and all of them together


def _valid_parts(rng):
    """A valid vertex list, possibly empty, and edge list, possibly empty,
    over ids that an edge and a vertex may share."""
    vs = rng.sample(_WALK_IDS, rng.randint(0, 5))
    ids = rng.sample(_WALK_IDS + ("e", "e.f"), rng.randint(0, 6) if vs else 0)
    return vs, [(eid, rng.choice(vs), rng.choice(vs)) for eid in ids]


def test_set_passes_decide_what_the_reference_walk_finds():
    # The seeded invalid lists above and as many valid ones: the set passes
    # let through exactly the lists the old loop found nothing in, and the
    # walk reports the rest as it did.
    rng = random.Random(2020)
    parts = [(vs, rows) for _, vs, rows, _ in _seeded_invalid_parts()]
    parts += [_valid_parts(rng) for _ in range(len(parts))]
    parts += [([], []), ([""], []), ([""], [("", "", "")]), (["."], [(".", ".", ".")]),
              (["u"], [("u", "u", "u")]), ([], [("e", "u", "u")]), (["u", "u"], []),
              (["\u00e9", "a.b"], [("a.b", "\u00e9", "a.b"), ("\u00e9", "a.b", "\u00e9")])]
    valid = 0
    for vs, rows in parts:
        expected = _reference_validate(vs, rows)
        for edges in (rows, [Edge(*r) for r in rows]):
            result = Graph(vs, edges).validate()
            assert result.issues == expected and result.ok == (not expected), (vs, rows)
        valid += not expected
    assert valid >= 1200 and len(parts) - valid >= 1200
    assert sum(not vs for vs, _ in parts) > 50 and sum(not rows for _, rows in parts) > 200
    assert sum(any(e in vs for e, _, _ in rows) for vs, rows in parts) > 500


def test_power_graph_collisions_match_reference_validate():
    rng = random.Random(1920)
    pool = ("a", "b", "a.b", "b.a", "a.a", "b.b", ".", "")
    refused = 0
    for _ in range(300):
        vs = [f"v{i}" for i in range(rng.randint(1, 3))]
        rows = [(eid, rng.choice(vs), rng.choice(vs)) for eid in rng.sample(pool, rng.randint(1, 5))]
        g, n = Graph(vs, rows), rng.randint(2, 3)
        joined = [(".".join(p.edges), p.source, p.range) for p in paths_of_length(g, n)]
        issues = _reference_validate(vs, joined)
        if not issues:
            assert power_graph(g, n).edges == tuple(map(Edge._make, joined))
            continue
        with pytest.raises(ValueError) as info:
            power_graph(g, n)
        assert str(info.value) == ("power graph edge ids collide; avoid '.' in edge ids: "
                                   + "; ".join(i.message for i in issues))
        refused += 1
    assert 50 < refused < 250


def test_parse_json_returns_a_graph_proven_valid(monkeypatch):
    walks = []
    walk = graphs._violations

    def counting_walk(vertices, rows):
        walks.append(len(rows))
        return walk(vertices, rows)

    monkeypatch.setattr(graphs, "_violations", counting_walk)
    rng = random.Random(1921)
    for _ in range(200):
        vs = rng.sample(_WALK_IDS, rng.randint(1, 5))
        rows = [(eid, rng.choice(vs), rng.choice(vs)) for eid in rng.sample(_WALK_IDS, rng.randint(0, 5))]
        g = parse_json({"vertices": vs, "edges": [{"id": e, "src": s, "dst": d} for e, s, d in rows]})
        assert vars(g)["_validation"].ok
        assert g.vertices == tuple(vs) and g.edges == tuple(map(Edge._make, rows))
        assert walks == []  # the first read walks nothing again
        # The spy sees the walk of a graph built by hand.
        assert Graph(vs, rows).vertices == tuple(vs) and walks == [len(rows)]
        walks.clear()


# -- Parity with the previous writers --------------------------------------------
#
# The writers as they were before checking and quoting ids over the whole
# graph at once: one regex match per id, and one quoting call per id.

def _reference_serialize_dsl(g):
    for name in (*g.vertices, *(e[0] for e in g._rows)):
        if not _DSL_ID.match(name):
            raise ValueError(f"id {name!r} cannot be written in the DSL")
    lines = [f"vertex {v}" for v in g.vertices]
    lines += [f"edge {eid} {src} {dst}" for eid, src, dst in g._rows]
    return "\n".join(lines) + "\n"


def _reference_dot_quote(name):
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _reference_emit_dot(target):
    if isinstance(target, Graph):
        g, report = target, None
    else:
        g, report = target.graph, target
    cycle_edges = frozenset()
    marked_vertices = frozenset()
    header = []
    if report is not None:
        if report.violating_cycle is not None:
            cycle_edges = frozenset(report.violating_cycle.edges)
        full = frozenset(g.vertices)
        marked_vertices = frozenset(
            v for s in report.saturated_hereditary_lattice.elements if s and s != full for v in s)
        header.append(f"  // simplicity: {report.simplicity}")
    quoted = {v: _reference_dot_quote(v) for v in g.vertices}
    lines = ["digraph G {"]
    lines += header
    for v, name in quoted.items():
        attrs = ""
        if v in marked_vertices:
            attrs = " [style=filled, fillcolor=lightgrey]"
        lines.append(f"  {name}{attrs};")
    for eid, src, dst in g._rows:
        attrs = [f"label={_reference_dot_quote(eid)}"]
        if eid in cycle_edges:
            attrs.append("color=red")
        lines.append(f"  {quoted[src]} -> {quoted[dst]} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _written(write, target):
    try:
        return "ok", write(target)
    except ValueError as exc:
        return "ValueError", str(exc)


# Ids for the writer parity test are drawn from one of three pools: plain
# characters, plain ones with the two that DOT escapes, and those with the
# DSL's forbidden '#' and whitespace, where an id may also be empty.
_PLAIN = ("a", "b", "7", ".", "\u00e9", "\u03bb", "\u200b")
_ID_POOLS = (_PLAIN, _PLAIN + ('"', "\\"),
             _PLAIN + ('"', "\\", "#", "\t", "\x1f", " ", "\u3000"))


def _random_written_graph(rng):
    pool = rng.choice(_ID_POOLS)
    shortest = 0 if pool is _ID_POOLS[2] else 1

    def ids(count):
        found = []
        while len(found) < count:
            name = "".join(rng.choice(pool) for _ in range(rng.randint(shortest, 3)))
            if name not in found:
                found.append(name)
        return found

    vs = ids(rng.randint(1, 6))
    return Graph(vs, [(eid, rng.choice(vs), rng.choice(vs)) for eid in ids(rng.randrange(10))])


def test_writers_match_reference_route():
    rng = random.Random(2026)
    refused = escaped = red = grey = 0
    for _ in range(2000):
        g = _random_written_graph(rng)
        got = _written(serialize_dsl, g)
        assert got == _written(_reference_serialize_dsl, g), repr(g)
        refused += got[0] != "ok"
        report = classify(g)
        for target in (g, report):
            got = _written(emit_dot, target)
            assert got == _written(_reference_emit_dot, target), repr(g)
        escaped += "\\" in got[1]
        red += "color=red" in got[1]
        grey += "fillcolor=lightgrey" in got[1]
    # every route of both writers is well represented
    assert 300 < refused < 1000 and 600 < escaped < 1600 and red > 300 and grey > 300


def test_joined_id_check_agrees_with_id_regex_on_every_code_point():
    # serialize_dsl accepts "a" + c exactly when _DSL_ID matches it: the ids
    # the regex takes pass in bulk, and each one it refuses is refused alone.
    bad = []
    for plane in range(0, 0x110000, 0x10000):
        names = ["a" + chr(c) for c in range(plane, plane + 0x10000)]
        serialize_dsl(Graph([name for name in names if _DSL_ID.match(name)], ()))
        bad += [name for name in names if not _DSL_ID.match(name)]
    assert len(bad) == 30  # '#' and the 29 code points str.split splits on
    for name in bad:
        with pytest.raises(ValueError, match="cannot be written in the DSL"):
            serialize_dsl(Graph((name,), ()))


def test_writers_refuse_non_str_ids_with_type_error():
    # Outside the str-id contract, which no CLI input can break: the ids are
    # joined as text, so emit_dot raises TypeError (it raised AttributeError
    # from str.replace before), as serialize_dsl always did.
    g = Graph((1,), ((2, 1, 1),))
    for write in (serialize_dsl, emit_dot):
        with pytest.raises(TypeError):
            write(g)


# -- Parity with the per-row writers and the per-line comment rule ---------------
#
# The writers as they were before building their text in whole-graph passes:
# the same whole-graph id checks, then one formatted line per vertex and per
# edge, with a per-row test for the marks of a report.

def _per_row_serialize_dsl(g):
    vertices = g.vertices
    rows = g._rows
    names = [*vertices, *[e[0] for e in rows]]
    joined = " ".join(names)
    if "#" in joined or joined.split() != names:
        for name in names:
            if not _DSL_ID.match(name):
                raise ValueError(f"id {name!r} cannot be written in the DSL")
    lines = [f"vertex {v}" for v in vertices]
    lines += [f"edge {eid} {src} {dst}" for eid, src, dst in rows]
    return "\n".join(lines) + "\n"


def _per_row_emit_dot(target):
    if isinstance(target, Graph):
        g, report = target, None
    else:
        g, report = target.graph, target
    cycle_edges = frozenset()
    marked_vertices = frozenset()
    lines = ["digraph G {"]
    if report is not None:
        if report.violating_cycle is not None:
            cycle_edges = frozenset(report.violating_cycle.edges)
        full = frozenset(g.vertices)
        marked_vertices = frozenset(
            v for s in report.saturated_hereditary_lattice.elements if s and s != full for v in s)
        lines.append(f"  // simplicity: {report.simplicity}")
    vertices = g.vertices
    rows = g._rows
    names, labelled = vertices, rows
    joined = " ".join([*vertices, *[e[0] for e in rows]])
    if '"' in joined or "\\" in joined:
        quoted = {v: _reference_dot_quote(v)[1:-1] for v in vertices}
        names = quoted.values()
        labelled = [(_reference_dot_quote(eid)[1:-1], quoted[src], quoted[dst])
                    for eid, src, dst in rows]
    lines += [f'  "{name}" [style=filled, fillcolor=lightgrey];' if v in marked_vertices
              else f'  "{name}";' for v, name in zip(vertices, names)]
    lines += [f'  "{src}" -> "{dst}" [label="{eid}", color=red];' if row[0] in cycle_edges
              else f'  "{src}" -> "{dst}" [label="{eid}"];'
              for row, (eid, src, dst) in zip(rows, labelled)]
    lines.append("}")
    return "\n".join(lines) + "\n"


# Edge ids for the writer cases; two of them hold a character DOT escapes.
_EDGE_STEMS = ("e", "f", 'q"', "b\\")


def _writer_cases(rng):
    """Seeded graphs of every shape the writers treat apart: the empty
    graph, vertices only, loops and parallel edges, and ids holding a quote
    or a backslash."""
    yield Graph((), ())
    for _ in range(100):
        yield Graph([f"v{i}" for i in range(rng.randint(1, 6))], ())
    for _ in range(400):
        pool = rng.choice((("u", "w", "x", "é"), ("u", 'a"b', "c\\d", '"', "\\")))
        vs = rng.sample(pool, rng.randint(1, len(pool)))
        # Few vertices and up to eight edges, so loops and parallel edges abound.
        es = [(rng.choice(_EDGE_STEMS) + str(i), rng.choice(vs), rng.choice(vs))
              for i in range(rng.randrange(9))]
        yield Graph(vs, es)


def test_writers_match_per_row_writers():
    rng = random.Random(2027)
    seen = dict.fromkeys(("vertices only", "loop", "parallel", "escaped",
                          "red", "grey", "red and grey"), 0)
    for g in _writer_cases(rng):
        assert _written(serialize_dsl, g) == _written(_per_row_serialize_dsl, g), repr(g)
        assert emit_dot(g) == _per_row_emit_dot(g), repr(g)
        if not g.vertices:  # the empty graph has no report
            assert (serialize_dsl(g), emit_dot(g)) == ("\n", "digraph G {\n}\n")
            continue
        pairs = [(src, dst) for _, src, dst in g._rows]
        seen["vertices only"] += not pairs
        seen["loop"] += any(src == dst for src, dst in pairs)
        seen["parallel"] += len(set(pairs)) < len(pairs)
        seen["escaped"] += any('"' in x or "\\" in x for x in (*g.vertices, *g.edge_map))
        report = classify(g)
        got = emit_dot(report)
        assert got == _per_row_emit_dot(report), repr(g)
        red, grey = "color=red" in got, "fillcolor=lightgrey" in got
        seen["red"] += red
        seen["grey"] += grey
        seen["red and grey"] += red and grey
    assert min(seen.values()) >= 40, seen


def _uncommented(text):
    """``text`` with each comment cut off its line by the per-line rule."""
    out = []
    for line in text.splitlines(keepends=True):
        body = line.splitlines()[0]
        out.append(body.split("#", 1)[0] + line[len(body):])
    return "".join(out)


def _commented(text, place, rng):
    """``text``, which holds no '#', with comments on the first line, the
    last line, every line, inside one token (``a#b``), or nowhere."""
    def note(line):
        body = line.splitlines()[0]
        return body + rng.choice(("#", " # x", "#edge a b c", "\t#é#")) + line[len(body):]

    lines = text.splitlines(keepends=True)
    if place == "first":
        lines[0] = note(lines[0])
    elif place == "last":
        lines[-1] = note(lines[-1])
    elif place == "every":
        lines = [note(line) for line in lines]
    elif place == "token":
        at = rng.choice([m.start() + 1 for m in _TOKEN.finditer(text) if len(m.group()) > 1])
        return text[:at] + "#" + text[at:]
    return "".join(lines)


def test_comment_pass_matches_per_line_rule():
    # _reference_parse_dsl cuts the comment off each line on its own; every
    # outcome, and each diagnostic's line and column, must agree with it.
    rng = random.Random(2028)
    outcomes = {place: {"ok": 0, "failed": 0}
                for place in ("first", "last", "every", "token", "nowhere")}
    for _ in range(500):
        base = _uncommented(_random_dsl(rng))
        for place, seen in outcomes.items():
            text = _commented(base, place, rng)
            assert ("#" in text) == (place != "nowhere")
            got = _outcome(parse_dsl, text)
            assert got == _outcome(_reference_parse_dsl, text), (place, repr(text))
            seen["ok" if got[0] == "ok" else "failed"] += 1
    # both outcomes occur for every placement; a cut token mostly fails
    assert all(min(seen.values()) >= 10 for seen in outcomes.values()), outcomes


def test_comment_pattern_ends_where_splitlines_does():
    # parse_dsl's one comment pass is the per-line rule exactly when a
    # comment stops at each code point str.splitlines splits on and runs on
    # over every other one.  After each "x#y" comes one code point: a
    # comment stopping early would leave text behind, and one running over
    # a line break would lose a line.
    text = "".join("x#y" + chr(c) + "z" for c in range(0x110000))
    expected = [raw.split("#", 1)[0] for raw in text.splitlines()]
    assert len(expected) == 11  # split at the ten line breaks
    assert [line.rstrip(" ") for line in re.sub(_COMMENT, " ", text).splitlines()] == expected
    # A comment between "\r" and "\n" keeps them two line breaks.
    with pytest.raises(GraphSemanticError) as err:
        parse_dsl("vertex u\r#c\nvertex u\n")
    assert [(d.line, d.column) for d in err.value.diagnostics] == [(3, 8)]
