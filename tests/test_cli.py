import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcstar import Graph, parse_dsl, paths, serialize_dsl, serialize_json
from graphcstar.cli import build_parser, main

from conftest import FIXTURES_DIR, chain_graph, cycle_graph, fixture_path, one_edge_each, time_limit

G_SOURCE_LOOP = str(fixture_path("g_source_loop"))
G_CYCLE2 = str(fixture_path("g_cycle2"))
G_LCM = str(fixture_path("g_lcm"))
G_TWO_LOOPS = str(fixture_path("g_two_loops"))
G_EXIT = str(fixture_path("g_exit"))
G_ROSE2 = str(fixture_path("g_rose2"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_text(capsys):
    code, out, err = run(capsys, "analyze", G_SOURCE_LOOP)
    assert code == 0
    assert "simplicity: not_simple" in out
    assert "periodicity: nonperiodic" in out
    assert "saturated hereditary lattice: {} {u w}" in out
    assert "schweizer hypotheses: fail (has_sources)" in out
    assert "nonperiodic_trivial_invariant_not_simple" in out


def test_analyze_json_stable(capsys):
    code1, out1, _ = run(capsys, "analyze", G_TWO_LOOPS, "--format", "json")
    code2, out2, _ = run(capsys, "analyze", G_TWO_LOOPS, "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["simplicity"] == "not_simple"
    assert data["counterexample_flags"] == ["nonperiodic_but_not_L"]
    assert data["violating_cycle"] == ["c"]


def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", G_SOURCE_LOOP)
    assert code == 0
    assert "nonperiodic_but_not_L: yes" in out
    assert "nonperiodic_trivial_invariant_not_simple: yes" in out
    assert "periodic_disjoint_cycles: no" in out


def test_power_twelve_is_nine_loops(capsys):
    code, out, _ = run(capsys, "power", G_LCM, "-n", "12")
    assert code == 0
    edge_lines = [l for l in out.splitlines() if l.startswith("edge ")]
    assert len(edge_lines) == 9
    for line in edge_lines:
        _, _, src, dst = line.rsplit(" ", 3)
        assert src == dst


def test_power_json(capsys):
    code, out, _ = run(capsys, "power", G_CYCLE2, "-n", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["edges"] == [
        {"id": "e1.e2", "src": "v1", "dst": "v1"},
        {"id": "e2.e1", "src": "v2", "dst": "v2"},
    ]


def test_power_cap_exhaustion_exits_3(capsys):
    code, _, err = run(capsys, "power", G_EXIT, "-n", "12", "--cap-paths", "10")
    assert code == 3
    assert "power graph too large" in err


def test_negative_caps_exit_2(capsys, monkeypatch):
    for argv, name in ((["power", G_EXIT, "-n", "3", "--cap-paths", "-2"], "--cap-paths"),
                       (["cycles", G_EXIT, "--cap-paths", "-1"], "--cap-paths"),
                       (["ideals", G_EXIT, "--cap-vertices", "-2"], "--cap-vertices")):
        assert run(capsys, *argv) == (2, "", f"error: {name} must be nonnegative, got {argv[-1]}\n")
    for env, argv in (("GRAPHCSTAR_CAP_PATHS", ["power", G_EXIT, "-n", "3"]),
                      ("GRAPHCSTAR_CAP_VERTICES", ["analyze", G_EXIT])):
        monkeypatch.setenv(env, "-2")
        assert run(capsys, *argv) == (2, "", f"error: {env} must be nonnegative, got -2\n")
        monkeypatch.delenv(env)


def test_cap_flags_are_read_only_where_used(tmp_path, capsys):
    # Text classify and plain dot list no lattice, so they read no vertex
    # cap; a missing file is reported before any cap is read.
    for argv in (["classify", G_EXIT], ["dot", G_EXIT]):
        code, out, err = run(capsys, *argv, "--cap-vertices", "-1")
        assert code == 0 and out and err == "", argv
    missing = str(tmp_path / "missing.txt")
    for argv in (["ideals", missing, "--cap-vertices", "-1"],
                 ["power", missing, "-n", "2", "--cap-paths", "-1"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and "No such file" in err, argv


def test_power_on_sparse_graphs_takes_no_step_per_length(tmp_path, capsys):
    # The path count once charged a recurrence step E, not V+E, and so ran
    # all n steps on these graphs; they must answer at once.
    hundred = "".join(f"vertex v{i}\n" for i in range(100)) + "edge e v0 v1\n"
    for text, n in (("vertex u\n", 10**7), (hundred, 10**5)):
        path = tmp_path / "g.txt"
        path.write_text(text)
        m = paths.matrix_power(parse_dsl(text).adjacency_matrix(), n)
        with time_limit(2):
            code, out, _ = run(capsys, "power", str(path), "-n", str(n), "--format", "json")
        assert code == 0 and len(json.loads(out)["edges"]) == sum(map(sum, m))


def test_power_on_settling_counts_exits_3_at_once(tmp_path, capsys):
    # Each of the 200 vertices starts one path of every length, so the count
    # settles at the first step; it once squared the 200 x 200 matrix (8 s).
    path = tmp_path / "g.txt"
    path.write_text(serialize_dsl(one_edge_each(200, seed=5)))
    with time_limit(2):
        code, out, err = run(capsys, "power", str(path), "-n", "1000000", "--cap-paths", "10")
    assert code == 3 and out == ""
    assert "power graph too large: more than 10 edges exceeds cap 10" in err


def test_power_cap_on_huge_count_exits_3(capsys):
    # R_2 has 2^100000 paths of that length; the cap check must not format it.
    code, out, err = run(capsys, "power", G_ROSE2, "-n", "100000", "--cap-paths", "10")
    assert code == 3 and out == ""
    assert "power graph too large: more than 10 edges exceeds cap 10" in err


def test_power_past_every_dead_end_is_empty_at_once(tmp_path, capsys):
    # A 10^4-vertex chain starts no path of 10^4 edges; finding that once
    # took O(V^2) time and memory, and no cap stopped it.
    path = tmp_path / "chain.txt"
    path.write_text(serialize_dsl(chain_graph(10**4)))
    with time_limit(2):
        code, out, _ = run(capsys, "power", str(path), "-n", "10000", "--format", "json")
    assert code == 0 and json.loads(out)["edges"] == []


def test_power_does_not_validate_its_result_again(tmp_path, capsys, monkeypatch):
    validations, walks = [], []
    validate, walk = Graph.validate, paths._violations

    def counting_validate(self):
        validations.append(len(self._edges))
        return validate(self)

    def counting_walk(vertices, rows):
        walks.append(len(rows))
        return walk(vertices, rows)

    monkeypatch.setattr(Graph, "validate", counting_validate)
    monkeypatch.setattr(paths, "_violations", counting_walk)
    for fmt in ("text", "json"):
        walks.clear()
        code, out, _ = run(capsys, "power", G_EXIT, "-n", "10", "--format", fmt)
        assert code == 0 and out
        assert walks == []  # the parser and power_graph prove their graphs valid
    # With "." in an edge id, power_graph walks the result for colliding ids
    # once, and the serializer reuses its verdict.
    dotted = tmp_path / "dotted.txt"
    dotted.write_text("vertex v\nvertex w\nedge a.1 v w\nedge b w v\nedge c.2 w w\n")
    for fmt in ("text", "json"):
        walks.clear()
        code, out, _ = run(capsys, "power", str(dotted), "-n", "3", "--format", fmt)
        assert code == 0 and "a.1.b.a.1" in out
        assert walks == [8]
    assert validations == []


def test_cycles(capsys):
    code, out, _ = run(capsys, "cycles", G_EXIT)
    assert code == 0
    assert out.splitlines() == ["u: a", "u: b d", "w: c"]
    code, out, _ = run(capsys, "cycles", G_EXIT, "--format", "json")
    assert json.loads(out) == [["a"], ["b", "d"], ["c"]]


def test_cycles_on_long_cycle(tmp_path, capsys):
    g = cycle_graph(3000)
    path = tmp_path / "c3000.json"
    path.write_text(json.dumps(serialize_json(g)))
    code, out, err = run(capsys, "cycles", str(path))
    assert code == 0 and err == ""
    assert out.splitlines() == ["v1: " + " ".join(f"e{i}" for i in range(1, 3001))]


def test_ideals(capsys):
    code, out, _ = run(capsys, "ideals", G_TWO_LOOPS)
    assert code == 0
    assert out.splitlines() == ["{}", "{w}", "{u w}"]
    code, out, _ = run(capsys, "ideals", G_SOURCE_LOOP, "--kind", "hereditary",
                       "--format", "json")
    assert json.loads(out) == [[], ["w"], ["u", "w"]]


def test_witness_not_found_exits_3(capsys):
    code, out, _ = run(capsys, "witness", G_CYCLE2, "--support", "v1",
                       "--n", "2", "--epsilon", "0.5", "--max-length", "10")
    assert code == 3
    assert "no witness found up to length 10" in out
    code, out, _ = run(capsys, "witness", G_TWO_LOOPS, "--support", "w", "--epsilon", "0.5",
                       "--n", "1", "--max-length", "6", "--format", "json")
    assert (code, out) == (3, '{"found": false, "searched_max_length": 6}\n')


def test_witness_stops_at_the_first_length_without_a_path(tmp_path, capsys):
    # one edge u -> v: exit 3 at once, with the output of an exhausted bound
    path = tmp_path / "dag.txt"
    path.write_text("vertex u\nvertex v\nedge e u v\n")
    argv = ("witness", str(path), "--support", "u", "--epsilon", "0.5", "--n", "1",
            "--max-length", "1000000000000")
    with time_limit(5):
        assert run(capsys, *argv) == (
            3, "no witness found up to length 1000000000000 (existence is not ruled out)\n", "")
        assert run(capsys, *argv, "--format", "json") == (
            3, '{"found": false, "searched_max_length": 1000000000000}\n', "")


def test_witness_found(capsys):
    code, out, _ = run(capsys, "witness", G_EXIT, "--support", "u",
                       "--n", "2", "--epsilon", "0.5", "--max-length", "10")
    assert code == 0
    assert "witness: m=3 path: a a b" in out
    code, out, _ = run(capsys, "witness", G_EXIT, "--weights", "u=1.0,w=0.25",
                       "--n", "0", "--epsilon", "0.5", "--max-length", "4",
                       "--format", "json")
    data = json.loads(out)
    assert data == {"found": True, "m": 1, "path": ["a"], "source": "u"}


def test_witness_on_long_paths(capsys):
    # the witness is the second length-61 path from u; an eager search would
    # first build all 2^61 of them
    code, out, _ = run(capsys, "witness", G_ROSE2, "--support", "u",
                       "--epsilon", "0.5", "--n", "60", "--max-length", "62",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {"found": True, "m": 61, "path": ["f"] * 60 + ["g"],
                               "source": "u"}


def test_witness_threshold_does_not_round(tmp_path, capsys):
    # 1e16 - 0.5 rounds to 1e16 in floats; u still clears the threshold
    path = tmp_path / "g.txt"
    path.write_text("vertex u\nvertex w\nedge a u u\nedge b u w\nedge c w u\n")
    for weight in ("1e15", "1e16"):
        code, out, _ = run(capsys, "witness", str(path), "--weights", f"u={weight}",
                           "--epsilon", "0.5", "--max-length", "3")
        assert (code, out) == (0, "witness: m=1 path: a (source u)\n"), weight


def test_witness_bad_weights_exit_2(capsys):
    code, _, err = run(capsys, "witness", G_EXIT, "--weights", "u=-1",
                       "--n", "0", "--epsilon", "0.5", "--max-length", "4")
    assert code == 2 and "negative" in err


def test_witness_non_finite_numbers_exit_2(capsys):
    code, out, err = run(capsys, "witness", G_EXIT, "--support", "u",
                         "--epsilon", "nan", "--max-length", "4")
    assert code == 2 and out == "" and "epsilon must be finite" in err
    code, out, err = run(capsys, "witness", G_EXIT, "--weights", "u=inf",
                         "--epsilon", "0.5", "--max-length", "4")
    assert code == 2 and out == "" and "non-finite weight" in err


def test_parse_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("vertx u\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 1
    assert "line 1, column 1" in err and "unknown directive" in err


def test_semantic_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("vertex u\nedge e u zz\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert "line 2" in err and "undeclared vertex 'zz'" in err


def test_bad_json_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": }')
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 1


def test_deeply_nested_json_exits_1(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "analyze", str(deep))
    assert code == 1 and out == ""
    assert err == "error: line 1, column 100000: invalid JSON: nested too deeply (100000 levels)\n"


def test_non_utf8_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("vertex caf\u00e9\n".encode("latin-1"))
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xe9")


@pytest.mark.parametrize("name, text", [
    ("bom.txt", "vertex u\nedge a u u\n"),
    ("bom.json", '{"vertices":["u"],"edges":[{"id":"a","src":"u","dst":"u"}]}'),
], ids=["dsl", "json"])
def test_byte_order_mark_is_skipped(tmp_path, capsys, name, text):
    plain, marked = tmp_path / f"plain_{name}", tmp_path / name
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    expected = run(capsys, "classify", str(plain))
    assert expected[0] == 0
    assert run(capsys, "classify", str(marked)) == expected


@pytest.mark.parametrize("suffix", [".txt", ".json"])
@pytest.mark.parametrize("data", [b"\xef", b"\xef\xbb"], ids=["one byte", "two bytes"])
def test_truncated_byte_order_mark_is_not_utf8(tmp_path, capsys, data, suffix):
    # A BOM cut short at end of file is not UTF-8, not an empty graph.
    path = tmp_path / f"g{suffix}"
    path.write_bytes(data)
    for command in ("analyze", "dot", "cycles"):
        code, out, err = run(capsys, command, str(path))
        assert code == 1 and out == "", (command, err)
        assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte")
        assert err.endswith("position 0: unexpected end of data\n" if len(data) == 1
                            else "position 0-1: unexpected end of data\n")


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_carriage_returns_read_as_newlines(tmp_path, capsys, newline):
    text = "vertex u\nvertex w\nedge a u w\nedge b w w\n"
    plain, other = tmp_path / "plain.txt", tmp_path / "other.txt"
    plain.write_bytes(text.encode())
    other.write_bytes(("\ufeff" + text).replace("\n", newline).encode())
    expected = run(capsys, "classify", str(plain))
    assert expected[0] == 0
    assert run(capsys, "classify", str(other)) == expected
    other.write_bytes(newline.join(["vertex u", "", "edge a u zz", ""]).encode())
    code, _, err = run(capsys, "analyze", str(other))
    assert code == 2 and "line 3" in err and "undeclared vertex 'zz'" in err


@pytest.mark.parametrize("command", ["power", "cycles"])
def test_path_caps_name_their_variable_in_help(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "-h"])
    assert "GRAPHCSTAR_CAP_PATHS" in capsys.readouterr().out


def test_json_integer_too_long_exits_1(tmp_path, capsys):
    bad = tmp_path / "long.json"
    bad.write_text('{"vertices": [' + "7" * 5000 + '], "edges": []}')
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 1 and out == ""
    assert err == ("error: line 1, column 15: invalid JSON: "
                   "integer of 5000 digits exceeds the limit of 4300\n")


def test_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/g.txt")
    assert code == 1


def test_cap_vertices_flag_and_env(tmp_path, capsys, monkeypatch):
    big = tmp_path / "big.txt"
    lines = [f"vertex v{i}" for i in range(17)]
    big.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "ideals", str(big))
    assert code == 3 and "exceeds cap" in err
    # the verdicts need no listing; only output that prints a lattice refuses
    code, out, _ = run(capsys, "classify", str(big))
    assert code == 0 and "periodic_disjoint_cycles: no" in out
    for argv in (["analyze"], ["classify", "--format", "json"], ["dot", "--annotate"]):
        code, out, err = run(capsys, *argv, str(big))
        assert code == 3 and "exceeds cap" in err and out == "", argv
    code, out, _ = run(capsys, "ideals", str(big), "--cap-vertices", "17",
                       "--format", "json")
    assert code == 0 and len(json.loads(out)) == 2 ** 17

    monkeypatch.setenv("GRAPHCSTAR_CAP_VERTICES", "17")
    code, _, _ = run(capsys, "ideals", str(big))
    assert code == 0
    # explicit flag beats the environment
    code, _, err = run(capsys, "ideals", str(big), "--cap-vertices", "16")
    assert code == 3
    monkeypatch.setenv("GRAPHCSTAR_CAP_VERTICES", "bogus")
    code, _, err = run(capsys, "ideals", str(big))
    assert code == 2 and "must be an integer" in err
    # only the commands that list a lattice read the vertex cap
    for argv in (["analyze"], ["classify", "--format", "json"], ["dot", "--annotate"]):
        code, out, err = run(capsys, *argv, str(big))
        assert code == 2 and "must be an integer" in err and out == "", argv
    for argv in (["dot"], ["classify"], ["cycles"], ["power", "-n", "1"]):
        code, out, err = run(capsys, *argv, str(big))
        assert code == 0 and out and err == "", argv
    # and only the commands that enumerate paths read the path cap
    monkeypatch.delenv("GRAPHCSTAR_CAP_VERTICES")
    monkeypatch.setenv("GRAPHCSTAR_CAP_PATHS", "bogus")
    for argv in (["power", "-n", "1"], ["cycles"]):
        code, out, err = run(capsys, *argv, G_EXIT)
        assert code == 2 and "must be an integer" in err and out == "", argv
    code, out, _ = run(capsys, "analyze", G_EXIT)
    assert code == 0 and out


def test_cap_paths_env(capsys, monkeypatch):
    monkeypatch.setenv("GRAPHCSTAR_CAP_PATHS", "10")
    code, _, err = run(capsys, "power", G_EXIT, "-n", "12")
    assert code == 3
    code, _, _ = run(capsys, "power", G_EXIT, "-n", "12", "--cap-paths", "1000000")
    assert code == 0


def test_empty_graph(tmp_path, capsys):
    comment = tmp_path / "empty.txt"
    comment.write_text("# no vertices\n")
    empty = tmp_path / "empty.json"
    empty.write_text('{"vertices": [], "edges": []}')
    for path in (str(comment), str(empty)):
        # the verdicts need a period, which an empty graph does not have
        for argv in (["analyze"], ["classify"], ["dot", "--annotate"]):
            code, out, err = run(capsys, *argv, path)
            assert (code, out, err) == (2, "", "error: empty graph\n"), argv
        assert run(capsys, "ideals", path) == (0, "{}\n", "")
        assert run(capsys, "cycles", path) == (0, "no cycles\n", "")
        assert run(capsys, "dot", path) == (0, "digraph G {\n}\n", "")


def test_dot_outputs(capsys):
    code, out, _ = run(capsys, "dot", G_SOURCE_LOOP)
    assert code == 0
    assert out.count("->") == 2 and "color=red" not in out
    code, out, _ = run(capsys, "dot", G_TWO_LOOPS, "--annotate")
    assert code == 0
    assert 'label="c", color=red' in out
    assert "// simplicity: not_simple" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_dot_takes_no_format(capsys, fmt):
    # dot writes DOT only, so --format is refused rather than ignored.
    with pytest.raises(SystemExit) as exc:
        main(["dot", G_EXIT, "--format", fmt])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --format" in captured.err
    assert not hasattr(build_parser().parse_args(["dot", G_EXIT]), "format")


# -- Fuzzing the command line with arbitrary input files ------------------------

_FUZZ_IDS = st.sampled_from(["u", "w", "e", "f", "\u00e9", "zz"])
_dsl_text = st.lists(st.one_of(
    st.builds("vertex {}".format, _FUZZ_IDS),
    st.builds("edge {} {} {}".format, _FUZZ_IDS, _FUZZ_IDS, _FUZZ_IDS),
    st.text(max_size=12),
), max_size=10).map("\n".join)
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4)),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["vertices", "edges", "id", "src", "dst", "x"]), inner, max_size=4),
    max_leaves=12)
_json_text = st.one_of(
    st.builds(lambda vs, es: json.dumps({"vertices": vs, "edges": es}),
              st.lists(_FUZZ_IDS, max_size=4),
              st.lists(st.fixed_dictionaries(
                  {"id": _FUZZ_IDS, "src": _FUZZ_IDS, "dst": _FUZZ_IDS}), max_size=5)),
    _json_values.map(json.dumps))
_deep_text = st.builds(lambda n, opener: opener * n + "]" * n,
                       st.integers(500, 50_000), st.sampled_from(["[", '{"a":[']))


GOLDEN = json.loads((FIXTURES_DIR / "cli_golden.json").read_text())


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_stdout_matches_golden(key, capsys, monkeypatch):
    # key: the argv with the fixture file name in place of its path
    monkeypatch.delenv("GRAPHCSTAR_CAP_VERTICES", raising=False)
    monkeypatch.delenv("GRAPHCSTAR_CAP_PATHS", raising=False)
    command, name, *flags = key.split()
    assert run(capsys, command, str(FIXTURES_DIR / name), *flags) == (0, GOLDEN[key], "")


@st.composite
def _file_bytes(draw):
    """DSL, JSON or deeply nested text, sometimes spoiled by bytes that are
    not UTF-8, or raw bytes."""
    if draw(st.integers(0, 5)) == 0:
        return draw(st.binary(max_size=40))
    raw = draw(st.one_of(_dsl_text, _json_text, _deep_text)).encode("utf-8")
    if draw(st.booleans()):
        return raw
    at = draw(st.integers(0, len(raw)))
    return raw[:at] + draw(st.sampled_from([b"", b"\xff", b"\xc3(", b"\xed\xa0\x80"])) + raw[at:]


@given(data=_file_bytes(), suffix=st.sampled_from([".txt", ".json"]))
@settings(max_examples=150, deadline=None)
def test_cli_fuzz_exit_codes(data, suffix):
    try:
        data.decode("utf-8")
        readable = True
    except UnicodeDecodeError:
        readable = False
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"g{suffix}"
        path.write_bytes(data)
        for command in ("analyze", "dot", "cycles"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, str(path)])  # no exception may escape
            assert code in (0, 1, 2, 3, 4), (command, code)
            assert "Traceback" not in err.getvalue()
            if not readable:
                assert code == 1, (command, err.getvalue())


_weight_text = st.lists(st.one_of(_FUZZ_IDS, st.sampled_from(["=", ",", "inf", "nan", "-1"])),
                        max_size=8).map("".join)


@given(data=_file_bytes(), suffix=st.sampled_from([".txt", ".json"]),
       power=st.integers(-2, 40), cap=st.integers(-5, 10_000),
       weight_flag=st.sampled_from(["--support", "--weights"]), weights=_weight_text,
       n=st.integers(-2, 6), extra=st.integers(-1, 6),
       epsilon=st.sampled_from(["nan", "inf", "-1", "0", "0.5", "1", "3"]))
@settings(max_examples=150, deadline=None)
def test_cli_fuzz_flag_values(data, suffix, power, cap, weight_flag, weights, n, extra, epsilon):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"g{suffix}"
        path.write_bytes(data)
        # "=" keeps values such as "-1" from reading as flags; max-length
        # stays at most 12, so each search on the fuzzed graphs is quick
        witness = ["witness", str(path), f"{weight_flag}={weights}", f"--n={n}",
                   f"--max-length={n + extra}", f"--epsilon={epsilon}"]
        for argv in (["power", str(path), "-n", str(power), "--cap-paths", str(cap)],
                     ["cycles", str(path), "--cap-paths", str(cap)], witness):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)  # no exception may escape
            assert code in (0, 1, 2, 3, 4), (argv, code)
            assert "Traceback" not in err.getvalue()
