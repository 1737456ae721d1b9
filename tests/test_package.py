"""The package surface: which modules a CLI call loads, the public names of
``graphcstar``, and the behaviour of the value types."""

import copy
import dis
import doctest
import gc
import importlib
import json
import os
import pickle
import subprocess
import sys
import threading
import time
from pathlib import Path as FsPath

import pytest

import graphcstar
from graphcstar import (
    CapExceeded,
    Diagnostic,
    Edge,
    Graph,
    InvalidGraphError,
    Path,
    PathVector,
    PeriodicityVerdict,
    ReportFlags,
    SchweizerStatus,
    SubsetLattice,
    ValidationIssue,
    ValidationResult,
    VertexWeights,
    WitnessRequest,
    classify,
    lattice,
)

from conftest import FIXTURES_DIR, fixture_path

SRC = str(FsPath(graphcstar.__file__).resolve().parents[1])

# Runs the CLI as ``python -m graphcstar.cli`` does, then writes the names in
# sys.modules to the file given as the first argument.
_PROBE = """
import runpy, sys
out, sys.argv = sys.argv[1], ["graphcstar", *sys.argv[2:]]
code = 0
try:
    if sys.argv[1:]:
        runpy.run_module("graphcstar.cli", run_name="__main__", alter_sys=True)
    else:
        import graphcstar
except SystemExit as exc:
    code = exc.code
with open(out, "w") as fh:
    fh.write("\\n".join(sorted(sys.modules)))
sys.exit(code)
"""

VERDICT_STACK = {f"graphcstar.{m}" for m in ("conditions", "ideals", "verdicts")}
# Only ``power`` and ``cycles`` enumerate paths.
PATHS = "graphcstar.paths"
# Only ``witness`` builds vertex weights.
WITNESS_STACK = {"graphcstar.correspondence"}
# Slow standard library imports that no call needs: ``dataclasses`` loads
# ``inspect``, and the two took over half of an import of ``correspondence``.
NEVER_LOADED = {"dataclasses", "inspect"}


def _loaded(tmp_path, *argv) -> set[str]:
    out = tmp_path / "modules.txt"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(out), *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert bool(proc.stdout) == bool(argv)
    loaded = set(out.read_text().split())
    assert not loaded & NEVER_LOADED
    return loaded


@pytest.mark.parametrize("argv", [["dot"], ["power", "-n", "2"], ["cycles"]])
def test_graph_commands_load_no_verdict_code(tmp_path, argv):
    loaded = _loaded(tmp_path, argv[0], str(fixture_path("g_two_loops")), *argv[1:])
    assert {"graphcstar.graphs", "graphcstar.io_formats"} <= loaded
    assert not loaded & (VERDICT_STACK | WITNESS_STACK | {"json"})
    assert (PATHS in loaded) == (argv[0] != "dot")


def test_dot_on_json_loads_json_but_no_verdict_code(tmp_path):
    loaded = _loaded(tmp_path, "dot", str(FIXTURES_DIR / "g_exit.json"))
    assert "json" in loaded
    assert not loaded & (VERDICT_STACK | WITNESS_STACK | {PATHS})


def test_import_loads_no_submodule_and_analyze_loads_all(tmp_path):
    assert not {m for m in _loaded(tmp_path) if m.startswith("graphcstar.")}
    loaded = _loaded(tmp_path, "analyze", str(fixture_path("g_two_loops")))
    assert VERDICT_STACK <= loaded
    assert not loaded & (WITNESS_STACK | {PATHS})


@pytest.mark.parametrize("argv, needed, unneeded", [
    (["classify"], VERDICT_STACK, WITNESS_STACK | {PATHS}),
    (["dot", "--annotate"], VERDICT_STACK, WITNESS_STACK | {PATHS}),
    (["ideals"], {"graphcstar.ideals"},
     WITNESS_STACK | {"graphcstar.conditions", "graphcstar.verdicts", PATHS}),
    (["witness", "--support", "u", "--epsilon", "0.5", "--max-length", "3"],
     {"graphcstar.conditions", "graphcstar.correspondence"}, {"graphcstar.verdicts", PATHS}),
], ids=["classify", "dot --annotate", "ideals", "witness"])
def test_verdict_commands_load_what_they_run(tmp_path, argv, needed, unneeded):
    loaded = _loaded(tmp_path, argv[0], str(fixture_path("g_two_loops")), *argv[1:])
    assert needed <= loaded
    assert not loaded & unneeded


def _run_python(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return proc.stdout


def test_verdicts_in_process_load_no_path_enumeration():
    # A submodule read as an attribute of the package is imported with what
    # it imports itself, and nothing else.
    out = _run_python(
        "import sys, graphcstar\n"
        "print(graphcstar.ideals is sys.modules['graphcstar.ideals'])\n"
        "print(*sorted(m for m in sys.modules if m.startswith('graphcstar.')))\n"
        "g = graphcstar.Graph(('u', 'v'), [('a', 'u', 'v'), ('b', 'v', 'u'), ('c', 'u', 'u')])\n"
        "g.require_valid()\n"
        "graphcstar.report_to_dict(graphcstar.classify(g))\n"
        "print(*sorted(m for m in sys.modules if m.startswith('graphcstar.')))\n")
    assert out.split("\n") == ["True", "graphcstar.graphs graphcstar.ideals",
                                " ".join(sorted(VERDICT_STACK | {"graphcstar.graphs"})), ""]


def test_io_formats_compiles_no_pattern_at_import():
    # Each pattern is compiled by re on its first use, as only some inputs
    # need one.
    out = _run_python(
        "import re, graphcstar.io_formats as m\n"
        "print(*[k for k, v in vars(m).items() if isinstance(v, re.Pattern)])\n")
    assert out == "\n"


def _imports(code) -> list[str]:
    """The modules ``code`` and the functions nested in it import."""
    found = [ins.argval for ins in dis.get_instructions(code) if ins.opname == "IMPORT_NAME"]
    for const in code.co_consts:
        if isinstance(const, type(code)):
            found += _imports(const)
    return found


def test_timed_verdict_routes_import_nothing_when_called():
    # An import inside a function costs 1.5-2.5 us per call, a large share of
    # a witness search on a small graph; these run at every call.
    from graphcstar import cli, conditions, verdicts
    for fn in (conditions.find_witness, conditions.condition_L, conditions.periodicity,
               verdicts.classify, verdicts.report_to_dict, vars(Graph)["_condensation"].build):
        assert _imports(fn.__code__) == [], fn.__qualname__
    # The oracle and the CLI handlers load what they run on their first call.
    for fn in (conditions.condition_L_bruteforce, cli._cmd_power, cli._cmd_cycles):
        assert _imports(fn.__code__) == ["paths"], fn.__qualname__


# A parsed graph is proven valid by its parser, so no subcommand checks it
# again; "power" builds its result proven valid as well.
@pytest.mark.parametrize("fixture", ["g_exit.txt", "g_exit.json"])
@pytest.mark.parametrize("argv", [
    ["analyze"], ["classify"], ["ideals"],
    ["witness", "--support", "u", "--epsilon", "0.5", "--max-length", "3"],
    ["power", "-n", "3"], ["cycles"], ["dot"], ["dot", "--annotate"],
], ids=lambda argv: " ".join(argv[:2]) if argv[0] == "dot" else argv[0])
def test_commands_do_not_validate_the_parsed_graph(fixture, argv, capsys, monkeypatch):
    from graphcstar.cli import main
    calls = []
    validate = Graph.validate

    def counting(self):
        calls.append(len(self._edges))
        return validate(self)

    monkeypatch.setattr(Graph, "validate", counting)
    assert main([argv[0], str(FIXTURES_DIR / fixture), *argv[1:]]) == 0
    assert capsys.readouterr().out and calls == []


# The public names by defining module, as the package has always exported
# them; InternalInvariantError is defined in graphs and re-exported here.
PUBLIC = {
    "conditions": ["ConditionL", "ConditionS", "PeriodicityVerdict", "WitnessRequest",
                   "condition_L", "condition_L_bruteforce", "condition_S", "find_witness",
                   "is_disjoint_cycles", "is_nonreturning_set", "is_returning", "periodicity"],
    "correspondence": ["PathVector", "VertexWeights", "inner_product", "is_nonreturning_vector",
                       "left_action", "norm", "operator_sandwich", "sup_norm"],
    "graphs": ["CapExceeded", "Connectivity", "Edge", "Graph", "InvalidGraphError", "Path",
               "ValidationIssue", "ValidationResult", "VertexClasses", "connectivity",
               "vertex_classes"],
    "ideals": ["SubsetLattice", "is_hereditary", "is_saturated", "lattice", "lattice_bruteforce",
               "saturated_hereditary_closure"],
    "io_formats": ["Diagnostic", "FormatError", "GraphSemanticError", "ParseError", "emit_dot",
                   "parse_dsl", "parse_json", "serialize_dsl", "serialize_json"],
    "paths": ["count_paths", "cycle_exits", "paths_of_length", "power_graph", "simple_cycles"],
    "verdicts": ["CITATIONS", "AnalysisReport", "InternalInvariantError", "ReportFlags",
                 "SchweizerStatus", "classify", "report_to_dict", "schweizer_check",
                 "simplicity_verdict"],
}


def test_public_surface():
    names = [name for names in PUBLIC.values() for name in names]
    assert len(names) + len(PUBLIC) == 67
    assert graphcstar.__all__ == sorted([*names, *PUBLIC])
    for module, names in PUBLIC.items():
        mod = importlib.import_module(f"graphcstar.{module}")
        assert getattr(graphcstar, module) is mod
        for name in names:
            assert getattr(graphcstar, name) is getattr(mod, name), name
    assert set(graphcstar.__all__) <= set(dir(graphcstar))
    namespace: dict = {}
    exec("from graphcstar import *", namespace)
    assert all(namespace[name] is getattr(graphcstar, name) for name in graphcstar.__all__)
    assert graphcstar.InternalInvariantError is graphcstar.verdicts.InternalInvariantError
    assert graphcstar.InternalInvariantError is graphcstar.graphs.InternalInvariantError
    with pytest.raises(AttributeError, match="no_such_name"):
        graphcstar.no_such_name


def _value_cases():
    """(value, an equal value built another way, an unequal value, the fields
    equality and hashing read, a field name, the repr)."""
    g = Graph(("u",), (Edge("e", "u", "u"),))
    p = g.path(["e", "e"])
    v = Graph(("u", "u"), ()).validate()
    d = Diagnostic("syntax", "bad", line=2, column=3)
    a = VertexWeights(g, {"u": 1.0})
    x = PathVector.delta(g.path(["e"]))
    lat = lattice(g, "hereditary")
    report = classify(g)
    flag_values = (True,) * 6 + (False,) * 3 + (True,) * 2
    citations = ("simplicity-criterion", "l-iff-s-no-sinks", "no-sinks-injectivity",
                 "schweizer-simplicity", "cycle-decomposition-periodicity")
    g_text = "Graph(vertices=('u',), edges=(Edge(id='e', src='u', dst='u'),))"
    flags_text = ("ReportFlags(no_sinks=True, no_sources=True, finite=True, full=True, "
                  "unital=True, injective_left_action=True, condition_L=False, "
                  "condition_S=False, nonperiodic=False, trivial_hereditary=True, "
                  "trivial_saturated_hereditary=True)")
    return [
        (g, Graph(vertices=["u"], edges=[("e", "u", "u")]), Graph(("u",), ()),
         (g.vertices, g.edges), "vertices",
         "Graph(vertices=('u',), edges=(Edge(id='e', src='u', dst='u'),))"),
        (p, Path(graph=Graph((), ()), edges=("e", "e")), Path(g, ("e",)),
         (p.edges,), "edges",
         "Path(edges=('e', 'e'))"),
        (v, ValidationResult(issues=(ValidationIssue("duplicate id", "u", "duplicate vertex id 'u'"),)),
         ValidationResult(()),
         (v.issues,), "issues",
         "ValidationResult(issues=(ValidationIssue(kind='duplicate id', offender='u', "
         "message=\"duplicate vertex id 'u'\"),))"),
        (d, Diagnostic(kind="syntax", message="bad", line=2, column=3, path=None),
         Diagnostic("syntax", "bad", line=2),
         ("syntax", "bad", 2, 3, None), "kind",
         "Diagnostic(kind='syntax', message='bad', line=2, column=3, path=None)"),
        (PeriodicityVerdict(True, 1, "structural"),
         PeriodicityVerdict(periodic=True, minimal_period=1, method="structural",
                            searched_bound=None),
         PeriodicityVerdict(True, 1, "direct-power", 1),
         (True, 1, "structural", None), "periodic",
         "PeriodicityVerdict(periodic=True, minimal_period=1, method='structural', "
         "searched_bound=None)"),
        (WitnessRequest(a, 0, 0.5, 3),
         WitnessRequest(a=VertexWeights.indicator(g, ["u"]), n=0, epsilon=0.5, max_length=3),
         WitnessRequest(a, 1, 0.5, 3),
         None, "a",  # vertex weights hold a dict, so unhashable
         "WitnessRequest(a=VertexWeights(weights={'u': 1.0}), n=0, epsilon=0.5, max_length=3)"),
        (a, VertexWeights(graph=Graph(["u"], [("e", "u", "u")]), weights={"u": 1}),
         VertexWeights(g, {"u": 2.0}),
         None, "weights",
         "VertexWeights(weights={'u': 1.0})"),
        (x, PathVector(graph=g, length=1, weights={Path(g, ("e",)): 1}),
         PathVector(g, 2, {p: 1.0}),
         None, "length",
         "PathVector(length=1, weights={Path(edges=('e',)): (1+0j)})"),
        (lat, SubsetLattice(graph=Graph(["u"], [("e", "u", "u")]), kind="hereditary",
                            elements=(frozenset(), frozenset({"u"}))),
         lattice(g, "saturated_hereditary"),
         (g, "hereditary", (frozenset(), frozenset({"u"}))), "kind",
         f"SubsetLattice(graph={g_text}, kind='hereditary', "
         "elements=(frozenset(), frozenset({'u'})))"),
        (report.flags, ReportFlags(*flag_values), classify(Graph(("u",), ())).flags,
         flag_values, "condition_L", flags_text),
        (report, classify(Graph(["u"], [("e", "u", "u")])), classify(g, cap=17),
         (g, report.flags, "not_simple", "fails_L", SchweizerStatus(True, ()), "not_simple",
          ("periodic_disjoint_cycles",), citations, 1, Path(g, ("e",)), 16), "flags",
         f"AnalysisReport(graph={g_text}, flags={flags_text}, simplicity='not_simple', "
         "condition_S_reason='fails_L', schweizer=SchweizerStatus(holds=True, failed=()), "
         "schweizer_predicted='not_simple', counterexample_flags=('periodic_disjoint_cycles',), "
         f"citations={citations!r}, minimal_period=1, violating_cycle=Path(edges=('e',)), "
         "cap=16)"),
    ]


@pytest.mark.parametrize("value, same, other, fields, field, text", _value_cases(),
                         ids=["Graph", "Path", "ValidationResult", "Diagnostic",
                              "PeriodicityVerdict", "WitnessRequest", "VertexWeights",
                              "PathVector", "SubsetLattice", "ReportFlags", "AnalysisReport"])
def test_value_types(value, same, other, fields, field, text):
    assert repr(value) == text
    assert value == same and not value != same
    assert value != other and not value == other
    assert value != object() and not value == object()
    if fields is None:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(same) == hash(fields)
    for name in (field, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == text
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value)
        assert clone == value and repr(clone) == text
        if isinstance(value, Path):
            assert clone.graph == value.graph


def test_graph_pickles_by_value():
    # A copy carries neither the memoised indexes nor the cached verdict: a
    # parsed graph, recorded valid when built, is checked again when read.
    # Reading the Edge view, which then takes the place of the plain rows,
    # changes none of the value behaviour either.
    vs = tuple(f"v{i}" for i in range(200))
    g = graphcstar.parse_dsl("".join(f"vertex {v}\n" for v in vs) + "".join(
        f"edge e{i} {vs[i % 200]} {vs[i * 7 % 200]}\n" for i in range(600)))
    plain = copy.copy(g)
    value = (pickle.dumps(g), hash(g), repr(g))
    classify(g)
    assert (pickle.dumps(g), hash(g), repr(g)) == value
    assert type(g._rows[0]) is tuple and g.edges is g._rows is vars(g)["_edges"]
    assert (pickle.dumps(g), hash(g), repr(g)) == value
    assert g == plain and plain == g and type(plain._rows[0]) is tuple
    for clone in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert clone == g and "_validation" not in vars(clone)
        assert clone.vertices == vs and vars(clone)["_validation"].ok


def test_readme_examples_run():
    readme = FsPath(__file__).resolve().parents[1] / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.failed == 0 and result.attempted >= 10, result


def test_witness_request_checks_on_unpickling():
    g = Graph(("u",), (Edge("e", "u", "u"),))
    unchecked = tuple.__new__(WitnessRequest, (VertexWeights(g, {"u": 1.0}), -1, 0.5, 3))
    with pytest.raises(ValueError, match="n must be nonnegative"):
        pickle.loads(pickle.dumps(unchecked))


def test_weights_and_vectors_check_on_unpickling():
    g = Graph(("u",), (Edge("e", "u", "u"),))
    for unchecked, message in [
        (tuple.__new__(VertexWeights, (g, {"u": -1.0})), "negative weight"),
        (tuple.__new__(PathVector, (g, 0, {})), "length at least 1"),
    ]:
        for clone in (lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy):
            with pytest.raises(ValueError, match=message):
                clone(unchecked)


def test_weights_and_vectors_are_read_only():
    # The checked weights are held in a read-only view of a dict of their
    # own, so no write, in place or through the caller's dict, passes the
    # checks by: not an unknown vertex, a negative weight or a stray path.
    g = Graph(("u",), (Edge("e", "u", "u"),))
    given = {"u": 1.0}
    a = VertexWeights(g, given)
    x = PathVector.delta(g.path(["e"]))
    given["u"] = -1.0
    for weights, key in ((a.weights, "zz"), (a.weights, "u"), (x.weights, g.path(["e", "e"]))):
        with pytest.raises(TypeError):
            weights[key] = -2.0
        with pytest.raises(TypeError):
            del weights[key]
        with pytest.raises(AttributeError):
            weights.update({key: -2.0})
    assert a.weights == {"u": 1.0} and x.weights == {g.path(["e"]): 1.0}


def test_weights_and_vectors_do_not_repeat_as_tuples():
    g = Graph(("u",), (Edge("e", "u", "u"),))
    a = VertexWeights(g, {"u": 1.0})
    x = PathVector.delta(g.path(["e"]))
    assert 2 * x == PathVector(g, 1, {g.path(["e"]): 2})
    for operation in (lambda: x * 2, lambda: x * x, lambda: (1,) + x, lambda: a * 2,
                      lambda: 2 * a, lambda: a + a, lambda: (1,) + a):
        with pytest.raises(TypeError):
            operation()


def test_witness_request_does_not_concatenate_or_repeat_as_a_tuple():
    g = Graph(("u",), (Edge("e", "u", "u"),))
    request = WitnessRequest(VertexWeights(g, {"u": 1.0}), 0, 0.5, 3)
    for operation in (lambda: request + request, lambda: request * 2, lambda: 2 * request,
                      lambda: request + (1,), lambda: (1,) + request):
        with pytest.raises(TypeError, match="WitnessRequest"):
            operation()


def test_make_and_replace_check_their_fields():
    g = Graph(("u",), (Edge("e", "u", "u"),))
    a = VertexWeights(g, {"u": 1.0})
    request = WitnessRequest(a, 0, 0.5, 3)
    for build, message in [
        (lambda: a._replace(weights={"u": -1.0}), "negative weight"),
        (lambda: VertexWeights._make((g, {"zz": float("nan")})), "unknown vertex 'zz'"),
        (lambda: request._replace(n=-5), "n must be nonnegative"),
        (lambda: PathVector._make((g, 0, {})), "length at least 1"),
    ]:
        with pytest.raises(ValueError, match=message):
            build()
    assert a._replace(weights={"u": 2}) == VertexWeights(g, {"u": 2.0})
    assert request._replace(n=1) == WitnessRequest._make((a, 1, 0.5, 3))


# A graph with an exitless loop (c) and a nontrivial saturated hereditary
# set ({w}), so a report marks both in DOT.
_DECLARED = (("a", "u", "u"), ("b", "u", "w"), ("c", "w", "w"))
_DSL = "vertex u\nvertex w\n" + "".join(f"edge {e} {s} {d}\n" for e, s, d in _DECLARED)


def test_graphs_store_rows_the_collector_drops():
    # CPython stops scanning a tuple of untracked items, such as strings,
    # once a collection has passed over it; it never stops scanning a tuple
    # subclass such as Edge.
    document = json.dumps({"vertices": ["u", "w"],
                           "edges": [dict(zip(("id", "src", "dst"), e)) for e in _DECLARED]})
    graphs = [graphcstar.parse_dsl(_DSL), graphcstar.parse_json(document),
              Graph(("u", "w"), list(_DECLARED))]
    for g in graphs:
        graphcstar.saturated_hereditary_closure(g, ["u"])  # builds _out and _in
    gc.collect()
    gc.collect()
    for g in graphs:
        held = [*g._rows, *g._out.values(), *g._in.values()]
        assert len(held) == 7 and not any(map(gc.is_tracked, held))


def test_no_operation_builds_the_edge_view():
    g = graphcstar.parse_dsl(_DSL)
    report = classify(g)
    graphcstar.report_to_dict(report)
    assert "color=red" in graphcstar.emit_dot(report) and "lightgrey" in graphcstar.emit_dot(report)
    graphcstar.emit_dot(g)
    graphcstar.serialize_dsl(g)
    graphcstar.serialize_json(g)
    graphcstar.vertex_classes(g)
    graphcstar.periodicity(g)
    graphcstar.periodicity(g, method="direct-power")
    graphcstar.condition_L(g)
    graphcstar.condition_S(g)
    graphcstar.connectivity(g)
    graphcstar.saturated_hereditary_closure(g, ["w"])
    lattice(g, "hereditary")
    lattice(g, "saturated_hereditary")
    graphcstar.count_paths(g, 3)
    graphcstar.power_graph(g, 3)
    graphcstar.simple_cycles(g)
    assert graphcstar.find_witness(g, WitnessRequest(VertexWeights(g, {"u": 1.0}), 0, 0.5, 4))
    assert "edges" not in vars(g) and "edge_map" not in vars(g)

    # The views hold Edges equal to the declared triples.
    assert g.out_edges("u") == _DECLARED[:2] and g.out_edges("u")[1] is g.edges[1]
    assert g.edges == _DECLARED and g.edge_map == {e[0]: e for e in _DECLARED}
    assert all(type(e) is Edge for e in (*g.edges, *g.edge_map.values()))
    # A graph of Edges over the same strings is the same value.
    h = Graph(g.vertices, [Edge(*e) for e in g._rows])
    assert g == h and hash(g) == hash(h) and repr(g) == repr(h)
    assert pickle.dumps(g) == pickle.dumps(h)


def test_graph_indexes_are_read_only():
    g = graphcstar.parse_dsl("vertex u\nvertex w\nedge a u w\nedge b w u\n")
    for index, key in ((g.vertex_pos, "u"), (g.edge_map, "a")):
        with pytest.raises(AttributeError):
            index.pop(key)
        with pytest.raises(TypeError):
            del index[key]
        with pytest.raises(TypeError):
            index[key] = None
    assert g.vertex_pos == {"u": 0, "w": 1} and g.edge_map == {"a": g.edges[0], "b": g.edges[1]}
    assert g.out_edges("u") == (Edge("a", "u", "w"),)
    assert VertexWeights(g, {"u": 1.0}).weights == {"u": 1.0}
    assert g.path(["a", "b"]).is_cycle()


def test_degree_facts_build_no_edge_lists():
    # The degree facts come from the counts of vertices that emit and that
    # receive an edge; none of them lists each vertex's edges, and the graph
    # keeps no per-vertex set for them.
    g = Graph(("u", "w"), (("a", "u", "u"), ("b", "u", "w")))  # w is a sink
    fresh = Graph(g._vertices, g._edges)
    assert graphcstar.vertex_classes(g) == ({"w"}, set(), {"u"})
    assert graphcstar.periodicity(g) == (False, None, "structural", None)
    assert not graphcstar.is_disjoint_cycles(g)
    assert graphcstar.condition_S(g) == (False, "has_sinks")
    assert "_out" not in vars(g) and "_in" not in vars(g)
    assert vars(g)["_emitting"] == 1 and vars(g)["_receiving"] == 2
    classify(fresh)
    assert vars(fresh)["_emitting"] == 1 and vars(fresh)["_receiving"] == 2
    assert not any(isinstance(memo, (set, frozenset)) for memo in vars(fresh).values())


def test_threads_reading_a_fresh_graph_agree():
    vs = tuple(f"v{i}" for i in range(3000))
    es = [(f"e{i}", v, vs[(i * 7 + 1) % len(vs)]) for i, v in enumerate(vs)]
    g = Graph(vs, es)
    start = threading.Barrier(8)
    seen = [None] * 8

    def read(i):
        start.wait(timeout=60)
        seen[i] = g._condensation

    threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads mid-build
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    want = Graph(vs, es)._condensation
    assert all(condensation == want for condensation in seen) and g._condensation in seen


def test_threads_reading_a_fresh_power_graph_agree():
    # Reading the edges swaps the Edge view in for the plain rows in place;
    # threads that read the view, or compare, hash and index the graph
    # meanwhile, must neither find the rows gone nor see other values, and
    # no index built on the plain rows may outlive the swap.
    g = Graph(("u",), (("f", "u", "u"), ("g", "u", "u")))
    want = graphcstar.power_graph(g, 11)
    rows = want._rows
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads mid-swap
    try:
        for _ in range(5):
            p = graphcstar.power_graph(g, 11)

            def swap():
                time.sleep(0)  # so that the indexes start on the plain rows
                return p.edges

            readers = (
                lambda: (p._out, p._in, p._row_of),
                swap,
                lambda: p.out_edges("u"),
                swap,
                lambda: (p == want, hash(p) == hash(want), p._rows),
                swap,
            )
            start = threading.Barrier(len(readers))
            seen = [None] * len(readers)

            def read(i):
                start.wait(timeout=60)
                try:
                    seen[i] = readers[i]()
                except Exception as e:
                    seen[i] = e

            threads = [threading.Thread(target=read, args=(i,)) for i in range(len(readers))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert not any(isinstance(s, Exception) for s in seen), seen
            assert seen[4][:2] == (True, True) and seen[4][2] == rows, seen[4]
            assert seen[2] == rows and all(type(e) is Edge for e in seen[2])
            assert p.edges is p._rows and all(s is p.edges for s in seen[1::2])
            indexed = (*p._out["u"], *p._in["u"], *p._row_of.values())
            assert all(type(e) is Edge for e in indexed)
    finally:
        sys.setswitchinterval(interval)


def test_report_lists_its_lattices_on_each_read():
    report = classify(Graph(("u", "w"), (Edge("a", "u", "w"),)))
    first, second = report.hereditary_lattice, report.hereditary_lattice
    assert first == second and first is not second
    wide = classify(Graph(tuple(f"v{i}" for i in range(17)), ()))
    assert wide.flags.nonperiodic and not wide.flags.trivial_hereditary
    for _ in range(2):
        with pytest.raises(CapExceeded, match="17 vertices exceeds cap 16"):
            wide.hereditary_lattice


# Three ways a Graph can be invalid.  Each names vertex "u" and edge "a",
# so the calls below pass arguments that would be valid on a valid graph.
INVALID_GRAPHS = {
    "dangling endpoint": (("u",), (Edge("a", "u", "u"), Edge("b", "u", "w"))),
    "duplicate vertex": (("u", "u"), (Edge("a", "u", "u"),)),
    "no vertices, dangling edge": ((), (Edge("a", "u", "u"),)),
}
_LOOP = Graph(("u",), (("a", "u", "u"),))
_REQUEST = WitnessRequest(VertexWeights(_LOOP, {"u": 1.0}), 0, 0.5, 2)

# Every public operation that takes a Graph, with its other arguments valid.
# find_witness cannot get weights over an invalid graph, so it gets weights
# over a valid one and must still report the invalid graph.
REFUSING_CALLS = {
    "Graph.vertices": lambda g: g.vertices,
    "Graph.edges": lambda g: g.edges,
    "Graph.out_edges": lambda g: g.out_edges("u"),
    "Graph.adjacency_matrix": lambda g: g.adjacency_matrix(),
    "Graph.path": lambda g: g.path(["a"]),
    "Path.source": lambda g: Path(g, ("a",)).source,
    "vertex_classes": lambda g: graphcstar.vertex_classes(g),
    "paths_of_length": lambda g: graphcstar.paths_of_length(g, 1),
    "paths_of_length filtered": lambda g: graphcstar.paths_of_length(
        g, 1, from_vertices=["u"], to_vertices=["u"]),
    "count_paths": lambda g: graphcstar.count_paths(g, 2),
    "power_graph": lambda g: graphcstar.power_graph(g, 2),
    "simple_cycles": lambda g: graphcstar.simple_cycles(g),
    "cycle_exits": lambda g: graphcstar.cycle_exits(g, Path(g, ("a",))),
    "connectivity": lambda g: graphcstar.connectivity(g),
    "condition_L": lambda g: graphcstar.condition_L(g),
    "condition_L_bruteforce": lambda g: graphcstar.condition_L_bruteforce(g),
    "condition_S": lambda g: graphcstar.condition_S(g),
    "is_disjoint_cycles": lambda g: graphcstar.is_disjoint_cycles(g),
    "periodicity": lambda g: graphcstar.periodicity(g),
    "periodicity direct-power": lambda g: graphcstar.periodicity(g, method="direct-power"),
    "periodicity bounded": lambda g: graphcstar.periodicity(g, method="direct-power", bound=3),
    "find_witness": lambda g: graphcstar.find_witness(g, _REQUEST),
    "VertexWeights": lambda g: VertexWeights(g, {"u": 1.0}),
    "VertexWeights.indicator": lambda g: VertexWeights.indicator(g, ["u"]),
    "PathVector": lambda g: graphcstar.PathVector(g, 1, {}),
    "PathVector.delta": lambda g: graphcstar.PathVector.delta(Path(g, ("a",))),
    "is_hereditary": lambda g: graphcstar.is_hereditary(g, ["u"]),
    "is_hereditary of nothing": lambda g: graphcstar.is_hereditary(g, []),
    "is_saturated": lambda g: graphcstar.is_saturated(g, ["u"]),
    "saturated_hereditary_closure": lambda g: graphcstar.saturated_hereditary_closure(g, ["u"]),
    "lattice": lambda g: lattice(g, "hereditary"),
    "lattice saturated": lambda g: lattice(g, "saturated_hereditary"),
    "lattice_bruteforce": lambda g: graphcstar.lattice_bruteforce(g, "hereditary"),
    "lattice_bruteforce saturated": lambda g: graphcstar.lattice_bruteforce(
        g, "saturated_hereditary"),
    "serialize_dsl": lambda g: graphcstar.serialize_dsl(g),
    "serialize_json": lambda g: graphcstar.serialize_json(g),
    "emit_dot": lambda g: graphcstar.emit_dot(g),
    "classify": lambda g: classify(g),
    "simplicity_verdict": lambda g: graphcstar.simplicity_verdict(g),
    "schweizer_check": lambda g: graphcstar.schweizer_check(g),
}

def test_an_invalid_graph_memoises_no_field():
    g = Graph(*INVALID_GRAPHS["dangling endpoint"])
    for _ in range(3):
        for field in ("vertices", "_rows", "_emitting", "_receiving", "_condensation"):
            with pytest.raises(InvalidGraphError):
                getattr(g, field)
            assert getattr(Graph, field) is vars(Graph)[field]  # read on the class
    # Only the verdict of the check is kept.
    assert set(vars(g)) == {"_vertices", "_edges", "_validation"}


# Calls given a bad argument as well: the argument's ValueError comes first.
DOUBLY_INVALID_CALLS = {
    "paths_of_length": (lambda g: graphcstar.paths_of_length(g, 0), "at least 1"),
    "count_paths": (lambda g: graphcstar.count_paths(g, 0), "at least 1"),
    "power_graph": (lambda g: graphcstar.power_graph(g, 0), "at least 1"),
    "Graph.path": (lambda g: g.path([]), "at least one edge"),
    "cycle_exits": (lambda g: graphcstar.cycle_exits(g, Path(g, ())), "empty path"),
    "lattice": (lambda g: lattice(g, "ideal"), "unknown lattice kind"),
    "lattice_bruteforce": (lambda g: graphcstar.lattice_bruteforce(g, "ideal"),
                           "unknown lattice kind"),
}


@pytest.mark.parametrize("vertices, edges", INVALID_GRAPHS.values(), ids=INVALID_GRAPHS.keys())
def test_every_operation_refuses_an_invalid_graph(vertices, edges):
    g = Graph(vertices, edges)
    expected = g.validate()
    assert not expected.ok
    with pytest.raises(InvalidGraphError) as exc:
        Graph.checked(vertices, edges)
    assert exc.value.result == expected
    accepted = []
    for name, call in REFUSING_CALLS.items():
        for _ in range(2):  # the refusal is not cached away
            try:
                call(g)
            except InvalidGraphError as exc:
                assert exc.result == expected, name
            else:
                accepted.append(name)
    assert accepted == []
    for name, (call, message) in DOUBLY_INVALID_CALLS.items():
        with pytest.raises(ValueError, match=message) as exc:
            call(g)
        assert type(exc.value) is ValueError, name
    # The value behaviour reads the unchecked fields.
    assert repr(g) == f"Graph(vertices={vertices!r}, edges={edges!r})"
    assert g == Graph(vertices, edges) and hash(g) == hash(Graph(vertices, edges))
    for clone in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert clone == g and clone.validate() == expected
        with pytest.raises(InvalidGraphError):
            clone.vertices
