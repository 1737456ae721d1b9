import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcstar import (
    PathVector,
    VertexWeights,
    inner_product,
    is_nonreturning_vector,
    left_action,
    norm,
    operator_sandwich,
    paths_of_length,
    sup_norm,
)

from conftest import cycle_graph, exit_graph, random_graph, source_loop


def delta(g, edge_ids):
    return PathVector.delta(g.path(edge_ids))


def test_vertex_weights_validation():
    g = exit_graph()
    a = VertexWeights(g, {"u": 2, "w": 0.5})
    assert a("u") == 2.0 and a.sup_norm == 2.0
    assert VertexWeights(g, {}).is_zero()
    assert VertexWeights.indicator(g, ["w"])("w") == 1.0
    with pytest.raises(ValueError, match="negative"):
        VertexWeights(g, {"u": -1.0})
    for w in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="non-finite"):
            VertexWeights(g, {"u": w})
    with pytest.raises(ValueError, match="unknown vertex"):
        VertexWeights(g, {"zz": 1.0})
    with pytest.raises(ValueError, match="unknown vertex"):
        a("zz")


def test_path_vector_validation():
    g = exit_graph()
    x = PathVector(g, 1, {g.path(["a"]): 1.0, g.path(["b"]): 0.0})
    assert len(x.weights) == 1  # zero weights dropped
    with pytest.raises(ValueError):
        PathVector(g, 2, {g.path(["a"]): 1.0})
    with pytest.raises(ValueError):
        PathVector(g, 0, {})
    g2 = cycle_graph(2)
    with pytest.raises(ValueError, match="path from a different graph"):
        PathVector(g, 1, {g2.path(["e1"]): 1.0})
    with pytest.raises(ValueError, match="different modules"):
        x + delta(g2, ["e1"])


def test_inner_product_example():
    g = exit_graph()
    x = delta(g, ["a"]) + delta(g, ["b"])
    y = delta(g, ["b"])
    assert inner_product(x, y) == {"w": 1.0}


def test_inner_product_distinct_deltas_vanish():
    g = exit_graph()
    assert inner_product(delta(g, ["a"]), delta(g, ["b"])) == {}


def test_inner_product_errors():
    g = exit_graph()
    with pytest.raises(ValueError, match="length"):
        inner_product(delta(g, ["a"]), delta(g, ["a", "a"]))
    g2 = cycle_graph(2)
    with pytest.raises(ValueError, match="graph"):
        inner_product(delta(g, ["a"]), delta(g2, ["e1"]))


def test_inner_product_hermitian():
    g = exit_graph()
    x = PathVector(g, 1, {g.path(["a"]): 1 + 2j, g.path(["b"]): 0.5j})
    y = PathVector(g, 1, {g.path(["a"]): -3j, g.path(["b"]): 2.0})
    ipxy = inner_product(x, y)
    ipyx = inner_product(y, x)
    assert set(ipxy) == set(ipyx)
    for v in ipxy:
        assert ipxy[v] == ipyx[v].conjugate()


def test_left_action_multiplies_at_source():
    g = exit_graph()
    a = VertexWeights(g, {"u": 2.0, "w": 0.25})
    x = PathVector(g, 2, {g.path(["a", "b"]): 1.0, g.path(["c", "d"]): 4.0})
    ax = left_action(a, x)
    assert ax.weights == {g.path(["a", "b"]): 2.0, g.path(["c", "d"]): 1.0}
    with pytest.raises(ValueError, match="weights and vector live over different graphs"):
        left_action(VertexWeights(cycle_graph(2), {"v1": 1.0}), x)


@given(st.integers(0, 7), st.integers(0, 7), st.integers(-4, 4), st.integers(-4, 4))
@settings(max_examples=50, deadline=None)
def test_left_action_is_linear(num_a, num_b, wx, wy):
    # dyadic weights keep float products exact, so equality is literal
    g = exit_graph()
    a = VertexWeights(g, {"u": num_a / 4.0, "w": num_b / 4.0})
    p, q = g.path(["a", "a"]), g.path(["b", "c"])
    x = PathVector(g, 2, {p: wx / 2.0})
    y = PathVector(g, 2, {q: wy / 2.0, p: 1.5})
    assert left_action(a, x + y) == left_action(a, x) + left_action(a, y)
    assert left_action(a, 2.0 * x) == 2.0 * left_action(a, x)


def test_norm_examples():
    g = exit_graph()
    # two unit-weight paths with the same range
    x = delta(g, ["a"]) + delta(g, ["d"])
    assert norm(x) == math.sqrt(2)
    assert norm(PathVector(g, 1, {})) == 0.0
    assert norm(delta(g, ["b"])) == 1.0


def test_norm_squared_equals_inner_product_sup():
    rng = random.Random(3)
    g = exit_graph()
    for _ in range(50):
        paths = paths_of_length(g, 3)
        weights = {p: complex(rng.randint(-8, 8) / 4, rng.randint(-8, 8) / 4)
                   for p in rng.sample(paths, k=rng.randint(0, len(paths)))}
        x = PathVector(g, 3, weights)
        assert norm(x) == math.sqrt(sup_norm(inner_product(x, x)))


def test_operator_sandwich_example():
    g = cycle_graph(2)
    alpha = g.path(["e1", "e2", "e1"])
    beta = g.path(["e1", "e2"])
    gamma = operator_sandwich(alpha, beta)
    assert gamma is not None and gamma.edges == ("e2", "e1")


def test_operator_sandwich_vanishes():
    g = exit_graph()
    alpha = g.path(["a", "b", "c"])
    # beta not the leading block
    assert operator_sandwich(alpha, g.path(["b"])) is None
    # beta is the leading block but alpha does not overlap itself with shift 1
    assert operator_sandwich(alpha, g.path(["a"])) is None
    # (a,a,b) fails every shift: the final b breaks the overlap
    alpha2 = g.path(["a", "a", "b"])
    assert operator_sandwich(alpha2, g.path(["a"])) is None
    assert operator_sandwich(alpha2, g.path(["a", "a"])) is None
    # (a,a,a) overlaps itself with every shift
    alpha3 = g.path(["a", "a", "a"])
    got = operator_sandwich(alpha3, g.path(["a", "a"]))
    assert got is not None and got.edges == ("a", "a")
    got1 = operator_sandwich(alpha3, g.path(["a"]))
    assert got1 is not None and got1.edges == ("a",)


def test_operator_sandwich_errors():
    g = exit_graph()
    alpha = g.path(["a", "b"])
    with pytest.raises(ValueError, match="shorter"):
        operator_sandwich(alpha, g.path(["a", "b"]))
    with pytest.raises(ValueError, match="shorter"):
        operator_sandwich(g.path(["a"]), alpha)
    g2 = cycle_graph(2)
    with pytest.raises(ValueError, match="different graphs"):
        operator_sandwich(alpha, g2.path(["e1"]))


def test_nonreturning_vector_examples():
    g = cycle_graph(2)
    assert is_nonreturning_vector(g.path(["e1"]))  # length 1 is vacuous
    assert is_nonreturning_vector(g.path(["e1", "e2"]))
    assert not is_nonreturning_vector(g.path(["e1", "e2", "e1"]))


def test_returning_path_with_nonreturning_vector():
    # (b, c, c) repeats the edge c, yet no shift of the whole word matches:
    # edge-level returning does not imply an operator-level overlap.
    g = source_loop()
    p = g.path(["b", "c", "c"])
    assert p.edges[-1] in p.edges[:-1]
    assert is_nonreturning_vector(p)


def test_vector_check_matches_sandwich_search():
    # is_nonreturning_vector(alpha) is False exactly when some shorter beta
    # survives the sandwich; the surviving beta is always the leading block.
    rng = random.Random(17)
    graphs = [exit_graph(), cycle_graph(2), source_loop()]
    for g in graphs:
        for m in (2, 3, 4):
            for alpha in paths_of_length(g, m):
                hits = []
                for k in range(1, m):
                    for beta in paths_of_length(g, k):
                        if operator_sandwich(alpha, beta) is not None:
                            hits.append(beta)
                assert is_nonreturning_vector(alpha) == (not hits)
                for beta in hits:
                    assert beta.edges == alpha.edges[:beta.length]


def test_edge_nonreturning_implies_vector_nonreturning():
    rng = random.Random(23)
    checked = 0
    for _ in range(60):
        g = random_graph(rng, max_vertices=4, max_edges=6)
        for m in (2, 3, 4):
            for p in paths_of_length(g, m):
                if p.edges[-1] not in p.edges[:-1]:
                    assert is_nonreturning_vector(p)
                    checked += 1
    assert checked > 100
