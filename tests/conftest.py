"""Shared fixture graphs and random generators.

The named fixtures mirror the files in tests/fixtures/ -- tests assert that
parsing each file reproduces the graph built here, so keep both in sync.
"""

from __future__ import annotations

import contextlib
import functools
import random
import signal
from itertools import combinations_with_replacement, permutations
from pathlib import Path as FsPath

from hypothesis import strategies as st

from graphcstar import Graph

FIXTURES_DIR = FsPath(__file__).parent / "fixtures"

# One line per acceptance criterion, filled by tests/test_acceptance.py and
# echoed after the run so the verdicts survive pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@contextlib.contextmanager
def time_limit(seconds: int):
    """Raise TimeoutError in the block after ``seconds`` (needs SIGALRM)."""
    def expire(signum, frame):
        raise TimeoutError(f"took more than {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def cycle_graph(n: int) -> Graph:
    vertices = tuple(f"v{i}" for i in range(1, n + 1))
    edges = tuple((f"e{i}", f"v{i}", f"v{i % n + 1}") for i in range(1, n + 1))
    return Graph(vertices, edges)


def chain_graph(n: int, loop: bool = False) -> Graph:
    """v0 -> v1 -> ... -> v{n-1}, optionally with a loop at the last vertex."""
    vertices = tuple(f"v{i}" for i in range(n))
    edges = [(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(n - 1)]
    if loop:
        edges.append(("loop", vertices[-1], vertices[-1]))
    return Graph(vertices, tuple(edges))


def two_loops() -> Graph:
    # loop at u, edge into w, loop at w; the w loop has no exit
    return Graph(("u", "w"), (("a", "u", "u"), ("b", "u", "w"), ("c", "w", "w")))


def source_loop() -> Graph:
    # a source feeding an exitless loop
    return Graph(("u", "w"), (("b", "u", "w"), ("c", "w", "w")))


def exit_graph() -> Graph:
    # loops at u and w plus both connecting edges; every cycle has an exit
    return Graph(("u", "w"), (("a", "u", "u"), ("b", "u", "w"),
                              ("c", "w", "w"), ("d", "w", "u")))


def rose2() -> Graph:
    # two loops at a single vertex
    return Graph(("u",), (("f", "u", "u"), ("g", "u", "u")))


def theta() -> Graph:
    # parallel edges u->w and one edge back
    return Graph(("u", "w"), (("p1", "u", "w"), ("p2", "u", "w"), ("q", "w", "u")))


def fig8() -> Graph:
    # two 2-cycles sharing the vertex u
    return Graph(("u", "w", "x"), (("p", "u", "w"), ("q", "w", "u"),
                                   ("r", "u", "x"), ("s", "x", "u")))


def triangle_chord() -> Graph:
    # 3-cycle plus a chord a->c
    return Graph(("a", "b", "c"), (("ab", "a", "b"), ("bc", "b", "c"),
                                   ("ca", "c", "a"), ("ac", "a", "c")))


def lcm_graph() -> Graph:
    # disjoint cycles of lengths 2, 3, 4
    vertices = ("v1", "v2", "w1", "w2", "w3", "x1", "x2", "x3", "x4")
    edges = (("c2a", "v1", "v2"), ("c2b", "v2", "v1"),
             ("c3a", "w1", "w2"), ("c3b", "w2", "w3"), ("c3c", "w3", "w1"),
             ("c4a", "x1", "x2"), ("c4b", "x2", "x3"), ("c4c", "x3", "x4"),
             ("c4d", "x4", "x1"))
    return Graph(vertices, edges)


# name -> (graph, fixture file name)
FIXTURE_GRAPHS: dict[str, tuple[Graph, str]] = {
    "g_cycle2": (cycle_graph(2), "g_cycle2.txt"),
    "g_cycle3": (cycle_graph(3), "g_cycle3.txt"),
    "g_two_loops": (two_loops(), "g_two_loops.txt"),
    "g_source_loop": (source_loop(), "g_source_loop.txt"),
    "g_exit": (exit_graph(), "g_exit.txt"),
    "g_rose2": (rose2(), "g_rose2.txt"),
    "g_theta": (theta(), "g_theta.txt"),
    "g_fig8": (fig8(), "g_fig8.txt"),
    "g_triangle_chord": (triangle_chord(), "g_triangle_chord.txt"),
    "g_lcm": (lcm_graph(), "g_lcm.json"),
    "g_exit_json": (exit_graph(), "g_exit.json"),
}

# Sink-free fixtures satisfying Condition (L): the witness-search contract
# must hold on all of these.
SINKFREE_L_FIXTURES: dict[str, Graph] = {
    "g_exit": exit_graph(),
    "g_rose2": rose2(),
    "g_theta": theta(),
    "g_fig8": fig8(),
    "g_triangle_chord": triangle_chord(),
}


def one_edge_each(n: int, seed: int) -> Graph:
    """n vertices, each emitting one edge to a seeded random vertex, so every
    vertex starts exactly one path of each length."""
    rng = random.Random(seed)
    vertices = tuple(f"v{i}" for i in range(n))
    return Graph(vertices, tuple((f"e{i}", v, rng.choice(vertices)) for i, v in enumerate(vertices)))


def fixture_path(name: str) -> FsPath:
    return FIXTURES_DIR / FIXTURE_GRAPHS[name][1]


def random_graph(rng: random.Random, max_vertices: int = 6, max_edges: int = 10) -> Graph:
    nv = rng.randint(1, max_vertices)
    vertices = tuple(f"v{i}" for i in range(nv))
    ne = rng.randint(0, max_edges)
    edges = tuple((f"e{i}", rng.choice(vertices), rng.choice(vertices))
                  for i in range(ne))
    return Graph(vertices, edges)


def shuffled(g: Graph, rng: random.Random) -> Graph:
    """The same graph with vertices and edges declared in a random order."""
    vertices = list(g.vertices)
    edges = list(g.edges)
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return Graph(tuple(vertices), tuple(edges))


def _permutation_based(rng: random.Random, max_vertices: int, max_edges: int) -> Graph:
    nv = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(nv)]
    targets = vertices[:]
    rng.shuffle(targets)
    edges = [(f"e{i}", vertices[i], targets[i]) for i in range(nv)]
    for j in range(rng.randint(0, max_edges - nv)):
        edges.append((f"e{nv + j}", rng.choice(vertices), rng.choice(vertices)))
    return Graph(tuple(vertices), tuple(edges))


def random_no_sink_no_source(rng: random.Random, max_vertices: int = 5,
                             max_edges: int = 8) -> Graph:
    """No sinks, no sources, within the size bounds.

    Mixes a permutation-plus-extras construction (always valid, covers the
    purely periodic graphs when no extras land) with rejection sampling from
    uniform multigraphs (covers shapes without a spanning permutation).
    """
    if rng.random() < 0.5:
        for _ in range(200):
            nv = rng.randint(1, max_vertices)
            vertices = tuple(f"v{i}" for i in range(nv))
            ne = rng.randint(nv, max_edges)
            edges = tuple((f"e{i}", rng.choice(vertices), rng.choice(vertices))
                          for i in range(ne))
            g = Graph(vertices, edges)
            srcs = {e.src for e in g.edges}
            dsts = {e.dst for e in g.edges}
            if srcs == set(vertices) and dsts == set(vertices):
                return g
    return _permutation_based(rng, max_vertices, max_edges)


def random_strongly_connected(rng: random.Random, min_vertices: int = 2,
                              max_vertices: int = 6) -> Graph:
    """A cycle through all vertices in random order, plus random extras.

    Roughly a third of the samples are bare cycles, exercising the periodic
    branch of the dichotomies.
    """
    nv = rng.randint(min_vertices, max_vertices)
    vertices = [f"v{i}" for i in range(nv)]
    order = vertices[:]
    rng.shuffle(order)
    edges = [(f"e{i}", order[i], order[(i + 1) % nv]) for i in range(nv)]
    if rng.random() >= 0.35:
        for j in range(rng.randint(1, 4)):
            edges.append((f"e{nv + j}", rng.choice(vertices), rng.choice(vertices)))
    return Graph(tuple(vertices), tuple(edges))


_ID = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=8)


@st.composite
def graphs_strategy(draw, max_vertices: int = 6, max_edges: int = 10):
    vertices = draw(st.lists(_ID, min_size=1, max_size=max_vertices, unique=True))
    ne = draw(st.integers(0, max_edges))
    edge_ids = draw(st.lists(_ID, min_size=ne, max_size=ne, unique=True))
    edges = tuple(
        (eid, draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices)))
        for eid in edge_ids)
    return Graph(tuple(vertices), edges)


@functools.lru_cache(maxsize=None)
def _iso_representatives(nv: int, max_e: int):
    """Canonical representatives of all graphs on nv labeled vertices with
    at most max_e edges, up to vertex relabeling.

    A graph is a multiset of (src, dst) slots; a representative is the
    lexicographically least multiset in its orbit under vertex permutations.
    Graphs with fewer than nv vertices appear as representatives with
    isolated vertices, which never affect path behaviour.  Cached, as
    several tests walk the same list.
    """
    slots = [(s, d) for s in range(nv) for d in range(nv)]
    index = {p: i for i, p in enumerate(slots)}
    tables = [
        tuple(index[(pi[s], pi[d])] for (s, d) in slots)
        for pi in permutations(range(nv))
    ]
    reps = []
    for k in range(max_e + 1):
        for combo in combinations_with_replacement(range(len(slots)), k):
            canon = min(tuple(sorted(t[s] for s in combo)) for t in tables)
            if canon == combo:
                reps.append(combo)
    return slots, tuple(reps)


def iso_graphs(nv: int, max_e: int):
    """The representatives of :func:`_iso_representatives` as graphs on the
    vertices v0 .. v{nv-1}."""
    slots, reps = _iso_representatives(nv, max_e)
    vertices = tuple(f"v{i}" for i in range(nv))
    for combo in reps:
        yield Graph(vertices, tuple((f"e{i}", vertices[slots[s][0]], vertices[slots[s][1]])
                                    for i, s in enumerate(combo)))
