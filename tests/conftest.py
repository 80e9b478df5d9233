"""Shared corpus helpers for the test suite."""

from __future__ import annotations

import math
import random
from itertools import combinations, permutations

import networkx as nx
import pytest
from hypothesis import settings

import locachrom as lc

# Selected in CI with --hypothesis-profile=ci: a failing example is printed
# with its reproduction blob, for @reproduce_failure on another machine.
settings.register_profile("ci", print_blob=True)


def from_networkx(G) -> lc.Graph:
    nodes = sorted(G.nodes())
    index = {v: i for i, v in enumerate(nodes)}
    return lc.make_graph(len(nodes), [(index[a], index[b]) for a, b in G.edges()])


def star_corona_value(n: int) -> int:
    # The paper's value of the order-n star with one pendant per vertex:
    # ceil(sqrt(n)) + 1.
    return math.isqrt(n - 1) + 2


def all_trees(max_order: int) -> list:
    """All isomorphism classes of trees with 2..max_order vertices."""
    return [
        from_networkx(T)
        for n in range(2, max_order + 1)
        for T in nx.nonisomorphic_trees(n)
    ]


def prufer_tree(n: int, seq) -> lc.Graph:
    """The labelled tree on n >= 1 vertices whose Pruefer sequence is seq
    (n - 2 entries in 0..n-1; ignored for n < 3)."""
    if n < 3:
        return lc.make_graph(n, [(0, 1)][: n - 1])
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = degree.index(1)  # the least leaf left
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = (x for x in range(n) if degree[x] == 1)
    return lc.make_graph(n, [*edges, (u, w)])


def relabel(g: lc.Graph, perm) -> lc.Graph:
    """g with vertex v renamed perm[v]."""
    return lc.make_graph(g.n, [(perm[a], perm[b]) for a, b in g.edges])


def atlas_connected(max_order: int) -> list:
    """Every connected graph on 2..max_order vertices, up to isomorphism,
    from networkx's graph atlas (all graphs on at most 7 vertices)."""
    return [
        from_networkx(G) for G in nx.graph_atlas_g()
        if 2 <= G.number_of_nodes() <= max_order and nx.is_connected(G)
    ]


def atlas_graphs(max_order: int) -> list:
    """Every graph on 1..max_order vertices, up to isomorphism, connected
    or not, from networkx's graph atlas: 18 of them up to order 4."""
    return [
        from_networkx(G) for G in nx.graph_atlas_g()
        if 1 <= G.number_of_nodes() <= max_order
    ]


def random_graph(rng: random.Random, n: int, p: float) -> lc.Graph:
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return lc.make_graph(n, edges)


def random_connected_graph(rng: random.Random, max_order: int) -> lc.Graph:
    while True:
        g = random_graph(rng, rng.randint(2, max_order), 0.5)
        if lc.is_connected(g):
            return g


def bfs_connected(g: lc.Graph) -> bool:
    """g's connectivity by BFS: a fresh Graph carries none recorded."""
    return lc.is_connected(lc.Graph(g.n, g.edges))


def recorded_connectivity(g: lc.Graph) -> bool:
    """is_connected(g) with every BFS refused: what g's builder recorded."""
    def refused(graph, sources):
        raise AssertionError("is_connected ran a BFS")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lc.graphs, "bfs_distances", refused)
        return lc.is_connected(g)


def _canonical(g: lc.Graph) -> tuple:
    best = None
    for perm in permutations(range(g.n)):
        edges = tuple(sorted(
            (min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in g.edges
        ))
        if best is None or edges < best:
            best = edges
    return (g.n, best)


def connected_graphs_up_to_iso(n: int) -> list:
    """Isomorphism classes of connected graphs on exactly n vertices."""
    seen = set()
    result = []
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        g = lc.make_graph(n, edges)
        if not lc.is_connected(g):
            continue
        key = _canonical(g)
        if key not in seen:
            seen.add(key)
            result.append(g)
    return result


@pytest.fixture
def refuse_graph_build(monkeypatch):
    """Fail on any graph that graphs.py builds, through make_graph or the
    Graph constructor, so that an order cap is tested without ever
    building the large graph."""
    def refuse(*args):
        raise AssertionError("a graph above its cap reached the constructor")
    monkeypatch.setattr(lc.graphs, "make_graph", refuse)
    monkeypatch.setattr(lc.graphs, "Graph", refuse)


@pytest.fixture(autouse=True)
def verdicts(monkeypatch):
    """The classifier's verdict cache, empty for every test and restored
    after it, so no test reads a verdict that another test stored."""
    cache = {}
    monkeypatch.setattr(lc.constructions, "_VERDICTS", cache)
    return cache


@pytest.fixture(scope="session")
def small_trees():
    return all_trees(7)


@pytest.fixture(scope="session")
def random_connected_corpus():
    rng = random.Random(12345)
    return [random_connected_graph(rng, 7) for _ in range(100)]
