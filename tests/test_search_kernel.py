"""The search kernel against its recursive predecessor, kept here only as a
prune-free reference: the kernel's twin-order and settled-pair cuts may
only remove nodes, never change a verdict or the first coloring."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import locachrom as lc
from locachrom.locating import (
    BUDGET_EXHAUSTED,
    FOUND,
    INFEASIBLE,
    Coloring,
    SearchResult,
)


class _Budget(Exception):
    pass


def reference_find_locating_coloring(g, k, budget):
    # The recursive kernel with leaf-only code rebuilding, as it stood
    # before the incremental per-class distance lists.
    twins = lc.twin_classes(g)
    if any(len(cls) > k for cls in twins):
        return SearchResult(INFEASIBLE, None, 0)

    n = g.n
    dist = lc.all_pairs_distances(g)
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    pos = {v: i for i, v in enumerate(order)}
    earlier_neighbors = [
        [w for w in g.adjacency[v] if pos[w] < pos[v]] for v in range(n)
    ]
    twin_of = [None] * n
    for cls in twins:
        for v in cls:
            twin_of[v] = cls
    earlier_twins = [
        [w for w in twin_of[v] if pos[w] < pos[v] and w != v] for v in range(n)
    ]

    assignment = [0] * n
    members = [[] for _ in range(k + 1)]
    nodes = 0

    def codes_distinct():
        seen = set()
        for v in range(n):
            row = dist[v]
            code = tuple(
                min(row[u] for u in members[c]) for c in range(1, k + 1)
            )
            if code in seen:
                return False
            seen.add(code)
        return True

    def search(i, used):
        nonlocal nodes
        if i == n:
            if used == k and codes_distinct():
                return tuple(assignment)
            return None
        v = order[i]
        if used + (n - i) < k:
            return None
        for color in range(1, min(k, used + 1) + 1):
            nodes += 1
            if nodes > budget:
                raise _Budget()
            if any(assignment[w] == color for w in earlier_neighbors[v]):
                continue
            if any(assignment[w] == color for w in earlier_twins[v]):
                continue
            assignment[v] = color
            members[color].append(v)
            found = search(i + 1, max(used, color))
            members[color].pop()
            assignment[v] = 0
            if found is not None:
                return found
        return None

    try:
        found = search(0, 0)
    except _Budget:
        return SearchResult(BUDGET_EXHAUSTED, None, nodes)
    if found is None:
        return SearchResult(INFEASIBLE, None, nodes)
    return SearchResult(FOUND, Coloring(k, found), nodes)


def assert_same_search(g, k):
    # At an unlimited budget: the reference's verdict and coloring, in no
    # more nodes. At any budget: a decided result is that verdict, every
    # budget the reference decides within is one the kernel decides within,
    # and the budget is honoured exactly.
    ref = reference_find_locating_coloring(g, k, lc.DEFAULT_BUDGET)
    got = lc.find_locating_coloring(g, k, lc.DEFAULT_BUDGET)
    assert (got.status, got.coloring) == (ref.status, ref.coloring), (g, k)
    assert got.nodes <= ref.nodes, (g, k)
    edges = {1, 2, 3, got.nodes - 1, got.nodes, got.nodes + 1,
             ref.nodes - 1, ref.nodes, ref.nodes + 1}
    for budget in sorted(b for b in edges if b > 0):
        result = lc.find_locating_coloring(g, k, budget)
        if budget >= got.nodes:
            assert result == got, (g, k, budget)
        else:
            assert result == SearchResult(BUDGET_EXHAUSTED, None, budget + 1)
        if budget >= ref.nodes:
            assert result.status != BUDGET_EXHAUSTED, (g, k, budget)


@st.composite
def connected_graphs(draw, max_order=8):
    n = draw(st.integers(min_value=1, max_value=max_order))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    # Thread a random spanning path through the vertices.
    order = draw(st.permutations(range(n)))
    path = [(order[i], order[i + 1]) for i in range(n - 1)]
    return lc.make_graph(n, [p for p, keep in zip(pairs, mask) if keep] + path)


@settings(deadline=None, max_examples=60)
@given(connected_graphs())
def test_search_matches_reference(g):
    for k in range(1, g.n + 1):
        assert_same_search(g, k)


def test_search_matches_reference_exhaustively():
    # Every labelled connected graph on at most 5 vertices, at every k.
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = lc.make_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
            if lc.is_connected(g):
                for k in range(1, n + 1):
                    assert_same_search(g, k)


def corona_of(g, h):
    return lc.corona(g, h)[0]


# (status, nodes) at budget 5e4, and the node count the reference kernel
# without the twin-order and settled-pair cuts recorded there (50,001 is its
# exhausted budget), which bounds this kernel's count.
@pytest.mark.parametrize("build,k,status,nodes,reference_nodes", [
    (lambda: lc.fixture_theorem2().graph, 4, INFEASIBLE, 53, 104),
    (lambda: lc.fixture_theorem2().graph, 5, FOUND, 41_626, 50_001),
    (lambda: corona_of(lc.generate("star", 8), lc.generate("path", 1)),
     3, INFEASIBLE, 2_208, 49_152),
    (lambda: corona_of(lc.generate("path", 5), lc.generate("path", 2)),
     3, INFEASIBLE, 100, 2_256),
    (lambda: corona_of(lc.generate("path", 5), lc.generate("path", 2)),
     4, FOUND, 624, 13_523),
], ids=["theorem2-k4", "theorem2-k5", "star8-k1-k3", "p5-p2-k3", "p5-p2-k4"])
def test_pinned_node_counts(build, k, status, nodes, reference_nodes):
    g = build()
    result = lc.find_locating_coloring(g, k, budget=50_000)
    assert (result.status, result.nodes) == (status, nodes)
    assert result.nodes <= reference_nodes
    if status == FOUND:
        assert lc.verify(g, result.coloring).locating


def test_search_depth_beyond_recursion_limit():
    # 1,500 vertices deep, beyond Python's default recursion limit of 1,000.
    g = lc.generate("path", 1500)
    result = lc.find_locating_coloring(g, 3, budget=10_000)
    assert result.status == FOUND
    assert lc.verify(g, result.coloring).locating
