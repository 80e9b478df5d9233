"""The search kernel against its recursive predecessor, kept here only as a
prune-free reference: the kernel's cuts (twin order, branch-swap and
leaf-block order, settled pairs and color presence) and its static lower
bound may only remove nodes, never change a verdict or the first
coloring."""

from bisect import bisect_right
from itertools import accumulate, combinations, permutations

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import locachrom as lc
from locachrom import graphs, locating
from conftest import all_trees, atlas_connected, atlas_graphs
from locachrom.locating import (
    BUDGET_EXHAUSTED,
    FOUND,
    INFEASIBLE,
    Coloring,
    SearchResult,
    _block_involutions,
    _branch_swaps,
    _clique_sizes,
    _color_floors,
    _frozen_candidates,
    _leaf_block_involutions,
    _pendant_groups,
    _search_order,
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
    order = _search_order(g, _pendant_groups(g))
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


@st.composite
def pendant_graphs(draw, max_core=5, max_pendants=6):
    # A connected core with pendant vertices hung one by one off any vertex
    # so far, so that pendant trees nest and repeat.
    core = draw(connected_graphs(max_order=max_core))
    edges, n = list(core.edges), core.n
    for _ in range(draw(st.integers(min_value=0, max_value=max_pendants))):
        edges.append((draw(st.integers(min_value=0, max_value=n - 1)), n))
        n += 1
    return lc.make_graph(n, edges)


@settings(deadline=None, max_examples=60)
@given(connected_graphs())
def test_search_matches_reference(g):
    for k in range(1, g.n + 1):
        assert_same_search(g, k)


@settings(deadline=None, max_examples=60)
@given(pendant_graphs())
def test_search_matches_reference_with_pendant_trees(g):
    for k in range(1, g.n + 1):
        assert_same_search(g, k)


@settings(deadline=None, max_examples=200)
@given(pendant_graphs())
def test_branch_swaps_are_automorphisms(g):
    order = _search_order(g, _pendant_groups(g))
    pos = {v: i for i, v in enumerate(order)}
    for swap in _branch_swaps(g, pos):
        sigma = list(range(g.n))
        for u, v in swap:
            sigma[u], sigma[v] = v, u
        moved = [v for pair in swap for v in pair]
        assert len(set(moved)) == len(moved), swap
        assert {frozenset((sigma[a], sigma[b])) for a, b in g.edges} == {
            frozenset(e) for e in g.edges
        }, swap


def ahu(children, v) -> str:
    """The rooted tree under v as a nested-bracket string, children sorted."""
    return "(" + "".join(sorted(ahu(children, c) for c in children[v])) + ")"


@settings(deadline=None, max_examples=200)
@given(pendant_graphs())
def test_peel_ranks_pendant_trees(g):
    # Independently of the peel: the never-peeled vertices are the 2-core,
    # and a tree's last layer is its centre. Pendant trees hang away from
    # that anchor, a child being one step farther from it.
    G = nx.Graph(list(g.edges))
    G.add_nodes_from(range(g.n))
    core = set(nx.k_core(G, 2))
    anchor = core or set(nx.center(G))
    far = nx.multi_source_dijkstra_path_length(G, anchor)
    children = [[w for w in nbrs if far[w] == far[v] + 1]
                for v, nbrs in enumerate(g.adjacency)]
    layers, rank, parent = graphs._peel(g.adjacency)
    starts = list(accumulate(map(len, layers), initial=0))
    peeled = [v for v in range(g.n) if v not in core]
    assert sorted(v for v in range(g.n) if rank[v] >= 0) == peeled
    assert sum(map(len, layers)) == len(peeled)
    for v in core:
        assert parent[v] == -1
    form = {v: ahu(children, v) for v in peeled}
    for u, v in combinations(peeled, 2):
        assert (rank[u] == rank[v]) == (form[u] == form[v]), (u, v)
    for v in peeled:
        assert (rank[v] == 0) == (not children[v])
        layer = bisect_right(starts, rank[v]) - 1
        assert tuple(sorted(rank[c] for c in children[v])) in layers[layer]
        if v in anchor:  # a tree's centre
            assert parent[v] == -1
        else:
            p = parent[v]
            assert far[p] == far[v] - 1
            assert rank[p] == -1 or bisect_right(starts, rank[p]) - 1 > layer


@pytest.mark.parametrize("family,order,m,swaps,pairs", [
    *(("star", n, 1, n - 2, 2 * (n - 2)) for n in range(4, 17)),
    ("path", 3, 3, 1, 4),
    ("path", 5, 4, 1, 10),
])
def test_branch_swaps_where_they_pay(family, order, m, swaps, pairs):
    # The products on which branch swaps cut nodes of the paper's corpus:
    # the star's leaves with their copies are swappable branches, and the
    # path's two ends are one reflection. Counts recorded from the FIFO
    # peel that came before graphs._peel.
    g, _ = lc.corona(lc.generate(family, order), lc.generate("empty", m))
    seq = _search_order(g, _pendant_groups(g))
    found = _branch_swaps(g, {v: i for i, v in enumerate(seq)})
    assert (len(found), sum(map(len, found))) == (swaps, pairs)


# Every connected graph on 1 to 5 vertices, P4, C4 and C5 among them.
SMALL_CONNECTED = [lc.generate("path", 1), *atlas_connected(5)]


@st.composite
def leaf_block_graphs(draw, max_order=19):
    # A connected core of order <= 4 with one to three small connected
    # graphs attached to core vertices, each joined whole to its vertex
    # or hung from it by an edge to one of its own vertices; at most
    # max_order vertices in all.
    core = draw(connected_graphs(max_order=4))
    edges, n = list(core.edges), core.n
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        fits = [h for h in SMALL_CONNECTED if n + h.n <= max_order]
        if not fits:
            break
        h = draw(st.sampled_from(fits))
        at = draw(st.integers(min_value=0, max_value=core.n - 1))
        edges += [(n + a, n + b) for a, b in h.edges]
        if draw(st.booleans()):
            edges += [(at, n + v) for v in range(h.n)]
        else:
            edges.append((at, n + draw(st.integers(min_value=0, max_value=h.n - 1))))
        n += h.n
    return lc.make_graph(n, edges)


def leaf_blocks_by_networkx(g):
    # (cut vertex, block) for every block with exactly one cut vertex.
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges)
    cuts = set(nx.articulation_points(nxg))
    blocks = [frozenset(b) for b in nx.biconnected_components(nxg)]
    return [(next(iter(b & cuts)), b) for b in blocks if len(b & cuts) == 1]


def block_involutions_by_brute_force(g, c, block):
    # Every involution of g that fixes all but block - {c}, as a map.
    rest = sorted(block - {c})
    edges = {frozenset(e) for e in g.edges}
    found = []
    for images in permutations(rest):
        sigma = dict(zip(rest, images))
        if any(sigma[sigma[v]] != v for v in rest):
            continue
        move = lambda v: sigma.get(v, v)
        if {frozenset((move(a), move(b))) for a, b in g.edges} == edges:
            found.append(sigma)
    return found


@settings(deadline=None, max_examples=200)
@given(leaf_block_graphs())
# A P4 fan whose end has a leaf: its block has two cut vertices.
@example(lc.make_graph(7, [(0, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3),
                           (3, 4), (4, 5), (2, 6)]))
# A C5 through the DFS root, with its one cut vertex elsewhere.
@example(lc.make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (2, 5)]))
def test_leaf_block_involutions_are_automorphisms(g):
    # Each emitted involution is an automorphism of g that moves only the
    # non-cut vertices of one leaf block of 5 vertices, and moves some
    # pair of non-twins. Every involution of such a block is an emitted
    # one, up to twins.
    twin = {v: frozenset(cls) for cls in lc.twin_classes(g) for v in cls}
    edges = {frozenset(e) for e in g.edges}
    blocks = [(c, b) for c, b in leaf_blocks_by_networkx(g) if len(b) == 5]
    emitted = []
    for swap in _leaf_block_involutions(g):
        sigma = dict(swap) | {v: u for u, v in swap}
        assert len(sigma) == 2 * len(swap), swap
        move = lambda v: sigma.get(v, v)
        assert {frozenset((move(a), move(b))) for a, b in g.edges} == edges, swap
        [(c, block)] = [(c, b) for c, b in blocks if set(sigma) <= b]
        assert c not in sigma, swap
        assert any(v not in twin[u] for u, v in swap), swap
        emitted.append(sigma)
    for c, block in blocks:
        for sigma in block_involutions_by_brute_force(g, c, block):
            assert any(
                all(tau.get(v, v) in twin[image] for v, image in sigma.items())
                for tau in emitted
            ) or all(image in twin[v] for v, image in sigma.items()), sigma


def labelled_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield lc.make_graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])


def twins_by_neighborhoods(g):
    # v -> the vertices u with N(u) - v = N(v) - u, v included.
    nbrs = [set(a) for a in g.adjacency]
    return {v: {u for u in range(g.n) if nbrs[u] - {v} == nbrs[v] - {u}}
            for v in range(g.n)}


def test_block_involutions_on_every_five_vertex_shape():
    # On all 1,024 graphs on 0..4, cut vertex 0: each emitted involution
    # is an automorphism fixing 0 that swaps no twins, none is emitted
    # twice, and every involution fixing 0 is an emitted one, up to twins.
    block = frozenset(range(5))
    for g in labelled_graphs(5):
        twin = twins_by_neighborhoods(g)
        masks = tuple(sum(1 << w for w in around) for around in g.adjacency)
        emitted = [dict(pairs) | {y: x for x, y in pairs}
                   for pairs in _block_involutions(masks)]
        everything = block_involutions_by_brute_force(g, 0, block)
        moved = [{v: image for v, image in sigma.items() if v != image}
                 for sigma in everything]
        assert len({tuple(sorted(sigma.items())) for sigma in emitted}) == len(emitted)
        for sigma in emitted:
            assert sigma and sigma in moved, (g.edges, sigma)
            assert all(image not in twin[v] for v, image in sigma.items()), sigma
        for sigma in everything:
            assert any(
                all(tau.get(v, v) in twin[image] for v, image in sigma.items())
                for tau in emitted
            ) or all(image in twin[v] for v, image in sigma.items()), sigma


def test_smaller_blocks_have_only_twin_involutions():
    # Why leaf blocks of 3 or 4 vertices get no floors of their own: every
    # involution of a biconnected graph on 3 or 4 vertices that fixes 0
    # swaps twins only.
    biconnected = 0
    for n in (3, 4):
        for g in labelled_graphs(n):
            nxg = nx.Graph(list(g.edges))
            if nxg.number_of_nodes() < n or not nx.is_biconnected(nxg):
                continue
            biconnected += 1
            twin = twins_by_neighborhoods(g)
            for sigma in block_involutions_by_brute_force(g, 0, frozenset(range(n))):
                assert all(image in twin[v] for v, image in sigma.items()), sigma
    assert biconnected == 11


@settings(deadline=None, max_examples=40)
@given(leaf_block_graphs(max_order=11))
def test_search_matches_reference_with_leaf_blocks(g):
    for k in range(1, g.n + 1):
        assert_same_search(g, k)


def test_search_matches_reference_on_p2_coronas():
    # P2 (.) H for all 18 H of order <= 4: each connected copy of order 4
    # with its center is a leaf block of 5.
    p2 = lc.generate("path", 2)
    for h in atlas_graphs(4):
        g = corona_of(p2, h)
        for k in range(1, g.n + 1):
            assert_same_search(g, k)


# P3 (.) H, for the H of order <= 4 whose searches the frozen-code cut
# shortens, at that k; each with its node count without the cut. Left
# out: H = 2K2 at k = 4 (2,188 -> 666 nodes), where the reference takes
# about 2 s.
@pytest.mark.parametrize("order,edges,k,without", [
    (3, [(1, 2)], 4, 74),
    (4, [(2, 3)], 4, 175),
    (4, [(1, 3), (2, 3)], 5, 128),
    (4, [(1, 2), (1, 3), (2, 3)], 5, 137),
    (4, [(0, 1), (0, 3), (1, 2)], 4, 1_673),
    (4, [(0, 1), (0, 3), (1, 2), (2, 3)], 5, 251),
], ids=["K2uK1", "K2u2K1", "P3uK1", "K3uK1", "P4", "C4"])
def test_search_matches_reference_where_frozen_codes_cut(
        order, edges, k, without, monkeypatch):
    g = corona_of(lc.generate("path", 3), lc.make_graph(order, edges))
    assert_same_search(g, k)
    cut = lc.find_locating_coloring(g, k).nodes
    monkeypatch.setattr(locating, "_frozen_candidates",
                        lambda order, rows: [[] for _ in order])
    locating._search_tables.cache_clear()
    assert lc.find_locating_coloring(g, k).nodes == without > cut
    locating._search_tables.cache_clear()


def assert_order_keeps_pendant_pairs(g):
    # The order re-derived by scan: pairs (l, p) with p a leaf and l of
    # degree >= 2 with no other leaf neighbor, grouped by N(l) - p.
    groups = {}
    for l, nbrs in enumerate(g.adjacency):
        leaves = [w for w in nbrs if g.degree(w) == 1]
        if g.degree(l) > 1 and len(leaves) == 1:
            key = frozenset(nbrs) - {leaves[0]}
            groups.setdefault(key, []).append((l, leaves[0]))
    paired = {p: l for group in groups.values() if len(group) > 1
              for l, p in group}
    order = _search_order(g, _pendant_groups(g))
    assert sorted(order) == list(range(g.n)), order
    stay = [v for v in order if v not in paired]
    assert stay == sorted(stay, key=lambda v: (-g.degree(v), v)), order
    pos = {v: i for i, v in enumerate(order)}
    for p, l in paired.items():
        assert pos[p] == pos[l] + 1, (order, l, p)
    # The leaves ahead of a vertex of degree >= 2 are the paired ones.
    last = max((pos[v] for v in range(g.n) if g.degree(v) > 1), default=-1)
    moved = {v for v in range(g.n) if g.degree(v) == 1 and pos[v] < last}
    assert moved <= set(paired), (order, moved)


@settings(deadline=None, max_examples=200)
@given(pendant_graphs())
def test_search_order_keeps_pendant_pairs(g):
    assert_order_keeps_pendant_pairs(g)


def test_search_order_keeps_pendant_pairs_on_tree_coronas():
    k1 = lc.generate("empty", 1)
    for t in all_trees(7):
        assert_order_keeps_pendant_pairs(corona_of(t, k1))


def test_search_matches_reference_exhaustively():
    # Every labelled connected graph on at most 5 vertices, at every k.
    for n in range(1, 6):
        for g in labelled_graphs(n):
            if lc.is_connected(g):
                for k in range(1, n + 1):
                    assert_same_search(g, k)


def corona_of(g, h):
    return lc.corona(g, h)[0]


def test_search_matches_reference_on_trees():
    # Every tree on at most 9 vertices, and every T (.) K1 with |T| <= 6,
    # at every k: the graphs whose pendant trees the branch-swap order cuts.
    k1 = lc.generate("empty", 1)
    graphs = all_trees(9) + [corona_of(t, k1) for t in all_trees(6)]
    for g in graphs:
        for k in range(1, g.n + 1):
            assert_same_search(g, k)


# (status, nodes) at budget 5e4; the counts of earlier kernels, newest
# first: before the frozen-code cut, before the leaf-block involutions
# and the refined static bound, before each grouped pendant pair's leaf
# followed its neighbour in the search order, before the color-presence
# counter over all of N[v], before the static clique, full-vertex and
# pendant-pair rules, before the full-code cut, then before the
# branch-swap order; and the node count the reference kernel without the
# symmetry and settled-pair cuts recorded there (50,001 is an exhausted
# budget). Each count bounds the one before it. Of the infeasible
# instances, the last three are left to the search.
@pytest.mark.parametrize("build,k,status,nodes,earlier_nodes,reference_nodes", [
    (lambda: lc.fixture_theorem2().graph, 4, INFEASIBLE, 0,
     (0, 0, 0, 0, 53, 53, 53), 104),
    (lambda: lc.fixture_theorem2().graph, 5, FOUND, 178,
     (2_459, 4_870, 4_870, 4_870, 4_870, 41_626, 41_626), 50_001),
    (lambda: corona_of(lc.generate("star", 8), lc.generate("path", 1)),
     3, INFEASIBLE, 0, (0, 0, 0, 0, 153, 153, 2_208), 49_152),
    (lambda: corona_of(lc.generate("path", 5), lc.generate("path", 2)),
     3, INFEASIBLE, 0, (0, 0, 0, 0, 65, 100, 100), 2_256),
    (lambda: corona_of(lc.generate("path", 5), lc.generate("path", 2)),
     4, FOUND, 249, (491, 491, 491, 491, 491, 624, 624), 13_523),
    # The corpus's heaviest search; the frozen-code cut leaves a quarter.
    (lambda: corona_of(lc.generate("path", 6), lc.generate("path", 2)),
     4, FOUND, 1_064, (4_381, 4_381, 4_381, 4_381, 4_381, 6_769, 6_769), 50_001),
    (lambda: corona_of(lc.generate("path", 3), lc.generate("path", 4)),
     4, INFEASIBLE, 1_541,
     (1_553, 10_768, 10_768, 10_768, 10_768, 32_576, 32_576), 50_001),
    # Each P4 copy reversed is an involution of its leaf block.
    (lambda: corona_of(lc.generate("path", 4), lc.generate("path", 4)),
     4, INFEASIBLE, 9_178, (9_250, *(50_001,) * 6), 50_001),
    (lambda: corona_of(lc.generate("star", 10), lc.generate("path", 1)),
     5, FOUND, 37, (37, 37, 1_742, 1_742, 1_742, 1_742, 50_001), 50_001),
    # An uncolored vertex whose neighbors hold all three colors is dead.
    (lambda: lc.make_graph(6, [(0, 1), (0, 4), (1, 2), (1, 5), (2, 3),
                               (3, 4), (3, 5), (4, 5)]),
     3, INFEASIBLE, 23, (23, 23, 23, 26, 26, 29, 29), 32),
    # An empty class reads n + 1 in the search; with n, K1's one color
    # would read as held by a neighbor, and k = 1 as infeasible.
    (lambda: lc.generate("empty", 1), 1, FOUND, 1, (1,) * 7, 1),
], ids=["theorem2-k4", "theorem2-k5", "star8-k1-k3", "p5-p2-k3", "p5-p2-k4",
        "p6-p2-k4", "p3-p4-k4", "p4-p4-k4", "star10-k1-k5", "dead-vertex-k3", "k1-k1"])
def test_pinned_node_counts(build, k, status, nodes, earlier_nodes, reference_nodes):
    g = build()
    result = lc.find_locating_coloring(g, k, budget=50_000)
    assert (result.status, result.nodes) == (status, nodes)
    counts = (result.nodes, *earlier_nodes, reference_nodes)
    assert list(counts) == sorted(counts)
    if status == FOUND:
        assert lc.verify(g, result.coloring).locating


def test_full_code_cut_decides_p5_k2_k1_at_k4():
    # Without the cut, this search exhausts a budget of 5e4 nodes (75,250
    # nodes at 2e6). With it, chi_L(P5 (.) (K2 u K1)) = 4 is decided at
    # 5e4: in 24,697 nodes before the frozen-code cut, 11,445 with it.
    # P5 (.) P3 at k = 4, which this test checked before, is now refuted
    # before the search by the full-vertex rule.
    h = lc.disjoint_union(lc.generate("path", 2), lc.generate("path", 1))
    g = corona_of(lc.generate("path", 5), h)
    result = lc.find_locating_coloring(g, 4, budget=50_000)
    assert (result.status, result.nodes) == (FOUND, 11_445)
    assert lc.verify(g, result.coloring).locating


def full_vertices_by_color(g, coloring):
    # color -> the vertices of that color whose closed neighbourhood holds
    # all k colors, computed from the graph alone.
    colors, everything = coloring.colors, set(range(1, coloring.k + 1))
    full = {}
    for v, nbrs in enumerate(g.adjacency):
        if {colors[v], *(colors[w] for w in nbrs)} == everything:
            full.setdefault(colors[v], []).append(v)
    return full


def assert_no_two_full_vertices_share_a_color(g, coloring):
    assert lc.verify(g, coloring).locating
    for color, members in full_vertices_by_color(g, coloring).items():
        assert len(members) == 1, (g, coloring, color, members)


def test_full_code_premise_on_certificates():
    # The cut's premise, checked without the kernel: in a locating coloring,
    # no two full vertices share a color. Over certificates from chi_L and
    # from every shipped construction.
    for g in atlas_connected(6):
        assert_no_two_full_vertices_share_a_color(g, lc.chi_L(g).certificate)
    for n in range(4, 61):
        result = lc.star_corona_coloring(n)
        g = corona_of(lc.generate("star", n), lc.generate("empty", 1))
        assert_no_two_full_vertices_share_a_color(g, result.coloring)
    for g in atlas_connected(4):
        for k in range(max(2, g.n - 1), 6):
            result = lc.empty_corona_coloring(g, k)
            assert_no_two_full_vertices_share_a_color(
                corona_of(g, lc.generate("empty", k)), result.coloring
            )
    # The Theorem 2 coloring has three full vertices, so the check bites.
    fixture = lc.fixture_theorem2()
    assert_no_two_full_vertices_share_a_color(fixture.graph, fixture.result.coloring)
    full = full_vertices_by_color(fixture.graph, fixture.result.coloring)
    assert sum(map(len, full.values())) == 3


@settings(deadline=None, max_examples=60)
@given(connected_graphs())
def test_full_code_premise_on_random_certificates(g):
    if g.n >= 2:
        assert_no_two_full_vertices_share_a_color(g, lc.chi_L(g).certificate)


def final_codes_found_early(g, coloring):
    # The frozen-code cut's premise, checked without the kernel: over every
    # prefix of the search order, a colored u whose distance to each class
    # of the prefix is at most its distance to the uncolored rest already
    # has its final code. Returns how often the premise held before the
    # last vertex.
    assert lc.verify(g, coloring).locating
    n, colors = g.n, coloring.colors
    dist = lc.all_pairs_distances(g)
    final = lc.color_codes(g, coloring)
    order = _search_order(g, _pendant_groups(g))
    near = [[n + 1] * n for _ in range(coloring.k)]
    held = 0
    for t, x in enumerate(order[:-1], 1):
        c = colors[x] - 1
        near[c] = [min(a, b) for a, b in zip(near[c], dist[x])]
        for u in order[:t]:
            code = tuple(cls[u] for cls in near)
            if max(code) <= min(dist[u][w] for w in order[t:]):
                assert code == final[u], (g, coloring, order[:t], u)
                held += 1
    return held


def test_final_code_premise_on_certificates():
    # Over certificates from chi_L and from every shipped construction.
    for g in atlas_connected(6):
        final_codes_found_early(g, lc.chi_L(g).certificate)
    for n in range(4, 21):
        g = corona_of(lc.generate("star", n), lc.generate("empty", 1))
        final_codes_found_early(g, lc.star_corona_coloring(n).coloring)
    for g in atlas_connected(4):
        for k in range(max(2, g.n - 1), 6):
            final_codes_found_early(corona_of(g, lc.generate("empty", k)),
                                    lc.empty_corona_coloring(g, k).coloring)
    fixture = lc.fixture_theorem2()
    assert final_codes_found_early(fixture.graph, fixture.result.coloring) > 0


@settings(deadline=None, max_examples=60)
@given(connected_graphs())
def test_final_code_premise_on_random_certificates(g):
    if g.n >= 2:
        final_codes_found_early(g, lc.chi_L(g).certificate)


def frozen_candidates_by_definition(order, rows):
    # Per depth, (u, r) for r = d(u, the vertices at that depth or later),
    # at the depth after u's own and at the first two depths where r
    # grows, r = 1 left out.
    n = len(order)
    table = [[] for _ in order]
    for p, u in enumerate(order[:-1]):
        r, nearest = {}, n
        for t in range(n - 1, p, -1):
            nearest = r[t] = min(nearest, rows[p][order[t]])
        grows = [t for t in range(p + 2, n) if r[t] > r[t - 1]]
        for t in [p + 1, *grows[:2]]:
            if r[t] > 1:
                table[t].append((u, r[t]))
    return table


def frozen_table(g):
    # The table and the one of the definition.
    order = _search_order(g, _pendant_groups(g))
    dist = lc.all_pairs_distances(g)
    rows = [dist[v] for v in order]
    table = _frozen_candidates(order, rows)
    return table, frozen_candidates_by_definition(order, rows)


def test_frozen_candidates_match_definition():
    star_k1 = lambda n: corona_of(lc.generate("star", n), lc.generate("empty", 1))
    graphs = [g for g in atlas_connected(7) if g.n == 7]
    graphs += [star_k1(n) for n in (4, 9, 16, 40)] + [lc.fixture_theorem2().graph]
    # The long paths, spiders and cycle exercise the scan at large
    # eccentricities.
    graphs += [lc.generate("path", n) for n in (33, 34, 60)]
    graphs += [spider(3, 12), spider(3, 40), lc.generate("cycle", 70)]
    graphs += [corona_of(lc.generate("path", 40), lc.generate("path", 2))]
    for g in graphs:
        table, by_definition = frozen_table(g)
        assert table == by_definition, g


def test_frozen_candidates_small_and_linear():
    # None below 7 vertices; at most 3 per vertex, so a path of 300
    # vertices gets 593 (one of 1,500 gets 2,993), not O(n^2).
    for g in atlas_connected(6):
        assert frozen_table(g)[0] == [[] for _ in range(g.n)]
    table, _ = frozen_table(lc.generate("path", 300))
    assert sum(map(len, table)) == 593
    per_vertex = {}
    for entries in table:
        for u, _ in entries:
            per_vertex[u] = per_vertex.get(u, 0) + 1
    assert max(per_vertex.values()) <= 3


def test_frozen_cut_removes_nothing_below_7_vertices(monkeypatch):
    # Why graphs on at most 6 vertices get no table: with the table of
    # the definition, no search on a connected graph of order <= 6
    # changes its node count, at any k.
    def counts():
        locating._search_tables.cache_clear()
        return [locating.find_locating_coloring(g, k).nodes
                for g in atlas_connected(6) for k in range(1, g.n + 1)]

    without = counts()
    monkeypatch.setattr(locating, "_frozen_candidates", frozen_candidates_by_definition)
    assert counts() == without
    locating._search_tables.cache_clear()


@pytest.mark.parametrize("g,bound", [
    *((corona_of(lc.generate("star", n), lc.generate("empty", 1)), (4, "pendant-pair"))
      for n in (6, 7, 8)),
    (corona_of(lc.generate("path", 2), lc.generate("path", 2)), (4, "full-vertex")),
    (corona_of(lc.generate("path", 3), lc.generate("path", 3)), (5, "full-vertex")),
    (lc.generate("cycle", 4), (4, "full-vertex")),
], ids=["star6-k1", "star7-k1", "star8-k1", "p2-p2", "p3-p3", "c4"])
def test_static_rules_match_reference(g, bound):
    # Small graphs on which each static rule binds the lower bound: the
    # reference verdict one below it, in 0 nodes.
    assert lc.locating_lower_bound(g) == bound
    k = bound[0] - 1
    assert lc.find_locating_coloring(g, k) == SearchResult(INFEASIBLE, None, 0)
    assert_same_search(g, k)


def assert_static_premises(g, coloring):
    # The static rules' premises, checked on a locating coloring: a vertex
    # with q(v) >= k sees all k colors in N[v], no two such vertices share
    # a color, and the pairs of one pendant-pair group have distinct
    # (color of l, color of p).
    assert lc.verify(g, coloring).locating
    k, colors = coloring.k, coloring.colors
    q = _clique_sizes(g, lc.twin_classes(g))
    assert max(q) <= k, (g, coloring)
    full = [v for v in range(g.n) if q[v] >= k]
    for v in full:
        assert len({colors[v], *(colors[w] for w in g.adjacency[v])}) == k
    assert len({colors[v] for v in full}) == len(full), (g, coloring, full)
    for group in _pendant_groups(g).values():
        pairs = [(colors[l], colors[p]) for l, p in group]
        assert len(set(pairs)) == len(pairs), (g, coloring, group)


@st.composite
def certified_graphs(draw):
    # A graph with a locating coloring from chi_L or from a shipped
    # construction.
    source = draw(st.sampled_from(["chi_L", "star", "empty", "theorem2"]))
    if source == "chi_L":
        g = draw(pendant_graphs(max_core=4, max_pendants=5).filter(lambda g: g.n >= 2))
        return g, lc.chi_L(g).certificate
    if source == "star":
        n = draw(st.integers(min_value=4, max_value=60))
        g = corona_of(lc.generate("star", n), lc.generate("empty", 1))
        return g, lc.star_corona_coloring(n).coloring
    if source == "empty":
        g = draw(connected_graphs(max_order=4).filter(lambda g: g.n >= 2))
        k = draw(st.integers(min_value=max(2, g.n - 1), max_value=5))
        return corona_of(g, lc.generate("empty", k)), lc.empty_corona_coloring(g, k).coloring
    fixture = lc.fixture_theorem2()
    return fixture.graph, fixture.result.coloring


@settings(deadline=None, max_examples=100)
@given(certified_graphs())
def test_static_premises_on_certificates(certified):
    assert_static_premises(*certified)


def test_search_depth_beyond_recursion_limit():
    # 1,500 vertices deep, beyond Python's default recursion limit of 1,000.
    g = lc.generate("path", 1500)
    result = lc.find_locating_coloring(g, 3, budget=10_000)
    assert result.status == FOUND
    assert lc.verify(g, result.coloring).locating


def spider(legs: int, length: int) -> lc.Graph:
    # Centre 0; leg j is the path 1 + j * length, ..., (j + 1) * length.
    edges = []
    for j in range(legs):
        first = 1 + j * length
        edges.append((0, first))
        edges += [(v, v + 1) for v in range(first, first + length - 1)]
    return lc.make_graph(1 + legs * length, edges)


def test_branch_swap_tables_linear_on_long_legs():
    # Two legs of 1,000 vertices are one swap of 1,000 pairs; detecting it
    # recurses nowhere, and it adds one floor per depth, not a table
    # quadratic in the leg length.
    g = spider(2, 1_000)
    order = _search_order(g, _pendant_groups(g))
    pos = {v: i for i, v in enumerate(order)}
    swaps = _branch_swaps(g, pos)
    assert len(swaps) == 1 and len(swaps[0]) == 1_000
    floors, slots = _color_floors(g, order, pos, lc.twin_classes(g))
    assert sum(map(len, floors)) <= 1_000 and slots <= 1_001


def test_search_with_long_swappable_legs():
    # The largest two-legged spider under MAX_SEARCH_ORDER.
    g = spider(2, 999)
    result = lc.find_locating_coloring(g, 3, budget=10_000)
    assert result.status == FOUND
    assert lc.verify(g, result.coloring).locating
