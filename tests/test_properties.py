"""Property-based checks of the structural invariants."""

import random
from itertools import combinations

import pytest
from conftest import (
    atlas_connected, bfs_connected, prufer_tree, recorded_connectivity, relabel,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

import locachrom as lc
from locachrom.graphs import _tree_shape
from locachrom.locating import Coloring


@st.composite
def graphs(draw, min_order=1, max_order=8, connected=False):
    n = draw(st.integers(min_value=min_order, max_value=max_order))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = lc.make_graph(n, [p for p, keep in zip(pairs, mask) if keep])
    if connected:
        # Thread a random spanning path through the vertices.
        order = draw(st.permutations(range(n)))
        extra = [(order[i], order[i + 1]) for i in range(n - 1)]
        g = lc.make_graph(n, list(g.edges) + extra)
    return g


@given(graphs(max_order=6), graphs(max_order=6))
def test_corona_counting_formulas(g, h):
    if g.n == 0:
        return
    prod, cmap = lc.corona(g, h)
    assert prod.n == g.n * (1 + h.n)
    assert prod.num_edges == g.num_edges + g.n * (h.num_edges + h.n)
    data = cmap.to_json_dict()
    assert len(data["centers"]) + len(data["satellites"]) == prod.n
    assert sorted(
        [*data["centers"], *(s["idx"] for s in data["satellites"])]
    ) == list(range(prod.n))


@given(graphs(min_order=1, max_order=5, connected=True), graphs(max_order=4))
def test_corona_distance_structure(g, h):
    prod, _ = lc.corona(g, h)
    dg = lc.all_pairs_distances(g)
    d = lc.all_pairs_distances(prod)
    # The layout: center u is vertex u, its copy of H is sats(u).
    def sats(u):
        return range(g.n + u * h.n, g.n + (u + 1) * h.n)
    for u in range(g.n):
        for v in range(g.n):
            assert d[u][v] == dg[u][v]
            for a in sats(u):
                if u != v:
                    assert d[a][v] == dg[u][v] + 1
                    for b in sats(v):
                        assert d[a][b] == dg[u][v] + 2
        for a in sats(u):
            assert d[a][u] == 1
            for b in sats(u):
                assert d[a][b] <= 2


@st.composite
def relabeled(draw, base):
    """A drawn graph with its vertices renamed, so components interleave."""
    h = draw(base)
    perm = draw(st.permutations(range(h.n)))
    return lc.make_graph(h.n, [(perm[a], perm[b]) for a, b in h.edges])


def corona_by_layout(g, h):
    # The documented layout, written out slot by slot: centers 0..n-1, then
    # copy u of H at n + u|H|, its vertices in canonical component order.
    # Returns the product and its map's JSON.
    comps = lc.connected_components(h)
    slots = [(t, v) for t, comp in enumerate(comps, start=1) for v in comp]
    pos = {v: p for p, (_, v) in enumerate(slots)}
    sats = [
        {"g": u, "t": t, "h": v, "idx": g.n + u * h.n + p}
        for u in range(g.n) for p, (t, v) in enumerate(slots)
    ]
    edges = [*g.edges, *((s["g"], s["idx"]) for s in sats)]
    for u in range(g.n):
        base = g.n + u * h.n
        edges += [(base + pos[a], base + pos[b]) for a, b in h.edges]
    cmap = {"centers": list(range(g.n)), "satellites": sats}
    return lc.make_graph(g.n * (1 + h.n), edges), cmap


@example(lc.generate("path", 2), lc.make_graph(4, [(0, 2), (1, 3)]))
@given(graphs(max_order=5).filter(lambda g: g.n), relabeled(graphs(max_order=6)))
def test_corona_follows_documented_layout(g, h):
    prod, cmap = lc.corona(g, h)
    assert (prod, cmap.to_json_dict()) == corona_by_layout(g, h)


def corona_upper_by_map(g, h, f, c_list):
    # Reference assembly: color the product vertex by vertex through the
    # corona map, each satellite from its component's coloring and offset.
    local_index = [{v: i for i, v in enumerate(c)} for c in lc.connected_components(h)]
    offsets = [0] * len(c_list)
    for t in range(1, len(c_list)):
        offsets[t] = offsets[t - 1] + c_list[t - 1].k - 1
    product, cmap = lc.corona(g, h)
    data = cmap.to_json_dict()
    colors = [0] * product.n
    for u, idx in enumerate(data["centers"]):
        colors[idx] = f.colors[u]
    for sat in data["satellites"]:
        t = sat["t"] - 1
        colors[sat["idx"]] = c_list[t].colors[local_index[t][sat["h"]]] + f.k + offsets[t]
    return Coloring(f.k + sum(c.k - 1 for c in c_list), tuple(colors))


@settings(deadline=None, max_examples=60)
@example(lc.generate("path", 3), lc.make_graph(4, [(0, 2), (1, 3)]), 0)
@given(graphs(min_order=2, max_order=4, connected=True),
       relabeled(graphs(min_order=1, max_order=5)), st.integers(0, 2**16))
def test_corona_upper_matches_map_assembly(g, h, seed):
    f, c_list = lc.optimal_upper_parts(g, h)
    # Renaming G's colors keeps f locating and moves its colors among the centers.
    perm = list(range(1, f.k + 1))
    random.Random(seed).shuffle(perm)
    f = Coloring(f.k, tuple(perm[c - 1] for c in f.colors))
    result = lc.corona_upper_coloring(g, h, f, c_list)
    assert result.coloring == corona_upper_by_map(g, h, f, c_list)


@given(graphs(max_order=7))
def test_join_with_k1_connected(h):
    # K1 + H always is, and join_with_k1 records it: no BFS runs.
    joined = lc.join_with_k1(h)
    assert recorded_connectivity(joined) and bfs_connected(joined)


@given(graphs(max_order=6), graphs(max_order=5))
def test_corona_connected_iff_g_is(g, h):
    # Every satellite is adjacent to its center; corona records G's
    # connectivity, so no BFS runs on the product.
    if g.n:
        expected = lc.is_connected(g)
        prod, _ = lc.corona(g, h)
        assert recorded_connectivity(prod) == bfs_connected(prod) == expected


@given(graphs(max_order=7))
def test_distance_matrix_invariants(g):
    d = lc.all_pairs_distances(g)
    for u in range(g.n):
        assert d[u][u] == 0
        for v in range(g.n):
            assert d[u][v] == d[v][u]
            assert (d[u][v] == 1) == g.has_edge(u, v)


@given(graphs(max_order=8))
def test_component_order_deterministic(g):
    comps = lc.connected_components(g)
    assert comps == lc.connected_components(g)
    assert [c[0] for c in comps] == sorted(c[0] for c in comps)


@given(graphs(max_order=8))
def test_serialization_round_trip(g):
    assert lc.parse_graph(lc.serialize_graph(g)) == g


@given(graphs(min_order=2, max_order=7, connected=True))
def test_all_distinct_coloring_is_locating(g):
    c = Coloring(g.n, tuple(range(1, g.n + 1)))
    assert lc.verify(g, c).locating


def endpoint_corollary(g):
    # One more than the largest number of endpoints sharing a neighbor.
    return 1 + max(sum(g.degree(w) == 1 for w in g.adjacency[v]) for v in range(g.n))


@given(graphs(min_order=2, max_order=10, connected=True))
def test_lower_bound_covers_endpoint_corollary(g):
    assert lc.locating_lower_bound(g)[0] >= endpoint_corollary(g)


def test_lower_bound_covers_endpoint_corollary_exhaustively():
    for g in atlas_connected(6):
        assert lc.locating_lower_bound(g)[0] >= endpoint_corollary(g)


def lower_bound_by_scan(g):
    # Reference bound: every rule applied to each k in turn, from k = 1,
    # with twins, G+, q(v) and the pendant groups all rebuilt by scans.
    n = g.n
    nbrs = [set() for _ in range(n)]
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    dist = lc.all_pairs_distances(g)
    twin = [
        {v for v in range(n) if v != u
         and all(dist[u][w] == dist[v][w] for w in range(n) if w not in (u, v))}
        for u in range(n)
    ]
    plus = [nbrs[v] | twin[v] for v in range(n)]  # G+: G plus its twin pairs
    cliques = []
    for v in range(n):
        clique = [v]
        for w in sorted(nbrs[v]):
            if all(x in plus[w] for x in clique):
                clique.append(w)
        cliques.append(clique)
    q = [len(clique) for clique in cliques]
    # A member of a greedy clique that is G-adjacent to all the others.
    for clique in cliques:
        for x in clique:
            if all(y in nbrs[x] for y in clique if y != x):
                q[x] = max(q[x], len(clique))
    # A twin class inside N(v), with v.
    for v in range(n):
        for u in range(n):
            cls = twin[u] | {u}
            if cls <= nbrs[v]:
                q[v] = max(q[v], 1 + len(cls))
    groups = {}
    for l in range(n):
        leaves = [p for p in nbrs[l] if len(nbrs[p]) == 1]
        if len(leaves) == 1 and len(nbrs[l]) >= 2:
            key = frozenset(nbrs[l] - set(leaves))
            groups[key] = groups.get(key, 0) + 1
    # Each w with N(w) = N(l) - p counts as one more pair of l's group.
    pendants = max(
        (size + sum(nbrs[w] == key for w in range(n)) for key, size in groups.items()),
        default=0,
    )

    def twin_class_refutes(k):
        for u in range(n):
            cls = twin[u] | {u}
            outside_sees_all = any(
                cls <= nbrs[w] for w in range(n) if w not in cls
            )
            if k < len(cls) or k == len(cls) and outside_sees_all:
                return True
        return False

    # The twin-class rule is implied by the clique rule: a twin class C
    # and any w outside C that sees C are a clique of G+.
    assert all(k < max(q) for k in range(1, n + 1) if twin_class_refutes(k))
    rules = [
        ("clique", lambda k: k < max(q)),
        ("pendant-pair", lambda k: pendants > (k - 1) ** 2),
        ("full-vertex", lambda k: sum(x >= k for x in q) > k),
    ]
    k = 1
    while any(refutes(k) for _, refutes in rules):
        k += 1
    return k, next(tag for tag, refutes in rules if refutes(k - 1))


@settings(deadline=None)
@given(graphs(min_order=2, max_order=12, connected=True))
def test_lower_bound_matches_scan(g):
    assert lc.locating_lower_bound(g) == lower_bound_by_scan(g)


def test_lower_bound_matches_scan_exhaustively():
    for g in atlas_connected(6):
        assert lc.locating_lower_bound(g) == lower_bound_by_scan(g)


@given(graphs(min_order=2, max_order=12, connected=True))
def test_search_refutes_below_lower_bound_in_zero_nodes(g):
    for k in range(1, lc.locating_lower_bound(g)[0]):
        assert lc.find_locating_coloring(g, k) == lc.SearchResult(lc.INFEASIBLE, None, 0)


@settings(deadline=None)
@given(graphs(min_order=2, max_order=6, connected=True))
def test_lower_bound_below_brute_force(g):
    lower, _ = lc.locating_lower_bound(g)
    assert lower <= lc.brute_force_chi_L(g)


@settings(deadline=None, max_examples=40)
@given(graphs(min_order=2, max_order=5, connected=True))
def test_solver_matches_brute_force(g):
    assert lc.chi_L(g).value == lc.brute_force_chi_L(g)


def test_solver_matches_brute_force_exhaustively():
    graphs = atlas_connected(6)
    assert len(graphs) == 142
    for g in graphs:
        assert lc.chi_L(g).value == lc.brute_force_chi_L(g), g.edges


@settings(deadline=None, max_examples=40)
@given(graphs(min_order=2, max_order=6, connected=True), st.integers(2, 6))
def test_found_colorings_rainbow_twin_classes(g, k):
    if k > g.n:
        return
    result = lc.find_locating_coloring(g, k)
    if result.coloring is None:
        return
    for cls in lc.twin_classes(g):
        seen = [result.coloring.colors[v] for v in cls]
        assert len(set(seen)) == len(cls)


@settings(deadline=None, max_examples=40)
@given(graphs(min_order=2, max_order=6, connected=True))
def test_verify_witness_reproduces(g):
    rng = random.Random(g.n * 1009 + g.num_edges)
    # A random proper-ish coloring; improper ones exercise the edge witness.
    k = rng.randint(2, g.n)
    colors = tuple(rng.randint(1, k) for _ in range(g.n))
    if len(set(colors)) != k:
        return
    report = lc.verify(g, Coloring(k, colors))
    if report.locating:
        return
    w = report.witness
    if w["type"] == "monochromatic-edge":
        assert g.has_edge(w["u"], w["v"])
        assert colors[w["u"]] == colors[w["v"]] == w["color"]
    else:
        codes = lc.color_codes(g, Coloring(k, colors))
        assert codes[w["u"]] == codes[w["v"]] == tuple(w["code"])


def verify_by_definition(g, c):
    # Reference: the least monochromatic edge, else the first repeated code
    # in vertex order among codes taken from an all-pairs matrix.
    mono = [(u, v) for u, v in sorted(g.edges) if c.colors[u] == c.colors[v]]
    if mono:
        u, v = mono[0]
        witness = {"type": "monochromatic-edge", "u": u, "v": v, "color": c.colors[u]}
        return lc.VerificationReport(False, False, witness)
    first = {}
    for v, code in enumerate(codes_by_definition(g, c)):
        if code in first:
            witness = {"type": "code-collision", "u": first[code], "v": v, "code": list(code)}
            return lc.VerificationReport(True, False, witness)
        first[code] = v
    return lc.VerificationReport(True, True, None)


@st.composite
def sparse_graphs(draw, max_order=10):
    # A random tree, vertex i hung below one of 0..i-1, plus up to two
    # chords: proper colorings and (color, neighbour colors) key ties are
    # common here, unlike on graphs() of density 1/2.
    n = draw(st.integers(2, max_order))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges += [(u, v) for u, v in draw(st.lists(pairs, max_size=2)) if u != v]
    return lc.make_graph(n, edges)


def renamed(raw):
    # Renaming the colors in order of first use makes a coloring surjective.
    rename = {}
    colors = tuple(rename.setdefault(x, len(rename) + 1) for x in raw)
    return Coloring(len(rename), colors)


@st.composite
def mostly_proper_colorings(draw):
    g = draw(st.one_of(
        sparse_graphs(), graphs(min_order=2, max_order=9, connected=True)
    ))
    # Most draws avoid the colors of each vertex's earlier neighbours while
    # the palette allows, so proper colorings are common; the rest color
    # freely.
    palette = range(1, draw(st.integers(2, g.n)) + 1)
    avoid = draw(st.integers(0, 3)) > 0
    raw = []
    for v, nbrs in enumerate(g.adjacency):
        taken = {raw[w] for w in nbrs if w < v} if avoid else ()
        free = [x for x in palette if x not in taken] or palette
        raw.append(draw(st.sampled_from(free)))
    return g, renamed(raw)


@st.composite
def corona_colorings(draw):
    """A relabelled G (.) E_m, G of order <= 5 and m <= 3 (m = 1 is
    G (.) K1), with a near-locating coloring. The centers take few
    colors, each avoiding its earlier neighbours' while it can; each
    center's leaves take distinct colors other than the center's; then up
    to two leaves take their center's color, a sibling's or any color.
    Leaves of same-colored centers often share a (color, neighbour colors)
    key, so verify reads the rows of grouped leaves; a leaf on its
    center's color makes the coloring improper."""
    g = draw(graphs(min_order=1, max_order=5, connected=True))
    m = draw(st.integers(1, 3))
    prod, _ = lc.corona(g, lc.generate("empty", m))
    palette = range(1, m + 2 + draw(st.integers(0, g.n)))
    raw = []
    for v, nbrs in enumerate(g.adjacency):
        taken = {raw[w] for w in nbrs if w < v}
        raw.append(draw(st.sampled_from([x for x in palette[:g.n] if x not in taken]
                                        or palette)))
    for u in range(g.n):
        raw += draw(st.permutations([x for x in palette if x != raw[u]]))[:m]
    for _ in range(draw(st.integers(0, 2))):
        p = draw(st.integers(g.n, prod.n - 1))
        u = (p - g.n) // m
        kind = draw(st.sampled_from(["center", "sibling", "any"]))
        if kind == "center":
            raw[p] = raw[u]
        elif kind == "sibling":
            raw[p] = raw[g.n + u * m + draw(st.integers(0, m - 1))]
        else:
            raw[p] = draw(st.sampled_from(palette))
    perm = draw(st.permutations(range(prod.n)))
    relabelled = [0] * prod.n
    for v, x in enumerate(raw):
        relabelled[perm[v]] = x
    graph = lc.make_graph(prod.n, [(perm[a], perm[b]) for a, b in prod.edges])
    return graph, renamed(relabelled)


@settings(deadline=None, max_examples=200)
@given(st.one_of(mostly_proper_colorings(), corona_colorings()))
def test_verify_report_matches_definition(drawn):
    # The whole report, locating verdicts included: a coloring declared
    # locating from its (color, neighbour colors) keys must have distinct
    # codes, and any other verdict must carry the reference's witness.
    g, c = drawn
    assert lc.verify(g, c) == verify_by_definition(g, c)


def codes_by_definition(g, c):
    # Reference: d(v, C) as the minimum over C of an all-pairs matrix row.
    dist = lc.all_pairs_distances(g)
    classes = [[u for u in range(g.n) if c.colors[u] == i] for i in range(1, c.k + 1)]
    return [tuple(min(dist[v][u] for u in cls) for cls in classes) for v in range(g.n)]


def twins_by_definition(g):
    # Reference: compare whole distance rows, O(n^3), then close transitively.
    dist = lc.all_pairs_distances(g)
    label = list(range(g.n))
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if all(dist[u][w] == dist[v][w] for w in range(g.n) if w not in (u, v)):
                old, new = label[v], label[u]
                label = [new if x == old else x for x in label]
    groups = {}
    for v in range(g.n):
        groups.setdefault(label[v], []).append(v)
    return sorted(tuple(grp) for grp in groups.values())


@st.composite
def colorings(draw, n):
    k = draw(st.integers(min_value=1, max_value=n))
    rest = draw(st.lists(st.integers(1, k), min_size=n - k, max_size=n - k))
    colors = draw(st.permutations(list(range(1, k + 1)) + rest))
    return Coloring(k, tuple(colors))


@given(st.data())
def test_color_codes_match_distance_definition(data):
    g = data.draw(graphs(min_order=1, max_order=10, connected=True))
    c = data.draw(colorings(g.n))
    assert lc.color_codes(g, c) == codes_by_definition(g, c)


@st.composite
def leaf_group_graphs(draw):
    """Graphs whose leaves share a neighbour, relabelled: G (.) E_m, and
    G (.) (K2 u E_m), where each center's leaves sit beside two satellites
    that are not leaves. Plus K_{1,m}, every vertex but one a grouped leaf,
    and P3, K2 (two leaves, no group) and K1."""
    kind = draw(st.sampled_from(["edgeless", "edge-and-edgeless", "star", "tiny"]))
    if kind == "star":
        g = lc.generate("star", draw(st.integers(2, 7)))
    elif kind == "tiny":
        g = lc.generate("path", draw(st.integers(1, 3)))
    else:
        h = lc.generate("empty", draw(st.integers(1, 4)))
        if kind == "edge-and-edgeless":
            h = lc.disjoint_union(lc.generate("path", 2), h)
        g, _ = lc.corona(draw(graphs(min_order=1, max_order=6, connected=True)), h)
    perm = draw(st.permutations(range(g.n)))
    return lc.make_graph(g.n, [(perm[a], perm[b]) for a, b in g.edges])


@st.composite
def leaf_tied_colorings(draw, g):
    """Arbitrary colorings, improper ones included, in which a leaf often
    takes the color of its neighbour or of a vertex beside it, such as a
    leaf of its own group."""
    raw = draw(st.lists(st.integers(1, g.n), min_size=g.n, max_size=g.n))
    for p, nbrs in enumerate(g.adjacency):
        if len(nbrs) == 1:
            raw[p] = raw[draw(st.sampled_from([p, nbrs[0], *g.adjacency[nbrs[0]]]))]
    return renamed(raw)


@given(st.data())
def test_color_codes_leaf_groups_match_distance_definition(data):
    g = data.draw(leaf_group_graphs())
    c = data.draw(leaf_tied_colorings(g))
    assert lc.color_codes(g, c) == codes_by_definition(g, c)


@given(st.data())
def test_color_codes_rows_match_full_table(data):
    # Rows asked for by a list, in any order and with repeats, grouped
    # leaves included, are the same rows of the whole table.
    g = data.draw(leaf_group_graphs())
    c = data.draw(leaf_tied_colorings(g))
    vertices = data.draw(st.lists(st.integers(0, g.n - 1), max_size=g.n + 2))
    full = lc.color_codes(g, c)
    assert lc.color_codes(g, c, vertices) == [full[v] for v in vertices]


@pytest.mark.parametrize("family,order,colors", [
    ("star", 4, (1, 1, 2, 2)),   # a leaf in its center's class; a class of grouped leaves only
    ("star", 4, (1, 2, 2, 3)),   # two leaves of one group share a color
    ("path", 3, (1, 2, 1)),
    ("path", 3, (1, 1, 2)),
    ("path", 2, (1, 1)),
    ("path", 2, (1, 2)),
    ("path", 1, (1,)),
])
def test_color_codes_leaf_groups_named_cases(family, order, colors):
    g, c = lc.generate(family, order), Coloring(max(colors), colors)
    assert lc.color_codes(g, c) == codes_by_definition(g, c)


@given(graphs(min_order=1, max_order=10, connected=True))
def test_twin_classes_match_distance_definition(g):
    assert lc.twin_classes(g) == twins_by_definition(g)


def test_twin_classes_match_distance_definition_exhaustively():
    # Every labelled connected graph on at most 5 vertices.
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = lc.make_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
            if lc.is_connected(g):
                assert lc.twin_classes(g) == twins_by_definition(g)


@given(graphs(max_order=8), st.data())
def test_multi_source_bfs_is_nearest_source(g, data):
    sources = data.draw(st.lists(st.integers(0, g.n - 1), unique=True))
    dist = lc.all_pairs_distances(g)
    reach = [
        [d for d in (dist[s][v] for s in sources) if d != lc.UNREACHABLE]
        for v in range(g.n)
    ]
    expected = [min(r) if r else lc.UNREACHABLE for r in reach]
    assert lc.bfs_distances(g, sources) == expected


@pytest.mark.parametrize("source", [-1, True, 7, 4, 1.0, None])
def test_bfs_distances_rejects_non_vertex_sources(source):
    with pytest.raises(lc.InputError):
        lc.bfs_distances(lc.generate("path", 4), [0, source])


def test_bfs_distances_without_sources():
    assert lc.bfs_distances(lc.generate("path", 4), []) == [lc.UNREACHABLE] * 4


_graph_tokens = st.sampled_from(
    ["n", "e", "#", "0", "1", "2", "10", "-1", "1_0", "\u00b2", "\u0661", "x", " ", "\n"]
)


@settings(max_examples=300)
@given(st.one_of(st.text(max_size=30), st.lists(_graph_tokens, max_size=16).map("".join)))
def test_parse_graph_fuzz(text):
    # Malformed text may only raise ParseError or InputError.
    try:
        g = lc.parse_graph(text)
    except (lc.ParseError, lc.InputError):
        return
    assert lc.parse_graph(lc.serialize_graph(g)) == g


@st.composite
def prufer_trees(draw, max_order=40):
    """A labelled tree of order 1..max_order, drawn by its Pruefer
    sequence."""
    n = draw(st.integers(1, max_order))
    return prufer_tree(n, draw(st.lists(st.integers(0, n - 1),
                                        min_size=max(n - 2, 0), max_size=max(n - 2, 0))))


@given(prufer_trees(), st.data())
def test_tree_shape_ignores_labels(t, data):
    perm = data.draw(st.permutations(range(t.n)))
    assert _tree_shape(relabel(t, perm)) == _tree_shape(t)
