"""Color codes, verification, twin classes, and lower bounds."""

import pytest

import locachrom as lc
from locachrom.locating import Coloring, DisconnectedGraphError


def test_coloring_must_be_surjective():
    with pytest.raises(lc.InputError):
        Coloring(3, (1, 2, 1))


def test_coloring_range_checked():
    with pytest.raises(lc.InputError):
        Coloring(2, (1, 3))


@pytest.mark.parametrize("k,colors", [
    (True, (1, 1, 1)), (2.0, (1, 2)), (2, (1, 2.0)), (2, (True, 2)), ("2", (1, 2)),
], ids=["bool-k", "float-k", "float-color", "bool-color", "str-k"])
def test_coloring_refuses_non_integers(k, colors):
    with pytest.raises(lc.InputError, match="must be integers"):
        Coloring(k, colors)


def test_coloring_refuses_a_list():
    # A list would leave the coloring unhashable and open to change after
    # the checks ran.
    with pytest.raises(lc.InputError, match="must be a tuple"):
        Coloring(2, [1, 2])


@pytest.mark.parametrize("k,colors,message", [
    (2.0, (1, 2), "k and every color must be integers"),
    (2, (1, True), "k and every color must be integers"),
    (2, (1, 3), "colors must lie in 1..2"),
    (2, (0, 1, 2), "colors must lie in 1..2"),
    (0, (), "color count must be positive, got 0"),
    (-1, (5,), "color count must be positive, got -1"),
    (3, (1, 2, 1), "coloring must use every color in 1..k"),
    (1, (), "coloring must use every color in 1..k"),
], ids=["float-k", "bool-color", "above-k", "zero-color", "zero-k", "negative-k",
        "not-surjective", "no-colors"])
def test_coloring_refusal_messages(k, colors, message):
    with pytest.raises(lc.InputError) as exc:
        Coloring(k, colors)
    assert str(exc.value) == message


def test_coloring_json_round_trip():
    c = Coloring(3, (1, 2, 3, 1))
    assert Coloring.from_json_dict({"k": 3, "colors": [1, 2, 3, 1]}) == c


class TestColorCodes:
    def test_theorem2_row(self):
        fx = lc.fixture_theorem2()
        codes = lc.color_codes(fx.graph, fx.result.coloring)
        u_a = fx.labels.index("(u,a)")
        assert codes[u_a] == (2, 0, 2, 1, 1)

    def test_all_distinct_coloring_zero_position(self):
        g = lc.generate("cycle", 5)
        c = Coloring(5, (1, 2, 3, 4, 5))
        for v, code in enumerate(lc.color_codes(g, c)):
            assert code[v] == 0

    def test_p3_hand_bfs(self):
        g = lc.generate("path", 3)
        codes = lc.color_codes(g, Coloring(2, (1, 2, 1)))
        assert codes == [(0, 1), (1, 0), (0, 1)]

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            lc.color_codes(lc.generate("empty", 2), Coloring(2, (1, 2)))

    def test_rows_of_listed_vertices(self):
        # Leaves 1..3 of the star are grouped: their rows are the
        # center's plus one, with 0 at their own color.
        g, c = lc.generate("star", 4), Coloring(3, (1, 2, 3, 2))
        full = lc.color_codes(g, c)
        assert lc.color_codes(g, c, [3, 0, 3]) == [full[3], full[0], full[3]]
        assert lc.color_codes(g, c, []) == []
        # Any iterable is read once, in its order.
        assert lc.color_codes(g, c, (v for v in [3, 0, 3])) == [full[3], full[0], full[3]]
        assert lc.color_codes(g, c, (v for v in [])) == []

    @pytest.mark.parametrize("vertices", [[-1], [4], [True], [1.0], [0, None],
                                          (v for v in [0, 7])])
    def test_bad_vertices_rejected(self, vertices):
        with pytest.raises(lc.InputError, match=r"vertices must lie in \[0, 4\)"):
            lc.color_codes(lc.generate("path", 4), Coloring(2, (1, 2, 1, 2)), vertices)


class TestVerify:
    def test_theorem2_coloring_is_locating(self):
        fx = lc.fixture_theorem2()
        report = lc.verify(fx.graph, fx.result.coloring)
        assert report.proper and report.locating and report.witness is None

    def test_p3_code_collision(self):
        g = lc.generate("path", 3)
        report = lc.verify(g, Coloring(2, (1, 2, 1)))
        assert report.proper and not report.locating
        assert report.witness["type"] == "code-collision"
        assert (report.witness["u"], report.witness["v"]) == (0, 2)

    def test_c3_rainbow(self):
        report = lc.verify(lc.generate("cycle", 3), Coloring(3, (1, 2, 3)))
        assert report.locating

    def test_monochromatic_edge_witness(self):
        g = lc.generate("path", 3)
        report = lc.verify(g, Coloring(2, (1, 1, 2)))
        assert not report.proper
        w = report.witness
        assert w["type"] == "monochromatic-edge"
        assert g.has_edge(w["u"], w["v"])

    @pytest.mark.parametrize("colors,locating,rows", [
        # Keys (color, neighbour colors) all differ: locating without codes.
        ((1, 2, 1, 3), True, []),
        # Vertices 0 and 2 share the key (1, {2}) but not the code:
        # (0, 1, 4) against (0, 1, 2).
        ((1, 2, 1, 2, 3), True, [[0, 2]]),
        # Code collision: 0 and 2 share (1, {2}), 1 and 3 share (2, {1}).
        ((1, 2, 1, 2), False, [[0, 1, 2, 3]]),
        ((1, 1, 2, 3), False, []),  # monochromatic edge: decided before any code
    ], ids=["locating", "locating-tie", "collision", "monochromatic"])
    def test_codes_come_from_color_codes(self, monkeypatch, colors, locating, rows):
        # On a key tie, verify reads the tied vertices' codes, and only
        # theirs, through the public color_codes, the layer a traced
        # benchmark run expects it to enter.
        seen = []
        color_codes = lc.locating.color_codes

        def counting(g, c, vertices=None):
            seen.append(vertices)
            return color_codes(g, c, vertices)

        monkeypatch.setattr(lc.locating, "color_codes", counting)
        g = lc.generate("path", len(colors))
        report = lc.verify(g, Coloring(max(colors), colors))
        assert report.locating == locating
        assert seen == rows

    def test_witness_recheck(self):
        # A collision witness must reproduce when the codes are recomputed.
        g = lc.generate("star", 4)
        c = Coloring(3, (1, 2, 3, 2))
        report = lc.verify(g, c)
        assert not report.locating
        codes = lc.color_codes(g, c)
        w = report.witness
        assert codes[w["u"]] == codes[w["v"]] == tuple(w["code"])


class TestTwinClasses:
    def test_star5(self):
        # Brute-force distance comparison: the 4 endpoints are mutual twins.
        assert lc.twin_classes(lc.generate("star", 5)) == [(0,), (1, 2, 3, 4)]

    def test_p4_all_singletons(self):
        assert lc.twin_classes(lc.generate("path", 4)) == [(0,), (1,), (2,), (3,)]

    def test_k3_single_class(self):
        assert lc.twin_classes(lc.generate("complete", 3)) == [(0, 1, 2)]


class TestLowerBound:
    def test_star5_twin_class(self):
        # The four endpoints are one twin class that the center sees whole:
        # with the center, a clique of G plus its twin pairs.
        assert lc.locating_lower_bound(lc.generate("star", 5)) == (5, "clique")

    def test_corona_p3_k3bar(self):
        prod, _ = lc.corona(lc.generate("path", 3), lc.generate("empty", 3))
        value, _ = lc.locating_lower_bound(prod)
        assert value == 4

    def test_p2_trivial(self):
        value, _ = lc.locating_lower_bound(lc.generate("path", 2))
        assert value == 2

    def test_k1_rejected(self):
        with pytest.raises(lc.InputError, match="lower bound requires order >= 2"):
            lc.locating_lower_bound(lc.generate("path", 1))

    def test_twin_class_with_common_neighbor(self):
        # Wheel on 5 vertices: opposite rim pairs are twins, the hub sees
        # both. So G plus its twin pairs is K5, inside the hub's N[v].
        w4 = lc.join_with_k1(lc.generate("cycle", 4))
        assert lc.locating_lower_bound(w4) == (5, "clique")


class TestPinnedWitnesses:
    """Witnesses the verifier gave before color codes came from per-class
    BFS; the same inputs must keep giving exactly these."""

    @staticmethod
    def theorem2_with(change):
        fx = lc.fixture_theorem2()
        colors = list(fx.result.coloring.colors)
        change(colors, fx.labels.index)
        return lc.verify(fx.graph, Coloring(5, tuple(colors))).witness

    def test_p3(self):
        g = lc.generate("path", 3)
        assert lc.verify(g, Coloring(2, (1, 2, 1))).witness == {
            "type": "code-collision", "u": 0, "v": 2, "code": [0, 1],
        }
        assert lc.verify(g, Coloring(2, (1, 1, 2))).witness == {
            "type": "monochromatic-edge", "u": 0, "v": 1, "color": 1,
        }

    def test_theorem2_swapped_copy_colors(self):
        def swap(colors, at):
            i, j = at("(u,q)"), at("(u,r)")
            colors[i], colors[j] = colors[j], colors[i]

        assert self.theorem2_with(swap) == {
            "type": "code-collision", "u": 6, "v": 11, "code": [1, 1, 0, 2, 1],
        }

    def test_theorem2_monochromatic_p2_copy(self):
        def merge(colors, at):
            colors[at("(u,a)")] = colors[at("(u,b)")]

        assert self.theorem2_with(merge) == {
            "type": "monochromatic-edge", "u": 3, "v": 4, "color": 4,
        }


def test_locating_layer_needs_no_all_pairs_distances(monkeypatch):
    # color_codes costs O(k(n + m)) and twin_classes O(n + m); on a
    # 1,600-vertex product an all-pairs matrix would be 2.56M entries.
    # verify decides both paper colorings below from the (color, neighbour
    # colors) keys alone, in O(n + m), without computing any code.
    def quadratic(g):
        raise AssertionError("all-pairs distances computed")

    def codes(g, c):
        raise AssertionError("color codes computed")

    for module in (lc, lc.graphs, lc.locating):
        monkeypatch.setattr(module, "all_pairs_distances", quadratic)
    color_codes = lc.locating.color_codes
    monkeypatch.setattr(lc.locating, "color_codes", codes)
    c = lc.star_corona_coloring(800).coloring
    prod, _ = lc.corona(lc.generate("star", 800), lc.generate("empty", 1))
    assert prod.n == 1600
    assert lc.verify(prod, c).locating
    c41 = lc.empty_corona_coloring(lc.generate("path", 41), 40).coloring
    prod41, _ = lc.corona(lc.generate("path", 41), lc.generate("empty", 40))
    assert prod41.n == 1681
    assert lc.verify(prod41, c41).locating
    assert len(set(color_codes(prod, c))) == prod.n
    classes = lc.twin_classes(prod)
    assert len(classes) == prod.n  # every vertex of a corona with K1 is alone


def test_connectivity_computed_once_per_graph(monkeypatch):
    # make_graph records nothing, so the first call runs the one BFS.
    g = lc.make_graph(4, [(0, 1), (1, 2), (2, 3)])
    calls = []
    real = lc.graphs.bfs_distances

    def counting(graph, sources):
        calls.append(tuple(sources))
        return real(graph, sources)

    monkeypatch.setattr(lc.graphs, "bfs_distances", counting)
    assert lc.is_connected(g) and lc.is_connected(g)
    assert calls == [(0,)]


@pytest.mark.parametrize("h", [lc.generate("empty", 1), lc.generate("path", 2)],
                         ids=["K1", "P2"])
def test_corona_of_disconnected_graph_rejected(h):
    # The product records G's connectivity instead of running a BFS.
    prod, _ = lc.corona(lc.make_graph(3, [(0, 1)]), h)
    with pytest.raises(DisconnectedGraphError):
        lc.chi_L(prod)
    with pytest.raises(DisconnectedGraphError):
        lc.verify(prod, Coloring(prod.n, tuple(range(1, prod.n + 1))))


@pytest.mark.parametrize("g", ["x", None, [(0, 1)]], ids=["str", "None", "edges"])
@pytest.mark.parametrize("call", [
    lambda g: lc.color_codes(g, Coloring(2, (1, 2))),
    lambda g: lc.verify(g, Coloring(2, (1, 2))),
    lc.twin_classes,
    lc.locating_lower_bound,
    lambda g: lc.find_locating_coloring(g, 2, 100),
    lc.brute_force_chi_L,
], ids=["color_codes", "verify", "twin_classes", "locating_lower_bound",
        "find_locating_coloring", "brute_force_chi_L"])
def test_non_graph_rejected(call, g):
    with pytest.raises(lc.InputError, match="expected a Graph, got "):
        call(g)


@pytest.mark.parametrize("g", ["x", None], ids=["str", "None"])
def test_chi_L_rejects_non_graph(g):
    # chi_L's cache hashes g first, so only hashable values get this far.
    with pytest.raises(lc.InputError, match="expected a Graph, got "):
        lc.chi_L(g)


def test_disconnected_rejected_before_edge_verdict():
    # Vertices 0 and 1 share an edge and a color, but 2 is isolated.
    g = lc.make_graph(3, [(0, 1)])
    with pytest.raises(DisconnectedGraphError):
        lc.verify(g, Coloring(2, (1, 1, 2)))


class TestColoringJson:
    @pytest.mark.parametrize("data", [
        {"k": "x", "colors": [1]},
        {"k": 2, "colors": [1, 2.7, 1]},
        {"k": 2, "colors": [1, True, 2]},
        {"k": True, "colors": [1]},
        {"k": 2.0, "colors": [1, 2]},
        {"k": 2, "colors": "12"},
        {"k": 2},
        {"colors": [1, 2]},
        [2, [1, 2]],
        None,
    ])
    def test_rejects_non_integers_and_bad_shapes(self, data):
        with pytest.raises(lc.InputError):
            Coloring.from_json_dict(data)

    def test_accepts_plain_integers(self):
        assert Coloring.from_json_dict({"k": 2, "colors": [2, 1]}) == Coloring(2, (2, 1))
