"""Graph construction, operators, distances, and serialization."""

import re
import sys
from itertools import permutations, product
from pathlib import Path

import networkx as nx
import pytest
from conftest import bfs_connected, from_networkx, recorded_connectivity, relabel

import locachrom as lc
from locachrom.graphs import FAMILIES, ParseError, SizeLimitError, _tree_shape


def isomorphic_brute(g: lc.Graph, h: lc.Graph) -> bool:
    # Independent oracle: try every vertex bijection.
    if g.n != h.n or g.num_edges != h.num_edges:
        return False
    for perm in permutations(range(g.n)):
        if all(h.has_edge(perm[a], perm[b]) for a, b in g.edges):
            return True
    return False


def contains_subgraph_brute(pattern: lc.Graph, host: lc.Graph) -> bool:
    # Independent oracle: try every injection of pattern into host.
    for image in permutations(range(host.n), pattern.n):
        if all(host.has_edge(image[a], image[b]) for a, b in pattern.edges):
            return True
    return False


class TestMakeGraph:
    def test_p2(self):
        g = lc.make_graph(2, [(0, 1)])
        assert g.n == 2 and g.num_edges == 1

    def test_p3(self):
        g = lc.make_graph(3, [(0, 1), (1, 2)])
        assert g.sorted_edges() == [(0, 1), (1, 2)]

    def test_loop_rejected(self):
        with pytest.raises(lc.InputError):
            lc.make_graph(4, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(lc.InputError):
            lc.make_graph(2, [(0, 5)])

    def test_duplicates_collapsed(self):
        g = lc.make_graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_negative_order_rejected(self):
        with pytest.raises(lc.InputError) as exc:
            lc.make_graph(-1, [])
        assert str(exc.value) == "vertex count must be non-negative, got -1"


class TestGenerate:
    def test_star5(self):
        g = lc.generate("star", 5)
        assert g.n == 5 and g.num_edges == 4 and g.degree(0) == 4

    def test_empty3(self):
        g = lc.generate("empty", 3)
        assert g.num_edges == 0
        assert len(lc.connected_components(g)) == 3

    def test_cycle4(self):
        g = lc.generate("cycle", 4)
        assert g.num_edges == 4 and all(g.degree(v) == 2 for v in range(4))

    def test_double_star(self):
        g = lc.generate("double_star", 2, 3)
        assert g.n == 7 and g.degree(0) == 3 and g.degree(1) == 4

    @pytest.mark.parametrize("family,params", [
        ("cycle", (2,)), ("star", (1,)), ("double_star", (0, 1)),
        ("nonsense", (3,)),
    ])
    def test_bad_families(self, family, params):
        with pytest.raises(lc.InputError):
            lc.generate(family, *params)

    @pytest.mark.parametrize("family,params", [
        ("path", ()), ("path", (1, 2)), ("double_star", (1,)),
    ])
    def test_wrong_parameter_count(self, family, params):
        with pytest.raises(lc.InputError, match=f"{family} takes"):
            lc.generate(family, *params)

    @pytest.mark.parametrize("family,params", [
        ("path", (True,)), ("path", (2.5,)), ("path", ("3",)),
        ("double_star", (1, False)),
    ], ids=["bool", "float", "str", "double_star-bool"])
    def test_non_integer_parameter_refused(self, family, params):
        with pytest.raises(lc.InputError, match="must be integers"):
            lc.generate(family, *params)

    def test_unknown_family_named_before_parameter_count(self):
        with pytest.raises(lc.InputError, match="unknown family 'blob'"):
            lc.generate("blob")

    @pytest.mark.parametrize("family,params", [
        ("path", (lc.MAX_ORDER + 1,)),
        ("double_star", (lc.MAX_ORDER // 2, lc.MAX_ORDER // 2 - 1)),
    ])
    def test_order_above_cap_refused(self, refuse_graph_build, family, params):
        with pytest.raises(lc.InputError, match="exceeds the limit"):
            lc.generate(family, *params)

    def test_order_at_cap_accepted(self):
        assert lc.generate("empty", lc.MAX_ORDER).n == lc.MAX_ORDER

    @pytest.mark.parametrize("family,params", [
        ("complete", (6,)), ("cycle", (11,)), ("path", (12,)), ("star", (12,)),
        ("double_star", (5, 5)),
    ])
    def test_size_above_cap_refused(self, refuse_graph_build, monkeypatch,
                                    family, params):
        monkeypatch.setattr(lc.graphs, "MAX_SIZE", 10)
        with pytest.raises(lc.InputError, match="size 1[1-5] exceeds the limit 10"):
            lc.generate(family, *params)

    @pytest.mark.parametrize("family,params,size", [
        ("complete", (5,), 10), ("cycle", (10,), 10), ("path", (11,), 10),
        ("star", (11,), 10), ("double_star", (4, 5), 10), ("empty", (50,), 0),
    ])
    def test_size_at_cap_accepted(self, monkeypatch, family, params, size):
        monkeypatch.setattr(lc.graphs, "MAX_SIZE", 10)
        assert lc.generate(family, *params).num_edges == size

    @pytest.mark.parametrize("family,params,message", [
        ("complete", (0,), "complete requires n >= 1"),
        ("empty", (-1,), "empty requires n >= 0"),
        # The size cap is checked before the least value.
        ("complete", (-100000,), "size 5000050000 exceeds the limit 1000000"),
        ("path", (0,), "path requires n >= 1"),
        ("cycle", (2,), "cycle requires n >= 3"),
        ("star", (1,), "star requires n >= 2"),
        ("double_star", (1, 0), "double_star requires a, b >= 1"),
        ("double_star", (1,), "double_star takes 2 parameter(s), got 1"),
        ("path", (1, 2), "path takes 1 parameter(s), got 2"),
        ("double_star", (lc.MAX_ORDER // 2, lc.MAX_ORDER // 2 - 1),
         "order 100001 exceeds the limit 100000"),
    ])
    def test_refusal_messages(self, refuse_graph_build, family, params, message):
        with pytest.raises(lc.InputError) as exc:
            lc.generate(family, *params)
        assert str(exc.value) == message

    @pytest.mark.parametrize("family,expected", [
        ("path", nx.path_graph), ("cycle", nx.cycle_graph),
        ("star", lambda n: nx.star_graph(n - 1)), ("complete", nx.complete_graph),
        ("empty", nx.empty_graph),
    ])
    def test_rows_match_networkx(self, family, expected):
        _, least, order, size, _ = FAMILIES[family]
        for n in range(least, 13):
            g = lc.generate(family, n)
            assert g == from_networkx(expected(n)), (family, n)
            assert (g.n, g.num_edges) == (order(n), size(n)), (family, n)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_recorded_connectivity_matches_bfs(self, family):
        # Every row but empty with n >= 2 is connected; generate records
        # it, so is_connected runs no BFS on a generated graph.
        names, least = FAMILIES[family][:2]
        for params in product(range(least, least + 4), repeat=len(names)):
            g = lc.generate(family, *params)
            assert recorded_connectivity(g) == bfs_connected(g)

    def test_double_star_rows(self):
        _, least, order, size, _ = FAMILIES["double_star"]
        for a in range(least, 13):
            for b in range(least, 13):
                g = lc.generate("double_star", a, b)
                assert g.has_edge(0, 1) and lc.is_connected(g)
                degrees = [g.degree(v) for v in range(g.n)]
                assert degrees == [a + 1, b + 1] + [1] * (a + b), (a, b)
                assert (g.n, g.num_edges) == (order(a, b), size(a, b)), (a, b)

    def test_readme_lists_exactly_the_families(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        inside = readme.split("\n## What's inside\n", 1)[1].split("\n## ", 1)[0]
        listed = inside.split("standard families", 1)[1].split(")", 1)[0]
        assert re.findall(r"`(\w+)`", listed) == list(FAMILIES)


class TestOperators:
    def test_union_p2_c4(self):
        g = lc.disjoint_union(lc.generate("path", 2), lc.generate("cycle", 4))
        assert g.n == 6 and g.num_edges == 5
        assert len(lc.connected_components(g)) == 2

    def test_union_with_empty0(self):
        g = lc.generate("cycle", 3)
        assert lc.disjoint_union(g, lc.generate("empty", 0)) == g

    def test_union_edgeless(self):
        g = lc.disjoint_union(lc.generate("empty", 2), lc.generate("empty", 3))
        assert g == lc.generate("empty", 5)

    def test_join_p2_gives_triangle(self):
        assert lc.join_with_k1(lc.generate("path", 2)) == lc.generate("complete", 3)

    def test_join_c4_gives_wheel(self):
        w = lc.join_with_k1(lc.generate("cycle", 4))
        assert w.n == 5 and w.degree(4) == 4 and w.num_edges == 8

    def test_join_p1_gives_p2(self):
        assert lc.join_with_k1(lc.generate("path", 1)) == lc.generate("path", 2)


class TestCorona:
    def test_p2_p2_counts(self):
        prod, cmap = lc.corona(lc.generate("path", 2), lc.generate("path", 2))
        assert prod.n == 6 and prod.num_edges == 7
        data = cmap.to_json_dict()
        assert len(data["centers"]) == 2 and len(data["satellites"]) == 4

    def test_theorem2_order(self):
        h = lc.disjoint_union(lc.generate("path", 2), lc.generate("cycle", 4))
        prod, _ = lc.corona(lc.generate("path", 3), h)
        assert prod.n == 21

    def test_product_order_above_cap_refused(self):
        # 317 * (1 + 315) = 100,172 vertices.
        with pytest.raises(SizeLimitError, match="exceeds the limit"):
            lc.corona(lc.generate("path", 317), lc.generate("path", 315))

    def test_product_size_above_cap_refused(self, monkeypatch):
        # P3 (.) P2: 2 + 3 * (2 + 1) = 11 edges.
        g, h = lc.generate("path", 3), lc.generate("path", 2)
        monkeypatch.setattr(lc.graphs, "MAX_SIZE", 10)
        monkeypatch.setattr(lc.graphs, "Graph", None)  # nothing is built
        with pytest.raises(SizeLimitError, match="size 11 exceeds the limit 10"):
            lc.corona(g, h)

    def test_product_size_at_cap_accepted(self, monkeypatch):
        monkeypatch.setattr(lc.graphs, "MAX_SIZE", 11)
        prod, _ = lc.corona(lc.generate("path", 3), lc.generate("path", 2))
        assert prod.num_edges == 11

    def test_p2_pendants_is_p4(self):
        # Expected value computed by the brute-force isomorphism oracle.
        prod, _ = lc.corona(lc.generate("path", 2), lc.generate("empty", 1))
        assert prod.n == 4 and prod.num_edges == 3
        assert isomorphic_brute(prod, lc.generate("path", 4))

    def test_satellites_adjacent_to_center(self):
        prod, cmap = lc.corona(lc.generate("path", 3), lc.generate("cycle", 3))
        data = cmap.to_json_dict()
        for sat in data["satellites"]:
            assert prod.has_edge(sat["idx"], data["centers"][sat["g"]])

    def test_no_edges_between_copies(self):
        prod, cmap = lc.corona(lc.generate("path", 2), lc.generate("path", 2))
        copies = {}
        for sat in cmap.to_json_dict()["satellites"]:
            copies.setdefault(sat["g"], set()).add(sat["idx"])
        for a in copies[0]:
            for b in copies[1]:
                assert not prod.has_edge(a, b)

    def test_map_json_shape(self):
        _, cmap = lc.corona(lc.generate("path", 2), lc.generate("empty", 2))
        data = cmap.to_json_dict()
        assert data["centers"] == [0, 1]
        assert {tuple(sorted(s.items())) for s in data["satellites"]} == {
            (("g", 0), ("h", 0), ("idx", 2), ("t", 1)),
            (("g", 0), ("h", 1), ("idx", 3), ("t", 2)),
            (("g", 1), ("h", 0), ("idx", 4), ("t", 1)),
            (("g", 1), ("h", 1), ("idx", 5), ("t", 2)),
        }


class TestDistances:
    def test_p3(self):
        d = lc.all_pairs_distances(lc.generate("path", 3))
        assert d[0][2] == 2 and d[0][1] == 1

    def test_theorem2_cross_copy(self):
        # BFS oracle on the 21-vertex product: satellites of the two path
        # ends sit at distance d_G(u, w) + 2 = 4.
        h = lc.disjoint_union(lc.generate("path", 2), lc.generate("cycle", 4))
        prod, cmap = lc.corona(lc.generate("path", 3), h)
        d = lc.all_pairs_distances(prod)
        sat_a = {
            s["g"]: s["idx"] for s in cmap.to_json_dict()["satellites"] if s["h"] == 0
        }
        assert d[sat_a[0]][sat_a[2]] == 4

    def test_disconnected_sentinel(self):
        d = lc.all_pairs_distances(lc.generate("empty", 2))
        assert d[0][1] == lc.UNREACHABLE


class TestComponents:
    def test_p2_c4(self):
        h = lc.disjoint_union(lc.generate("path", 2), lc.generate("cycle", 4))
        comps = lc.connected_components(h)
        assert [len(c) for c in comps] == [2, 4]

    def test_k3bar(self):
        assert lc.connected_components(lc.generate("empty", 3)) == [(0,), (1,), (2,)]

    def test_c4(self):
        assert lc.is_connected(lc.generate("cycle", 4))


class TestInducedSubgraph:
    def test_relabels_in_ascending_order(self):
        sub = lc.induced_subgraph(lc.generate("cycle", 5), (4, 0, 1))
        assert sub == lc.make_graph(3, [(0, 1), (0, 2)])

    @pytest.mark.parametrize("vertices,message", [
        ([0, 0, 1], "duplicate vertex"),
        ([1, 99], "out of range"),
        ([-1, 0], "out of range"),
        ([True, 2], "integers"),
    ], ids=["duplicate", "above", "negative", "bool"])
    def test_bad_vertices_rejected(self, vertices, message):
        with pytest.raises(lc.InputError, match=message):
            lc.induced_subgraph(lc.generate("path", 4), vertices)


class TestSubgraphIsomorphic:
    def test_p3_in_p6(self):
        assert lc.subgraph_isomorphic(lc.generate("path", 3), lc.generate("path", 6))

    def test_c3_not_in_tree(self):
        assert not lc.subgraph_isomorphic(
            lc.generate("complete", 3), lc.generate("star", 6)
        )

    def test_star4_not_in_p6(self):
        star4, p6 = lc.generate("star", 4), lc.generate("path", 6)
        assert not contains_subgraph_brute(star4, p6)
        assert not lc.subgraph_isomorphic(star4, p6)

    def test_matches_brute_force_on_small_pairs(self, small_trees):
        host = lc.generate("path", 6)
        for t in small_trees:
            if t.n <= 6:
                expected = contains_subgraph_brute(t, host)
                assert lc.subgraph_isomorphic(t, host) == expected

    def test_size_guard(self):
        big = lc.generate("empty", 65)
        with pytest.raises(SizeLimitError):
            lc.subgraph_isomorphic(big, lc.generate("empty", 70))


class TestTreeShape:
    def test_separates_every_tree_up_to_order_10(self):
        trees = [lc.make_graph(1, [])] + [
            from_networkx(t) for n in range(2, 11) for t in nx.nonisomorphic_trees(n)
        ]
        assert len(trees) == 201
        assert len({_tree_shape(t) for t in trees}) == 201

    def test_bicentral_halves_are_unordered(self):
        # P4 0-1-2-3 with a leaf on 1 or on 2: one tree whose centres 1
        # and 2 carry its two halves in either order.
        a = lc.make_graph(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
        b = lc.make_graph(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
        assert _tree_shape(a) == _tree_shape(b)
        assert _tree_shape(a) != _tree_shape(lc.generate("path", 5))

    @pytest.mark.parametrize("t,form", [
        (lc.make_graph(1, []), (((),),)),
        (lc.generate("path", 4), (((), ()), ((0,), (0,)))),
        (lc.generate("double_star", 2, 1), (((), (), ()), ((0,), (0, 0)))),
        (lc.make_graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]),
         (((), (), ()), ((0,), (0,), (0,)), ((3, 3, 3),))),
    ], ids=["K1", "P4", "double-star", "spider"])
    def test_form_is_pinned(self, t, form):
        # Per layer, the sorted keys; a rank counts the vertices of the
        # layers before. The classifier's verdict cache is keyed on it.
        assert _tree_shape(t) == form

    @pytest.mark.parametrize("kind", ["path", "broom"])
    def test_order_5000_needs_no_recursion(self, kind):
        # A broom: a path of 2,500 vertices with 2,500 leaves on its end.
        # Recursive encodings fail at depth ~1,000 here.
        n = 5_000
        if kind == "path":
            t = lc.generate("path", n)
        else:
            t = lc.make_graph(n, [(i, i + 1) for i in range(2_499)]
                              + [(2_499, i) for i in range(2_500, n)])
        perm = list(range(n))[::-1]
        assert _tree_shape(relabel(t, perm)) == _tree_shape(t)
        assert sum(map(len, _tree_shape(t))) == n  # one key per vertex


class TestSerialization:
    def test_parse_p2(self):
        assert lc.parse_graph("n 2\ne 0 1\n") == lc.generate("path", 2)

    def test_serialize_c3(self):
        assert lc.serialize_graph(lc.generate("cycle", 3)) == "n 3\ne 0 1\ne 0 2\ne 1 2\n"

    def test_out_of_range(self):
        with pytest.raises(ParseError, match="line 2"):
            lc.parse_graph("n 2\ne 0 5\n")

    def test_malformed_line(self):
        with pytest.raises(ParseError):
            lc.parse_graph("n 2\nx 0 1\n")

    @pytest.mark.parametrize("text,message", [
        ("n 2\nn 3\n", "line 2: duplicate 'n' line"),
        ("n 2\ne 1\n", "line 2: expected 'e <u> <v>'"),
        ("n 2\ne 1 1\n", "line 2: loop at vertex 1"),
    ], ids=["second-n", "one-endpoint", "loop"])
    def test_malformed_line_messages(self, text, message):
        with pytest.raises(ParseError) as exc:
            lc.parse_graph(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("lines,edges", [
        ("e 2 0\ne 1 0\n", [(2, 0), (1, 0)]),
        ("e 0 1\ne 1 0\ne 0 1\ne 2 1\n", [(0, 1), (1, 0), (0, 1), (2, 1)]),
        ("e 0000002 00001\n", [(2, 1)]),
    ], ids=["reversed", "duplicate", "zero-padded"])
    def test_parse_matches_make_graph(self, lines, edges):
        assert lc.parse_graph("n 3\n" + lines) == lc.make_graph(3, edges)

    def test_superscript_order_rejected(self):
        # '²' passes str.isdigit() but int() cannot read it.
        with pytest.raises(ParseError, match="line 1"):
            lc.parse_graph("n \u00b2\n")

    def test_non_ascii_endpoint_digits_rejected(self):
        # int() reads Arabic-Indic '١ ٢' as 1 2.
        with pytest.raises(ParseError, match="line 2"):
            lc.parse_graph("n 3\ne \u0661 \u0662\n")

    def test_underscored_endpoint_rejected(self):
        # int() reads '1_0' as 10.
        with pytest.raises(ParseError, match="line 2"):
            lc.parse_graph("n 11\ne 1_0 2\n")

    @pytest.mark.parametrize("token", ["-1", "+1", "1.0", "0x1"])
    def test_signed_or_non_decimal_endpoint_rejected(self, token):
        with pytest.raises(ParseError, match="line 2"):
            lc.parse_graph(f"n 3\ne {token} 2\n")

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="this interpreter has no integer-string digit limit",
    )
    def test_order_beyond_digit_limit_rejected(self):
        with pytest.raises(ParseError, match="too many digits"):
            lc.parse_graph("n " + "9" * 5000 + "\n")

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="this interpreter has no integer-string digit limit",
    )
    @pytest.mark.parametrize("token", ["0" * 4400 + "1", "9" * 5000])
    def test_endpoint_beyond_digit_limit_rejected(self, token):
        # Vertex 1 written with 4,401 digits is refused like any other
        # endpoint past the limit, not read as 1.
        for text in (f"n 3\ne {token} 2\n", f"n 3\ne 2 {token}\n"):
            with pytest.raises(ParseError) as exc:
                lc.parse_graph(text)
            assert str(exc.value) == "line 2: endpoint has too many digits"

    def test_order_above_cap_refused(self, refuse_graph_build):
        with pytest.raises(ParseError, match="line 1: order 100000000 exceeds"):
            lc.parse_graph("n 100000000\ne 0 1\n")

    def test_order_at_cap_accepted(self):
        assert lc.parse_graph(f"n {lc.MAX_ORDER}\n").n == lc.MAX_ORDER

    def test_comments_ignored(self):
        g = lc.parse_graph("# a path\nn 2\n# edge below\ne 0 1\n")
        assert g == lc.generate("path", 2)

    def test_round_trip(self):
        h = lc.disjoint_union(lc.generate("star", 4), lc.generate("cycle", 5))
        assert lc.parse_graph(lc.serialize_graph(h)) == h
