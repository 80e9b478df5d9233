"""Constructive colorings, bound formulas, and the tree classifiers."""

import builtins
import json
import random
import re
from importlib import resources
from pathlib import Path

import pytest

import locachrom as lc
from locachrom.constructions import ConstructionError
from locachrom.locating import Coloring

from conftest import prufer_tree, relabel, star_corona_value


#: Holds the paper's Theorem-2 graph and code table, transcribed.
DATA = Path(__file__).parent / "data"


def load_g3() -> lc.Graph:
    text = resources.files("locachrom.data").joinpath("g3.txt").read_text()
    return lc.parse_graph(text)


def p2_union_c4() -> lc.Graph:
    return lc.disjoint_union(lc.generate("path", 2), lc.generate("cycle", 4))


def product(g: lc.Graph, h: lc.Graph) -> lc.Graph:
    return lc.corona(g, h)[0]


class TestCoronaBounds:
    def test_theorem2_pair(self):
        report = lc.corona_bounds(lc.generate("path", 3), p2_union_c4())
        assert report.lower == 5 and report.lower_tag == "join-component-max"
        # chi_L(P3) = 3 by the solver, then 3 + (3-1) + (5-1).
        assert report.upper == 9 and report.upper_tag == "construction-lemma4"

    def test_p2_p2(self):
        report = lc.corona_bounds(lc.generate("path", 2), lc.generate("path", 2))
        assert (report.lower, report.upper) == (3, 4)

    def test_indeterminate_on_tiny_budget(self):
        prod_g = lc.generate("path", 4)
        report = lc.corona_bounds(prod_g, lc.generate("cycle", 4), budget=3)
        assert report.indeterminate

    def test_json_fields(self):
        report = lc.corona_bounds(lc.generate("path", 2), lc.generate("path", 2))
        data = json.loads(json.dumps(report.to_json_dict(), sort_keys=True))
        assert data["tags"] == {"join-component-max": 3, "construction-lemma4": 4}

    def test_empty_h_rejected(self):
        with pytest.raises(lc.InputError, match="at least one vertex"):
            lc.corona_bounds(lc.generate("path", 2), lc.generate("empty", 0))

    def test_best_bounds_add_the_tree_rule(self):
        report = lc.best_corona_bounds(lc.generate("path", 6), lc.generate("empty", 2))
        assert (report.lower, report.upper) == (3, 5)
        # Both rules give 5 at the upper end; the sandwich rule's tag is kept.
        assert (report.lower_tag, report.upper_tag) == ("m-plus-1", "construction-lemma4")
        assert report.tags == {"join-component-max": 2, "construction-lemma4": 5,
                               "m-plus-1": 3, "chiL-plus-m": 5}
        g, h = lc.generate("path", 3), p2_union_c4()
        assert lc.best_corona_bounds(g, h) == lc.corona_bounds(g, h)

    @pytest.mark.parametrize("h", [
        lc.generate("path", 2), lc.generate("empty", 2), lc.generate("path", 3),
        lc.generate("cycle", 4),
    ], ids=["P2", "E2", "P3", "C4"])
    def test_k1_corona_is_the_join(self, h):
        # K1 (.) H = K1 + H; the value comes from the independent oracle. For
        # E2 it is 3 (P3), above the join-max rule's 2.
        value = lc.brute_force_chi_L(lc.join_with_k1(h))
        k1 = lc.generate("path", 1)
        report = lc.best_corona_bounds(k1, h)
        assert report == lc.corona_bounds(k1, h)
        assert (report.lower, report.upper, report.indeterminate) == (value, value, False)
        assert (report.lower_tag, report.upper_tag) == ("k1-join-lower", "k1-join-upper")
        assert report.tags == {"k1-join-lower": value, "k1-join-upper": value}

    def test_k1_corona_interval_on_budget_exhaustion(self):
        # K1 (.) C6 = W6 has value 5; k = 3 is refuted without search.
        report = lc.corona_bounds(lc.generate("path", 1), lc.generate("cycle", 6), budget=1)
        assert (report.lower, report.upper, report.indeterminate) == (4, 7, True)
        assert report.tags == {"k1-join-lower": 4, "k1-join-upper": 7}


class TestCoronaUpperColoring:
    def test_p2_p2(self):
        g = h = lc.generate("path", 2)
        result = lc.corona_upper_coloring(
            g, h, Coloring(2, (1, 2)), [Coloring(3, (1, 2, 3))]
        )
        assert result.coloring.k == 4
        assert lc.verify(product(g, h), result.coloring).locating

    def test_p3_pendants(self):
        g = lc.generate("path", 3)
        result = lc.corona_upper_coloring(
            g, lc.generate("empty", 1),
            Coloring(3, (1, 2, 3)), [Coloring(2, (1, 2))],
        )
        assert result.coloring.k == 4
        assert lc.verify(product(g, lc.generate("empty", 1)), result.coloring).locating

    def test_p2_two_p2_components(self):
        h = lc.disjoint_union(lc.generate("path", 2), lc.generate("path", 2))
        result = lc.corona_upper_coloring(
            lc.generate("path", 2), h,
            Coloring(2, (1, 2)),
            [Coloring(3, (1, 2, 3)), Coloring(3, (1, 2, 3))],
        )
        assert result.coloring.k == 6
        assert lc.verify(product(lc.generate("path", 2), h), result.coloring).locating

    def test_apex_convention_enforced(self):
        g = h = lc.generate("path", 2)
        with pytest.raises(lc.InputError, match="apex"):
            lc.corona_upper_coloring(
                g, h, Coloring(2, (1, 2)), [Coloring(3, (1, 3, 2))]
            )

    def test_non_locating_f_rejected(self):
        g = lc.generate("path", 3)
        with pytest.raises(lc.InputError):
            lc.corona_upper_coloring(
                g, lc.generate("empty", 1),
                Coloring(2, (1, 2, 1)), [Coloring(2, (1, 2))],
            )

    @pytest.mark.parametrize("count", [0, 2])
    def test_component_coloring_count_checked(self, count):
        g = h = lc.generate("path", 2)
        with pytest.raises(lc.InputError, match=f"expected 1 component colorings, got {count}"):
            lc.corona_upper_coloring(
                g, h, Coloring(2, (1, 2)), [Coloring(3, (1, 2, 3))] * count
            )

    def test_non_locating_component_coloring_rejected(self):
        # P2 joined with the apex is K3, which two colors cannot color properly.
        g = h = lc.generate("path", 2)
        with pytest.raises(lc.InputError, match="component coloring 1 is not locating"):
            lc.corona_upper_coloring(
                g, h, Coloring(2, (1, 2)), [Coloring(2, (1, 1, 2))]
            )

    def test_optimal_parts_satisfy_preconditions(self):
        g = lc.generate("path", 3)
        h = p2_union_c4()
        f, c_list = lc.optimal_upper_parts(g, h)
        result = lc.corona_upper_coloring(g, h, f, c_list)
        assert lc.verify(product(g, h), result.coloring).locating
        assert result.coloring.k == lc.corona_bounds(g, h).upper

    @pytest.mark.parametrize("g,h,message", [
        (5, 1, "budget exhausted while coloring G"),
        (2, 4, "budget exhausted on a component join"),
    ], ids=["G", "component-join"])
    def test_optimal_upper_parts_budget_exhausted(self, g, h, message):
        with pytest.raises(ConstructionError) as exc:
            lc.optimal_upper_parts(lc.generate("path", g), lc.generate("path", h), 1)
        assert str(exc.value) == message


class TestSharedJoins:
    """The three sandwich steps share one join K1 + H_t per component of H,
    built once per H and cached on it."""

    @pytest.fixture
    def join_calls(self, monkeypatch):
        lc.constructions._component_joins.cache_clear()
        calls = []

        def counted(h):
            calls.append(h)
            return lc.join_with_k1(h)

        monkeypatch.setattr(lc.constructions, "join_with_k1", counted)
        yield calls
        lc.constructions._component_joins.cache_clear()

    @staticmethod
    def chain(g, h):
        bounds = lc.corona_bounds(g, h)
        f, c_list = lc.optimal_upper_parts(g, h)
        return bounds, (f, c_list), lc.corona_upper_coloring(g, h, f, c_list)

    def test_one_join_per_component(self, join_calls):
        g, h = lc.generate("path", 3), p2_union_c4()
        self.chain(g, h)
        assert join_calls == [lc.generate("path", 2), lc.generate("cycle", 4)]

    def test_equal_h_gets_the_identical_joins(self, join_calls):
        joins = lc.constructions._component_joins(p2_union_c4())
        again = lc.constructions._component_joins(p2_union_c4())
        assert all(a is b for a, b in zip(joins, again, strict=True))
        assert len(join_calls) == 2

    @pytest.mark.parametrize("g,h", [
        (lc.generate("path", 3), p2_union_c4()),
        (lc.generate("path", 2), lc.generate("empty", 3)),
        (lc.generate("cycle", 4), lc.make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])),
    ], ids=["P3-P2uC4", "P2-E3", "C4-paw"])
    def test_outputs_match_an_uncached_chain(self, join_calls, g, h):
        cached = self.chain(g, h)

        def uncached(fn, *args):
            lc.constructions._component_joins.cache_clear()
            return fn(*args)

        bounds = uncached(lc.corona_bounds, g, h)
        f, c_list = uncached(lc.optimal_upper_parts, g, h)
        upper = uncached(lc.corona_upper_coloring, g, h, f, c_list)
        assert cached == (bounds, (f, c_list), upper)

    def test_classifier_builds_no_family_graph(self, monkeypatch):
        g3 = load_g3()

        def refused(*args):
            raise AssertionError(f"generate{args} called")

        monkeypatch.setattr(lc.constructions, "generate", refused)
        assert lc.pendant_tree_classifier(lc.generate("path", 7), g3) == 4
        assert lc.pendant_tree_classifier(lc.generate("path", 3), g3) == 3


class TestTheorem2Fixture:
    def test_codes_match_table(self):
        fx = lc.fixture_theorem2()
        codes = lc.color_codes(fx.graph, fx.result.coloring)
        for v in range(fx.graph.n):
            assert codes[v] == fx.codes[fx.labels[v]], fx.labels[v]

    def test_verified_with_five_colors(self):
        fx = lc.fixture_theorem2()
        assert fx.result.coloring.k == 5
        assert lc.verify(fx.graph, fx.result.coloring).locating

    def test_shipped_data_files_match(self):
        # The bundle is computed from the paper's coloring; it must equal
        # the paper's transcribed graph, map and code table, and the labels
        # must name the vertices the map says they are.
        fx = lc.fixture_theorem2()
        assert lc.parse_graph((DATA / "theorem2_graph.txt").read_text()) == fx.graph
        table = json.loads((DATA / "theorem2_codes.json").read_text())
        cmap = fx.corona_map.to_json_dict()
        assert table["map"] == cmap
        centers, copy = "uvw", "abpqrs"
        labels = [""] * fx.graph.n
        for u, idx in enumerate(cmap["centers"]):
            labels[idx] = f"({centers[u]})"
        for sat in cmap["satellites"]:
            labels[sat["idx"]] = f"({centers[sat['g']]},{copy[sat['h']]})"
        assert list(fx.labels) == labels == table["labels"]
        assert table["codes"] == {
            label: list(code) for label, code in fx.codes.items()
        }

    def test_opens_no_file(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError(f"open{args} called")

        monkeypatch.setattr(builtins, "open", refused)
        assert lc.fixture_theorem2().result.coloring.k == 5

    def test_codes_computed_once(self, monkeypatch):
        # verify certifies the paper's coloring from its (color, neighbour
        # colors) keys, so the fixture's code table is the only code pass.
        calls = []
        real = lc.locating.color_codes

        def counting(g, c):
            calls.append(c)
            return real(g, c)

        for module in (lc.locating, lc.constructions):
            monkeypatch.setattr(module, "color_codes", counting)
        lc.fixture_theorem2()
        assert len(calls) == 1

    def test_independent_of_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        fx = lc.fixture_theorem2()
        assert lc.verify(fx.graph, fx.result.coloring).locating


class TestEmptyCorona:
    def test_p3_three_pendants(self):
        result = lc.empty_corona_coloring(lc.generate("path", 3), 3)
        assert result.coloring.k == 4
        prod = product(lc.generate("path", 3), lc.generate("empty", 3))
        assert lc.verify(prod, result.coloring).locating

    def test_p2_two_pendants(self):
        result = lc.empty_corona_coloring(lc.generate("path", 2), 2)
        prod = product(lc.generate("path", 2), lc.generate("empty", 2))
        assert result.coloring.k == 3 and lc.verify(prod, result.coloring).locating
        assert lc.locating_lower_bound(prod)[0] == 3

    def test_order_guard(self):
        with pytest.raises(lc.InputError):
            lc.empty_corona_coloring(lc.generate("path", 3), 1)

    @pytest.mark.parametrize("n,k,message", [
        (3, 1, "k >= 2"), (1, 3, "|V(G)| >= 2"), (5, 3, "|V(G)| <= k+1, got n=5, k=3"),
    ], ids=["k-1", "order-1", "order-above-k-plus-1"])
    def test_order_guard_messages(self, n, k, message):
        with pytest.raises(lc.InputError, match=re.escape(message)):
            lc.empty_corona_coloring(lc.generate("path", n), k)


class TestStarCorona:
    @pytest.mark.parametrize("n,expected", [(4, 3), (5, 4), (9, 4), (16, 5), (100, 11)])
    def test_closed_form(self, n, expected):
        assert lc.star_corona_coloring(n).coloring.k == expected

    def test_n4_exact_colors(self):
        # Frozen from the construction formula, confirmed by verify.
        result = lc.star_corona_coloring(4)
        prod = product(lc.generate("star", 4), lc.generate("empty", 1))
        assert lc.verify(prod, result.coloring).locating
        colors = result.coloring.colors
        assert colors[0] == 1 and colors[4] == 3          # x, y
        assert colors[1:4] == (2, 2, 3)                   # x_1..x_3
        assert (colors[5], colors[6], colors[7]) == (3, 1, 2)  # y_1..y_3

    @pytest.mark.parametrize("n", [9, 16])
    def test_verified(self, n):
        result = lc.star_corona_coloring(n)
        prod = product(lc.generate("star", n), lc.generate("empty", 1))
        assert lc.verify(prod, result.coloring).locating
        assert result.coloring.k == star_corona_value(n)

    def test_minimum_order(self):
        with pytest.raises(lc.InputError):
            lc.star_corona_coloring(3)

    @pytest.mark.parametrize("build", [lc.star_corona_coloring])
    @pytest.mark.parametrize("n", [4.0, "4"])
    def test_non_integer_order_rejected(self, build, n):
        with pytest.raises(lc.InputError, match="an integer n >= 4"):
            build(n)


class TestLayoutReliance:
    """The constructions color the product by the layout :func:`lc.corona`
    documents; on a product numbered otherwise, verification refuses them."""

    @pytest.fixture
    def satellites_reversed(self, monkeypatch):
        # The same product with its satellite block in reverse order: copy u
        # hangs off center n-1-u, its vertices reversed.
        def mislaid(g, h):
            prod, cmap = lc.corona(g, h)
            last = prod.n + g.n - 1
            perm = [v if v < g.n else last - v for v in range(prod.n)]
            edges = [(perm[a], perm[b]) for a, b in prod.edges]
            return lc.make_graph(prod.n, edges), cmap

        monkeypatch.setattr(lc.constructions, "corona", mislaid)

    def test_star(self, satellites_reversed):
        with pytest.raises(ConstructionError, match="star-corona"):
            lc.star_corona_coloring(4)

    def test_empty_corona(self, satellites_reversed):
        with pytest.raises(ConstructionError, match="empty-corona"):
            lc.empty_corona_coloring(lc.generate("path", 3), 3)

    def test_corona_upper(self, satellites_reversed):
        # Every copy is colored alike, so only a copy that is not symmetric
        # under reversal shows the mislaid product: the paw, a triangle
        # with a pendant.
        g = lc.generate("path", 2)
        paw = lc.make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        f, c_list = lc.optimal_upper_parts(g, paw)
        with pytest.raises(ConstructionError, match="corona-upper"):
            lc.corona_upper_coloring(g, paw, f, c_list)


class TestTreeEmptyCoronaBounds:
    def test_p2_m2(self):
        report = lc.tree_empty_corona_bounds(lc.generate("path", 2), 2)
        assert report.lower == 3
        prod, _ = lc.corona(lc.generate("path", 2), lc.generate("empty", 2))
        assert lc.chi_L(prod).value == 3

    def test_p6_m1(self):
        report = lc.tree_empty_corona_bounds(lc.generate("path", 6), 1)
        assert (report.lower, report.upper) == (2, 4)
        assert report.tags == {"m-plus-1": 2, "chiL-plus-m": 4}

    def test_star5_m1(self):
        report = lc.tree_empty_corona_bounds(lc.generate("star", 5), 1)
        assert (report.lower, report.upper) == (2, 6)

    def test_non_tree_rejected(self):
        with pytest.raises(lc.InputError):
            lc.tree_empty_corona_bounds(lc.generate("cycle", 4), 1)

    def test_m_below_one_rejected(self):
        with pytest.raises(lc.InputError, match="m must be >= 1"):
            lc.tree_empty_corona_bounds(lc.generate("path", 3), 0)

    @pytest.mark.parametrize("m", [1.5, 2.0, True, "2"])
    def test_non_integer_m_rejected(self, m):
        # 1.5 once gave the bounds [2.5, 4.5], and True the lower end 2.
        with pytest.raises(lc.InputError, match="an int, not a bool"):
            lc.tree_empty_corona_bounds(lc.generate("path", 3), m)


def classifier_outcome(t: lc.Graph, g3) -> object:
    """The classifier's value, or the type and message of what it raised."""
    try:
        return lc.pendant_tree_classifier(t, g3)
    except (lc.InputError, ConstructionError) as exc:
        return type(exc), str(exc)


class TestPendantTreeClassifier:
    def test_p3(self):
        assert lc.pendant_tree_classifier(lc.generate("path", 3), load_g3()) == 3

    def test_p6(self):
        assert lc.pendant_tree_classifier(lc.generate("path", 6), load_g3()) == 3

    def test_p7(self):
        assert lc.pendant_tree_classifier(lc.generate("path", 7), load_g3()) == 4

    def test_p65_above_pattern_limit(self):
        # P65 is larger than P6 and g3, so it embeds in neither; the
        # 64-vertex pattern limit of subgraph containment does not apply.
        assert lc.pendant_tree_classifier(lc.generate("path", 65), load_g3()) == 4

    def test_g3_itself(self):
        g3 = load_g3()
        assert lc.pendant_tree_classifier(g3, g3) == 3

    def test_wrong_chi_rejected(self):
        with pytest.raises(lc.InputError):
            lc.pendant_tree_classifier(lc.generate("star", 4), load_g3())

    def test_bad_g3_detected(self):
        # A g3 that wrongly contains P7 contradicts the exact solver.
        bad_g3 = lc.generate("path", 7)
        with pytest.raises(ConstructionError):
            lc.pendant_tree_classifier(lc.generate("path", 7), bad_g3)

    @pytest.mark.parametrize("g3", ["x", None, [(0, 1)]], ids=["str", "None", "edges"])
    @pytest.mark.parametrize("n", [4, 7], ids=["P4-in-P6", "P7-in-neither"])
    def test_g3_must_be_a_graph(self, verdicts, n, g3):
        # P4 embeds in P6, so g3 was never read and 3 came back; P7 ended
        # in a bare AttributeError.
        with pytest.raises(lc.InputError, match="g3 must be a Graph, got "):
            lc.pendant_tree_classifier(lc.generate("path", n), g3)
        assert not verdicts

    @pytest.mark.parametrize("t", ["x", None, [(0, 1)]], ids=["str", "None", "edges"])
    def test_tree_must_be_a_graph(self, verdicts, t):
        with pytest.raises(lc.InputError, match="T must be a Graph, got "):
            lc.pendant_tree_classifier(t, load_g3())
        with pytest.raises(lc.InputError, match="T must be a Graph, got "):
            lc.tree_empty_corona_bounds(t, 1)
        assert not verdicts

    def test_failures_are_not_cached(self, verdicts):
        bad_g3, p7 = lc.generate("path", 7), lc.generate("path", 7)
        for t in (p7, p7, relabel(p7, [3, 1, 6, 0, 5, 2, 4])):
            with pytest.raises(ConstructionError, match="says 3 but the solver found 4"):
                lc.pendant_tree_classifier(t, bad_g3)
        for _ in range(2):
            with pytest.raises(lc.InputError, match="requires a tree with value 3"):
                lc.pendant_tree_classifier(lc.generate("star", 4), load_g3())
        assert not verdicts

    def test_relabelled_tree_is_decided_from_the_cache(self, verdicts, monkeypatch):
        searches, solved = [], []
        search, solve = lc.constructions.subgraph_isomorphic, lc.constructions.chi_L
        monkeypatch.setattr(lc.constructions, "subgraph_isomorphic",
                            lambda *args: searches.append(args) or search(*args))
        monkeypatch.setattr(lc.constructions, "chi_L",
                            lambda g, budget: solved.append(g) or solve(g, budget))
        g3 = load_g3()
        # A spider with legs 1, 2 and 2: value 3, not in P6, so both
        # searches run, and of order 6, so the cross-check solves T (.) K1.
        t = lc.make_graph(6, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5)])
        value = lc.pendant_tree_classifier(t, g3)
        assert len(searches) == 2 and [g.n for g in solved] == [6, 12]
        searches.clear(), solved.clear()
        copy = relabel(t, [5, 3, 0, 4, 2, 1])
        assert copy != t
        assert lc.pendant_tree_classifier(copy, g3) == value
        assert searches == [] and solved == [copy]

    def test_cache_agrees_with_the_uncached_rule(self, verdicts):
        # 2,000 labelled trees of order 2 to 9 fall into far fewer shapes,
        # so most calls are served from the cache.
        rng = random.Random(39)
        orders = [rng.randint(2, 9) for _ in range(2_000)]
        trees = [prufer_tree(n, [rng.randrange(n) for _ in range(n - 2)])
                 for n in orders]
        assert len({lc.graphs._tree_shape(t) for t in trees}) < 100
        for g3 in (load_g3(), lc.generate("star", 6), lc.generate("path", 7)):
            cached = [classifier_outcome(t, g3) for t in trees]
            uncached = []
            for t in trees:
                verdicts.clear()
                uncached.append(classifier_outcome(t, g3))
            assert cached == uncached
