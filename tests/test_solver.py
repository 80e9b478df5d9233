"""Exact solver, budget contract, and brute-force oracle."""

import pytest
from conftest import atlas_connected

import locachrom as lc
from locachrom.graphs import SizeLimitError
from locachrom.locating import BUDGET_EXHAUSTED, FOUND, INFEASIBLE, SearchResult


def corona(g, h):
    prod, _ = lc.corona(g, h)
    return prod


def corona_p2_p2():
    return corona(lc.generate("path", 2), lc.generate("path", 2))


class TestFindLocatingColoring:
    def test_p2_p2_three_infeasible(self):
        assert lc.find_locating_coloring(corona_p2_p2(), 3).status == INFEASIBLE

    def test_p2_p2_four_found(self):
        result = lc.find_locating_coloring(corona_p2_p2(), 4)
        assert result.status == FOUND
        assert result.coloring.k == 4
        assert lc.verify(corona_p2_p2(), result.coloring).locating

    def test_wheel_thresholds(self):
        w4 = lc.join_with_k1(lc.generate("cycle", 4))
        assert lc.find_locating_coloring(w4, 4).status == INFEASIBLE
        assert lc.find_locating_coloring(w4, 5).status == FOUND

    def test_k_out_of_range(self):
        with pytest.raises(lc.InputError):
            lc.find_locating_coloring(lc.generate("path", 3), 4)

    @pytest.mark.parametrize("n,k", [(4, 3.0), (3, True)], ids=["float", "bool"])
    def test_non_integer_k_refused(self, n, k):
        with pytest.raises(lc.InputError, match="k must be an integer"):
            lc.find_locating_coloring(lc.generate("path", n), k)

    def test_order_above_search_limit_refused(self, monkeypatch):
        def quadratic(g):
            raise AssertionError("the O(n^2) tables were built")

        monkeypatch.setattr(lc.locating, "MAX_SEARCH_ORDER", 5)
        assert lc.find_locating_coloring(lc.generate("path", 5), 3).status == FOUND
        monkeypatch.setattr(lc.locating, "all_pairs_distances", quadratic)
        lc.locating._search_tables.cache_clear()  # no table from the cache
        with pytest.raises(SizeLimitError, match="order 6 exceeds the search limit 5"):
            lc.find_locating_coloring(lc.generate("path", 6), 3)
        # A k that the twin classes refute needs no table.
        assert lc.find_locating_coloring(lc.generate("star", 7), 3).status == INFEASIBLE

    def test_path_1500_searchable(self):
        # The tables of the whole 1,500-vertex order are built and searched
        # until the budget runs out; k = 2 would be refuted without search.
        result = lc.find_locating_coloring(lc.generate("path", 1500), 3, budget=10)
        assert result == SearchResult(BUDGET_EXHAUSTED, None, 11)

    def test_budget_exhaustion_is_explicit(self):
        # k = 4 is refuted without search; k = 5 takes 127 nodes.
        prod, _ = lc.corona(lc.generate("path", 4), lc.generate("path", 3))
        result = lc.find_locating_coloring(prod, 5, budget=10)
        assert result.status == BUDGET_EXHAUSTED
        assert result.coloring is None

    def test_rainbows_twin_classes(self):
        g = lc.generate("star", 4)
        result = lc.find_locating_coloring(g, 4)
        assert result.status == FOUND
        for cls in lc.twin_classes(g):
            seen = [result.coloring.colors[v] for v in cls]
            assert len(set(seen)) == len(cls)

    def test_deterministic(self):
        a = lc.find_locating_coloring(corona_p2_p2(), 4)
        b = lc.find_locating_coloring(corona_p2_p2(), 4)
        assert a == b


class TestSearchTables:
    """The k-independent tables are built once per graph and shared by the
    searches at every k, with no effect on any result."""

    def test_chi_l_builds_distances_once(self, monkeypatch):
        searched, built = [], []
        search, apsp = lc.locating.find_locating_coloring, lc.locating.all_pairs_distances

        def counting_search(g, k, budget):
            result = search(g, k, budget)
            searched.append((k, result.status))
            return result

        def counting_apsp(g):
            built.append(g)
            return apsp(g)

        monkeypatch.setattr(lc.locating, "find_locating_coloring", counting_search)
        monkeypatch.setattr(lc.locating, "all_pairs_distances", counting_apsp)
        lc.locating._search_tables.cache_clear()
        g = corona(lc.generate("path", 3), lc.generate("path", 4))
        assert lc.chi_L.__wrapped__(g).value == 5
        assert searched == [(4, INFEASIBLE), (5, FOUND)]
        assert built == [g]

    def test_chi_l_builds_twin_classes_once(self, monkeypatch):
        # The lower bound reads the twin classes from the search tables.
        built, twins = [], lc.locating.twin_classes

        def counting_twins(g):
            built.append(g)
            return twins(g)

        monkeypatch.setattr(lc.locating, "twin_classes", counting_twins)
        lc.locating._search_tables.cache_clear()
        g = corona(lc.generate("path", 3), lc.generate("path", 4))
        assert lc.chi_L.__wrapped__(g).value == 5
        assert built == [g]

    def test_interleaved_searches_equal_fresh_ones(self):
        a = corona(lc.generate("star", 4), lc.generate("empty", 1))
        b = corona_p2_p2()
        # a has branch swaps, so its searches write floor flags.
        lc.locating._search_tables.cache_clear()
        tables = lc.locating._search_tables(a).tables
        assert tables[4] > 1  # flag slots
        shared = [(g, k, lc.find_locating_coloring(g, k))
                  for g in (a, b, a) for k in range(1, g.n + 1)]
        rebuilt = lc.locating._search_tables(a).tables
        assert rebuilt is not tables and rebuilt == tables
        for g, k, result in shared:
            lc.locating._search_tables.cache_clear()
            assert lc.find_locating_coloring(g, k) == result, (g, k)

    def test_search_limit_holds_for_cached_tables(self, monkeypatch):
        g = lc.generate("path", 6)
        assert lc.find_locating_coloring(g, 3).status == FOUND
        monkeypatch.setattr(lc.locating, "MAX_SEARCH_ORDER", 5)
        hits = lc.locating._search_tables.cache_info().hits
        with pytest.raises(SizeLimitError, match="order 6 exceeds the search limit 5"):
            lc.find_locating_coloring(g, 3)
        assert lc.locating._search_tables.cache_info().hits == hits + 1

    def test_static_rules_need_no_quadratic_table(self, monkeypatch):
        # star_5000 (.) K1 has 10,000 vertices, above the search limit. Its
        # 4,999 pendant pairs on the center refute every k with
        # (k - 1)^2 < 4,999, that is k <= 71, from O(n + m) tables.
        def quadratic(g):
            raise AssertionError("the O(n^2) tables were built")

        monkeypatch.setattr(lc.locating, "all_pairs_distances", quadratic)
        g = corona(lc.generate("star", 5_000), lc.generate("empty", 1))
        for k in (3, 71):
            assert lc.find_locating_coloring(g, k) == SearchResult(INFEASIBLE, None, 0)
        with pytest.raises(SizeLimitError, match="order 10000 exceeds"):
            lc.find_locating_coloring(g, 72)

    @pytest.mark.parametrize("n", [3, 4, 1500])
    def test_two_colors_refuted_without_search(self, n):
        # A connected proper 2-coloring gives only the codes (0, 1), (1, 0).
        g = lc.generate("path", n)
        assert lc.find_locating_coloring(g, 2) == SearchResult(INFEASIBLE, None, 0)


class TestChiL:
    @pytest.mark.parametrize("graph,expected", [
        (lc.generate("path", 2), 2),
        (lc.join_with_k1(lc.generate("path", 2)), 3),
        (lc.generate("star", 6), 6),
        (lc.generate("path", 6), 3),
    ])
    def test_known_values(self, graph, expected):
        result = lc.chi_L(graph)
        assert result.value == expected
        assert lc.verify(graph, result.certificate).locating

    def test_interval_on_budget_exhaustion(self):
        prod, _ = lc.corona(lc.generate("path", 4), lc.generate("path", 3))
        result = lc.chi_L(prod, 5)
        assert result.value is None
        lo, hi = result.lower, result.upper
        assert lo <= hi == prod.n

    def test_order_one_rejected(self):
        with pytest.raises(lc.InputError):
            lc.chi_L(lc.generate("path", 1))

    def test_certificates_identical_across_runs(self):
        g = lc.generate("cycle", 6)
        assert lc.chi_L(g) == lc.chi_L(g)

    def test_search_limit_spares_order_certificates(self, monkeypatch):
        # star 7's lower bound is its order, so chi_L needs no search.
        monkeypatch.setattr(lc.locating, "MAX_SEARCH_ORDER", 5)
        assert lc.chi_L.__wrapped__(lc.generate("star", 7)).value == 7
        with pytest.raises(SizeLimitError):
            lc.chi_L.__wrapped__(lc.generate("path", 6))

    def test_order_certified_within_any_budget(self):
        result = lc.chi_L(lc.generate("complete", 3), 1)
        assert result.value == 3
        assert result.certificate.colors == (1, 2, 3)

    @pytest.mark.parametrize("budget", [True, 2.5, "x", 0, -3])
    @pytest.mark.parametrize("cached", [True, False], ids=["cached", "wrapped"])
    def test_bad_budget_refused(self, budget, cached):
        chi = lc.chi_L if cached else lc.chi_L.__wrapped__
        with pytest.raises(lc.InputError, match="budget must be a positive integer"):
            chi(lc.generate("path", 4), budget)
        with pytest.raises(lc.InputError, match="budget must be a positive integer"):
            lc.find_locating_coloring(lc.generate("path", 4), 3, budget=budget)

    @pytest.mark.parametrize("cached", [True, False], ids=["cached", "wrapped"])
    def test_bad_budget_refused_before_order_certificate(self, cached):
        # chi_L(K3) = 3 = n needs no search, yet the budget is still checked.
        chi = lc.chi_L if cached else lc.chi_L.__wrapped__
        with pytest.raises(lc.InputError, match="budget"):
            chi(lc.generate("complete", 3), "x")

    def test_default_budget_shares_one_cache_entry(self):
        g = lc.generate("path", 7)
        lc.chi_L.cache_clear()
        results = [lc.chi_L(g), lc.chi_L(g, lc.DEFAULT_BUDGET),
                   lc.chi_L(g, budget=lc.DEFAULT_BUDGET)]
        info = lc.chi_L.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        assert results[0] is results[1] is results[2]

    def test_true_budget_not_served_from_cache(self):
        g = lc.generate("path", 4)
        assert lc.chi_L(g, 1).value is None
        with pytest.raises(lc.InputError, match="budget"):
            lc.chi_L(g, True)

    @pytest.mark.parametrize("graph", [
        lc.generate("path", 2), lc.generate("star", 6), lc.generate("complete", 4),
        lc.generate("cycle", 4),
    ])
    def test_no_search_at_k_equal_n(self, graph, monkeypatch):
        searched = []
        real = lc.locating.find_locating_coloring

        def counting(g, k, budget):
            searched.append(k)
            return real(g, k, budget)

        monkeypatch.setattr(lc.locating, "find_locating_coloring", counting)
        assert lc.chi_L.__wrapped__(graph).value == graph.n
        assert graph.n not in searched

    def test_order_certificate_is_the_search_at_k_equal_n(self):
        # The all-distinct coloring chi_L returns for value n is the one the
        # kernel finds at k = n: the lex-min coloring in its search order.
        tied = 0
        for g in atlas_connected(6):
            result = lc.chi_L(g)
            if result.value == g.n:
                assert result.certificate == lc.find_locating_coloring(g, g.n).coloring
                tied += 1
        assert tied > 0


class TestBruteForce:
    def test_p4(self):
        assert lc.brute_force_chi_L(lc.generate("path", 4)) == 3

    def test_c3(self):
        assert lc.brute_force_chi_L(lc.generate("complete", 3)) == 3

    def test_p2(self):
        assert lc.brute_force_chi_L(lc.generate("path", 2)) == 2

    def test_size_guard(self):
        with pytest.raises(SizeLimitError):
            lc.brute_force_chi_L(lc.generate("path", 9))

    def test_order_zero_rejected(self):
        with pytest.raises(lc.InputError, match="order >= 1"):
            lc.brute_force_chi_L(lc.generate("empty", 0))
