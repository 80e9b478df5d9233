"""The paper's 27 corona instances at a 5e4-node budget: every value is
its reference and re-verifies, every interval contains its reference,
every star_n (.) K1 is decided by the solver, every ``chi_L`` JSON output
matches its committed golden, and the resolved count, search count and
total search nodes are pinned."""

import json
import pathlib

import pytest

import locachrom as lc
from locachrom import locating

from conftest import star_corona_value

BUDGET = 50_000

SOLVER = "solver at budget 2e6"

#: The ``chi_L(product, BUDGET).to_json_dict()`` outputs, by label. A new cut
#: may only turn an interval into a value, never alter a certificate; a new
#: search order may alter a certificate, since the certificate is the
#: lexicographically least locating coloring in that order.
GOLDEN = pathlib.Path(__file__).parent / "data" / "corpus_chil.json"


def paper_corpus():
    """(label, G, H, reference value, source of the reference)."""
    path = lambda n: lc.generate("path", n)
    items = [("P2(.)P2", path(2), path(2), 4, "paper: P2 (.) P2 = 4")]
    for a, b, value in [(3, 2, 4), (3, 3, 5), (4, 2, 4), (4, 3, 5), (5, 2, 4),
                        (3, 4, 5), (5, 3, 5), (6, 2, 4)]:
        items.append((f"P{a}(.)P{b}", path(a), path(b), value, SOLVER))
    for n in range(4, 17):
        items.append((f"star{n}(.)K1", lc.generate("star", n), lc.generate("empty", 1),
                      star_corona_value(n), "paper: ceil(sqrt(n)) + 1"))
    for a, k in [(3, 3), (4, 3), (4, 4), (5, 4)]:
        items.append((f"P{a}(.)E{k}", path(a), lc.generate("empty", k), k + 1,
                      "paper: edgeless copies, k + 1"))
    p2_c4 = lc.make_graph(6, [(0, 1), (2, 3), (3, 4), (4, 5), (2, 5)])
    items.append(("P3(.)(P2uC4)", path(3), p2_c4, 5, "paper: Theorem 2"))
    return items


def test_paper_corpus_at_benchmark_budget(monkeypatch):
    nodes = []
    search = locating.find_locating_coloring

    def counted(*args):
        result = search(*args)
        nodes.append(result.nodes)
        return result

    monkeypatch.setattr(locating, "find_locating_coloring", counted)
    resolved = []
    corpus = paper_corpus()
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(corpus) == len(golden) == 27
    for label, g, h, reference, source in corpus:
        product, _ = lc.corona(g, h)
        # Uncached, so every search runs and is counted.
        result = locating.chi_L.__wrapped__(product, BUDGET)
        assert result.to_json_dict() == golden[label], label
        if result.value is None:
            lo, hi = result.lower, result.upper
            assert lo <= reference <= hi, (label, source)
            continue
        assert result.value == reference, (label, source)
        assert result.certificate.k == reference
        assert lc.verify(product, result.certificate).locating, label
        resolved.append(label)
    # The paper's star formula, solver-checked for every n in 4..16.
    assert {f"star{n}(.)K1" for n in range(4, 17)} <= set(resolved), resolved
    # 11,879 nodes before the frozen-code cut, 30,928 before the
    # leaf-block involutions and the refined static bound, 112,450 before
    # each grouped pendant pair's leaf followed its neighbour in the search
    # order, 204,264 before the clique, full-vertex and pendant-pair rules
    # refuted k without search, 204,321 before k = 2 was, 26 of 27 in
    # 273,929 before the full-code cut, and 19 in 600,301 before the
    # branch-swap order.
    assert len(resolved) == 27, resolved
    assert sum(nodes) == 5_442
    # 32 searches before the refined static bound, and 75 before chi_L
    # started at the bound of all five static rules, where it had started
    # at the twin-class bound.
    assert len(nodes) == 28


@pytest.mark.parametrize("n", [25, 49, 100])
def test_star_corona_formula_beyond_corpus(n):
    # ceil(sqrt(n)) + 1, decided by the search at the corpus budget; with
    # every leaf after every other vertex none of these was decided there.
    product, _ = lc.corona(lc.generate("star", n), lc.generate("empty", 1))
    result = locating.chi_L.__wrapped__(product, BUDGET)
    assert result.value == star_corona_value(n)
    assert lc.verify(product, result.certificate).locating


def test_star_corona_bound_is_the_formula(monkeypatch):
    # The pendant-pair rule counts the center's own leaf, whose neighbours
    # are those of every star leaf but its pendant, as one more pair; so
    # the static bound alone is the paper's value, with no distances built.
    def refuse(g):
        raise AssertionError("the static bound built a distance matrix")

    monkeypatch.setattr(locating, "all_pairs_distances", refuse)
    k1 = lc.generate("empty", 1)
    for n in range(4, 401):
        product, _ = lc.corona(lc.generate("star", n), k1)
        bound = lc.locating_lower_bound(product)
        assert bound == (star_corona_value(n), "pendant-pair"), n
