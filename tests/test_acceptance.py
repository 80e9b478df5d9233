"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import json
import os
import random
import subprocess
import sys
import time
from importlib import resources
from itertools import combinations

import pytest

import locachrom as lc
from locachrom.locating import INFEASIBLE

from conftest import connected_graphs_up_to_iso, random_graph, star_corona_value


def report(criterion: str, elapsed: float | None = None):
    suffix = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"\nACCEPTANCE {criterion}: PASS{suffix}")


@pytest.fixture(autouse=True)
def fresh_solver_cache():
    # Timing criteria must not ride on results cached by earlier tests.
    lc.chi_L.cache_clear()


def test_criterion_1_theorem2_fixture():
    start = time.perf_counter()
    fx = lc.fixture_theorem2()
    assert lc.verify(fx.graph, fx.result.coloring).locating
    # The paper's code table, transcribed.
    with open(os.path.join(os.path.dirname(__file__), "data",
                           "theorem2_codes.json"), encoding="utf-8") as fh:
        table = json.load(fh)
    assert list(fx.labels) == table["labels"]
    assert fx.codes == {label: tuple(code) for label, code in table["codes"].items()}
    assert fx.codes["(u)"] == (1, 1, 1, 1, 0)
    assert lc.chi_L(lc.join_with_k1(lc.generate("path", 2))).value == 3
    assert lc.chi_L(lc.join_with_k1(lc.generate("cycle", 4))).value == 5
    lower = lc.corona_bounds(
        lc.generate("path", 3),
        lc.disjoint_union(lc.generate("path", 2), lc.generate("cycle", 4)),
    ).lower
    assert lower == 5 == fx.result.coloring.k
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report("1 (theorem2 fixture certifies chi_L = 5)", elapsed)


def test_criterion_2_theorem3_tightness():
    start = time.perf_counter()
    prod, _ = lc.corona(lc.generate("path", 2), lc.generate("path", 2))
    assert lc.find_locating_coloring(prod, 3).status == INFEASIBLE
    found = lc.find_locating_coloring(prod, 4)
    assert found.coloring is not None
    assert lc.verify(prod, found.coloring).locating
    chi_g = lc.chi_L(lc.generate("path", 2)).value
    chi_join = lc.chi_L(lc.join_with_k1(lc.generate("path", 2))).value
    assert lc.chi_L(prod).value == 4 == chi_g + chi_join - 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report("2 (P2 corona P2 equals upper bound 4)", elapsed)


def test_criterion_3_empty_corona():
    start = time.perf_counter()
    checked = 0
    # The construction needs k >= 2: for k = 1 the product of an edge is a
    # path on 4 vertices with value 3, so that (n, k) pair is excluded.
    for n in range(2, 5):
        for g in connected_graphs_up_to_iso(n):
            for k in range(max(2, n - 1), 5):
                result = lc.empty_corona_coloring(g, k)
                prod, _ = lc.corona(g, lc.generate("empty", k))
                assert result.coloring.k == k + 1
                assert lc.verify(prod, result.coloring).locating
                assert lc.locating_lower_bound(prod)[0] == k + 1
                if prod.n <= 16 and k >= 1:
                    assert lc.find_locating_coloring(prod, k).status == INFEASIBLE
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(f"3 (empty-corona value k+1 on {checked} cases)", elapsed)


def test_criterion_4_star_theorem():
    start = time.perf_counter()
    for n in range(4, 51):
        result = lc.star_corona_coloring(n)
        prod, _ = lc.corona(lc.generate("star", n), lc.generate("empty", 1))
        assert lc.verify(prod, result.coloring).locating
        assert result.coloring.k == star_corona_value(n)
    for n in (4, 5, 6):
        prod, _ = lc.corona(lc.generate("star", n), lc.generate("empty", 1))
        assert lc.chi_L(prod).value == star_corona_value(n)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report("4 (star corona value is ceil(sqrt(n)) + 1)", elapsed)


def test_criterion_5_oracle_equivalence(small_trees, random_connected_corpus):
    start = time.perf_counter()
    assert len(random_connected_corpus) >= 100
    mismatches = 0
    for g in [*small_trees, *random_connected_corpus]:
        if lc.chi_L(g).value != lc.brute_force_chi_L(g):
            mismatches += 1
    assert mismatches == 0
    elapsed = time.perf_counter() - start
    count = len(small_trees) + len(random_connected_corpus)
    report(f"5 (solver equals brute force on {count} graphs)", elapsed)


def test_criterion_6_sandwich_property():
    start = time.perf_counter()
    rng = random.Random(20240823)
    solved = 0
    for _ in range(200):
        while True:
            g = random_graph(rng, rng.randint(2, 4), 0.5)
            if lc.is_connected(g):
                break
        h = random_graph(rng, rng.randint(1, 4), 0.4)
        bounds = lc.corona_bounds(g, h)
        f, c_list = lc.optimal_upper_parts(g, h)
        upper = lc.corona_upper_coloring(g, h, f, c_list)
        prod, _ = lc.corona(g, h)
        assert upper.coloring.k == bounds.upper
        assert lc.verify(prod, upper.coloring).locating
        if prod.n <= 16:
            value = lc.chi_L(prod).value
            assert bounds.lower <= value <= bounds.upper
            solved += 1
    elapsed = time.perf_counter() - start
    report(f"6 (sandwich bounds hold; {solved}/200 products solved exactly)", elapsed)


def test_criterion_7_section3_invariants(small_trees, random_connected_corpus):
    start = time.perf_counter()
    for g in [*small_trees, *random_connected_corpus]:
        assert (lc.chi_L(g).value == 2) == (g.n == 2)
    for t in small_trees:
        if t.n > 4:
            continue
        for m in range(1, 4):
            prod, _ = lc.corona(t, lc.generate("empty", m))
            if prod.n > 16:
                continue
            bounds = lc.tree_empty_corona_bounds(t, m)
            value = lc.chi_L(prod).value
            assert bounds.lower <= value <= bounds.upper
            # The m+1 equality requires m >= 2; for m = 1 an edge's product
            # is a path on 4 vertices with value 3.
            if m >= 2 and t.n <= m + 1:
                assert value == m + 1
    elapsed = time.perf_counter() - start
    report("7 (chi_L = 2 iff order 2; tree bounds and equality hold)", elapsed)


def _run_cli(args):
    # The child imports the same locachrom as this process, installed or not.
    src = os.path.dirname(os.path.dirname(lc.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "locachrom.cli", "--format", "json", *args],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_criterion_8_determinism(tmp_path):
    start = time.perf_counter()
    prod, _ = lc.corona(lc.generate("path", 2), lc.generate("path", 2))
    prod_file = tmp_path / "p2p2.graph"
    prod_file.write_text(lc.serialize_graph(prod))
    commands = [
        ["fixture", "theorem2"],
        ["chil", str(prod_file)],
        ["fixture", "empty-corona", "3", "3"],
        ["fixture", "star", "9"],
    ]
    for args in commands:
        first, second = _run_cli(args), _run_cli(args)
        assert first == second, args
        json.loads(first)  # must be valid JSON
    elapsed = time.perf_counter() - start
    report("8 (repeated runs emit byte-identical JSON)", elapsed)


def test_pendant_tree_crosscheck(small_trees):
    # The classifier is exercisable only modulo the shipped g3 data file;
    # on every tree small enough for the solver it must agree exactly.
    start = time.perf_counter()
    g3 = lc.parse_graph(
        resources.files("locachrom.data").joinpath("g3.txt").read_text()
    )
    checked = 0
    for t in small_trees:
        if 2 * t.n > 14 or lc.chi_L(t).value != 3:
            continue
        value = lc.pendant_tree_classifier(t, g3)  # raises on disagreement
        prod, _ = lc.corona(t, lc.generate("empty", 1))
        assert value == lc.chi_L(prod).value
        checked += 1
    assert checked > 0
    elapsed = time.perf_counter() - start
    report(f"pendant-tree (classifier agrees with solver on {checked} trees)", elapsed)
