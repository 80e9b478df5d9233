"""CLI contract: subcommands, exit codes, and deterministic JSON."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import locachrom as lc
from locachrom.cli import (
    EXIT_INDETERMINATE,
    EXIT_INVALID,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    _load_coloring,
    build_parser,
    main,
)


def write_graph(path, g):
    path.write_text(lc.serialize_graph(g))
    return str(path)


@pytest.fixture
def p2_file(tmp_path):
    return write_graph(tmp_path / "p2.graph", lc.generate("path", 2))


@pytest.fixture
def p3_file(tmp_path):
    return write_graph(tmp_path / "p3.graph", lc.generate("path", 3))


class TestGen:
    def test_star(self, capsys):
        assert main(["gen", "star", "5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert lc.parse_graph(out) == lc.generate("star", 5)

    def test_empty(self, capsys):
        assert main(["gen", "empty", "3"]) == EXIT_OK
        assert lc.parse_graph(capsys.readouterr().out).num_edges == 0

    def test_cycle_too_small(self, capsys):
        assert main(["gen", "cycle", "2"]) == EXIT_USAGE

    def test_unknown_family(self):
        assert main(["gen", "blob", "3"]) == EXIT_USAGE

    def test_order_above_cap(self, refuse_graph_build, capsys):
        assert main(["gen", "path", str(lc.MAX_ORDER + 1)]) == EXIT_USAGE
        assert "exceeds the limit" in capsys.readouterr().err

    def test_size_above_cap(self, refuse_graph_build, monkeypatch, capsys):
        monkeypatch.setattr(lc.graphs, "MAX_SIZE", 9)
        assert main(["gen", "complete", "5"]) == EXIT_USAGE
        assert "size 10 exceeds the limit 9" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["path"], ["path", "1", "2"], ["double_star", "1"]])
    def test_wrong_parameter_count(self, argv, capsys):
        assert main(["gen", *argv]) == EXIT_USAGE
        assert f"usage error: {argv[0]} takes" in capsys.readouterr().err

    def test_output_file_refused_in_json_mode(self, tmp_path, capsys):
        out = tmp_path / "x.g"
        assert main(["--format", "json", "gen", "path", "4", "-o", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().out == ""
        assert not out.exists()


class TestCorona:
    def test_theorem2_product(self, tmp_path, capsys):
        g = write_graph(tmp_path / "g.graph", lc.generate("path", 3))
        h = write_graph(
            tmp_path / "h.graph",
            lc.disjoint_union(lc.generate("path", 2), lc.generate("cycle", 4)),
        )
        assert main(["--format", "json", "corona", g, h]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert lc.parse_graph(data["graph"]).n == 21
        assert len(data["map"]["satellites"]) == 18

    def test_identity_with_empty_h(self, tmp_path, capsys):
        g = write_graph(tmp_path / "g.graph", lc.generate("path", 2))
        h = write_graph(tmp_path / "h.graph", lc.generate("empty", 0))
        assert main(["--format", "json", "corona", g, h]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert lc.parse_graph(data["graph"]) == lc.generate("path", 2)

    def test_human_output_is_a_graph_file(self, tmp_path, p2_file, capsys):
        # The map rides on a '# map' comment line, so chil reads the output.
        assert main(["corona", p2_file, p2_file]) == EXIT_OK
        text = capsys.readouterr().out
        p2 = lc.generate("path", 2)
        assert lc.parse_graph(text) == lc.corona(p2, p2)[0]
        prod = tmp_path / "prod.graph"
        prod.write_text(text)
        assert main(["--format", "json", "chil", str(prod)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["certificate"] == {
            "colors": [1, 2, 2, 3, 1, 4], "k": 4,
        }

    def test_missing_input(self, tmp_path, p2_file):
        assert main(["corona", p2_file, str(tmp_path / "absent.graph")]) == EXIT_IO

    @pytest.mark.parametrize("flags", [["-o"], ["--map-out"], ["-o", "--map-out"]])
    def test_output_files_refused_in_json_mode(self, tmp_path, p2_file, flags, capsys):
        paths = [str(tmp_path / f"out{i}") for i in range(len(flags))]
        argv = [arg for pair in zip(flags, paths) for arg in pair]
        assert main(["--format", "json", "corona", p2_file, p2_file, *argv]) == EXIT_USAGE
        assert capsys.readouterr().out == ""
        assert not any(os.path.exists(p) for p in paths)

    def test_product_size_above_cap(self, p3_file, p2_file, monkeypatch, capsys):
        monkeypatch.setattr(lc.graphs, "MAX_SIZE", 10)
        assert main(["corona", p3_file, p2_file]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "product size 11 exceeds the limit 10" in captured.err


class TestChil:
    def test_p2_p2_product(self, tmp_path, capsys):
        prod, _ = lc.corona(lc.generate("path", 2), lc.generate("path", 2))
        g = write_graph(tmp_path / "prod.graph", prod)
        assert main(["--format", "json", "chil", g]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["value"] == 4
        cert = lc.Coloring.from_json_dict(data["certificate"])
        assert lc.verify(prod, cert).locating

    def test_star6(self, tmp_path, capsys):
        g = write_graph(tmp_path / "s6.graph", lc.generate("star", 6))
        assert main(["--format", "json", "chil", g]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["value"] == 6

    def test_budget_exhaustion_exit_code(self, tmp_path, capsys):
        prod, _ = lc.corona(lc.generate("path", 4), lc.generate("path", 3))
        g = write_graph(tmp_path / "big.graph", prod)
        code = main(["--format", "json", "--budget", "5", "chil", g])
        assert code == EXIT_INDETERMINATE
        data = json.loads(capsys.readouterr().out)
        assert data["value"] is None and len(data["interval"]) == 2

    def test_bad_budget(self):
        assert main(["--budget", "0", "chil", "whatever"]) == EXIT_USAGE

    def test_order_certified_without_search(self, tmp_path, capsys):
        # chi_L(K3) = 3 = n needs no search, so a budget of 2 nodes decides it.
        g = write_graph(tmp_path / "k3.graph", lc.generate("complete", 3))
        assert main(["--format", "json", "--budget", "2", "chil", g]) == EXIT_OK
        assert capsys.readouterr().out == (
            '{"certificate": {"colors": [1, 2, 3], "k": 3}, "value": 3}\n'
        )


class TestVerify:
    def test_theorem2_fixture_pair(self, tmp_path, capsys):
        fx = lc.fixture_theorem2()
        g = write_graph(tmp_path / "t2.graph", fx.graph)
        c = tmp_path / "t2.coloring.json"
        c.write_text(json.dumps(fx.result.coloring.to_json_dict()))
        assert main(["verify", g, str(c)]) == EXIT_OK

    def test_tampered_fixture(self, tmp_path, capsys):
        # Swap two colors inside one copy; the verifier must object.
        fx = lc.fixture_theorem2()
        colors = list(fx.result.coloring.colors)
        i, j = fx.labels.index("(u,q)"), fx.labels.index("(u,r)")
        colors[i], colors[j] = colors[j], colors[i]
        g = write_graph(tmp_path / "t2.graph", fx.graph)
        c = tmp_path / "bad.coloring.json"
        c.write_text(json.dumps(lc.Coloring(5, tuple(colors)).to_json_dict()))
        assert main(["--format", "json", "verify", g, str(c)]) == EXIT_INVALID
        data = json.loads(capsys.readouterr().out)
        assert data["witness"] is not None

    def test_all_distinct(self, tmp_path, capsys):
        g_obj = lc.generate("cycle", 5)
        g = write_graph(tmp_path / "c5.graph", g_obj)
        c = tmp_path / "c5.coloring.json"
        c.write_text(json.dumps(lc.Coloring(5, (1, 2, 3, 4, 5)).to_json_dict()))
        assert main(["verify", g, str(c)]) == EXIT_OK


class TestBounds:
    def test_theorem2_pair(self, tmp_path, capsys):
        g = write_graph(tmp_path / "g.graph", lc.generate("path", 3))
        h = write_graph(
            tmp_path / "h.graph",
            lc.disjoint_union(lc.generate("path", 2), lc.generate("cycle", 4)),
        )
        assert main(["--format", "json", "bounds", g, h]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["lower"] == 5 and data["upper"] == 9

    def test_tree_tags_added(self, tmp_path, capsys):
        g = write_graph(tmp_path / "p6.graph", lc.generate("path", 6))
        h = write_graph(tmp_path / "k2bar.graph", lc.generate("empty", 2))
        assert main(["--format", "json", "bounds", g, h]) == EXIT_OK
        tags = json.loads(capsys.readouterr().out)["tags"]
        assert tags["m-plus-1"] == 3 and tags["chiL-plus-m"] == 5

    def test_p2_p2(self, tmp_path, capsys):
        g = write_graph(tmp_path / "g.graph", lc.generate("path", 2))
        h = write_graph(tmp_path / "h.graph", lc.generate("path", 2))
        assert main(["--format", "json", "bounds", g, h]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["lower"] == 3 and data["upper"] == 4

    @pytest.mark.parametrize("h,value", [
        (lc.generate("path", 2), 3), (lc.generate("empty", 2), 3),
        (lc.generate("cycle", 4), 5),
    ], ids=["P2", "E2", "C4"])
    def test_k1_g(self, tmp_path, capsys, h, value):
        g = write_graph(tmp_path / "k1.graph", lc.generate("path", 1))
        hfile = write_graph(tmp_path / "h.graph", h)
        assert main(["--format", "json", "bounds", g, hfile]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert (data["lower"], data["upper"]) == (value, value)
        assert (data["lower_tag"], data["upper_tag"]) == ("k1-join-lower", "k1-join-upper")

    def test_k1_g_budget_exhausted(self, tmp_path, capsys):
        # K1 (.) C6 is the wheel W6, of value 5; k = 3 is refuted without
        # search, so the one-node budget runs out at k = 4.
        g = write_graph(tmp_path / "k1.graph", lc.generate("path", 1))
        h = write_graph(tmp_path / "c6.graph", lc.generate("cycle", 6))
        assert main(["--budget", "1", "bounds", g, h]) == EXIT_INDETERMINATE
        assert capsys.readouterr().out.splitlines()[:2] == [
            "lower = 4 (k1-join-lower)", "upper = 7 (k1-join-upper)",
        ]


class TestFixture:
    def test_theorem2_bundle(self, capsys):
        assert main(["--format", "json", "fixture", "theorem2"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        c = data["construction"]
        assert sorted(c) == ["colors", "k", "source"] and c["k"] == 5
        g = lc.parse_graph(data["graph"])
        assert lc.verify(g, lc.Coloring.from_json_dict(c)).locating
        assert len(data["codes"]) == 21
        assert data["codes"]["(u)"] == [1, 1, 1, 1, 0]

    def test_star9(self, capsys):
        assert main(["--format", "json", "fixture", "star", "9"]) == EXIT_OK
        c = json.loads(capsys.readouterr().out)["construction"]
        assert c["k"] == 4
        g, _ = lc.corona(lc.generate("star", 9), lc.generate("empty", 1))
        assert lc.verify(g, lc.Coloring.from_json_dict(c)).locating

    def test_empty_corona(self, capsys):
        assert main(["--format", "json", "fixture", "empty-corona", "3", "3"]) == EXIT_OK
        c = json.loads(capsys.readouterr().out)["construction"]
        assert c["k"] == 4
        g, _ = lc.corona(lc.generate("path", 3), lc.generate("empty", 3))
        assert lc.verify(g, lc.Coloring.from_json_dict(c)).locating

    def test_bad_params(self):
        assert main(["fixture", "star"]) == EXIT_USAGE

    @pytest.mark.parametrize("params", [
        ["star"], ["theorem2", "1"], ["star", "1"],
        ["empty-corona", "0", "3"], ["empty-corona", "3", "0"],
    ], ids=["star-no-n", "theorem2-extra", "star-1", "empty-corona-n-0",
            "empty-corona-k-0"])
    def test_bad_params_are_usage_errors(self, params, capsys):
        # fixture reads no file, so a bad count or value is a usage error.
        assert main(["fixture", *params]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error:")
        assert captured.out == ""

    def test_human_format_is_the_json_bundle(self, capsys):
        outputs = []
        for fmt in ("human", "json"):
            assert main(["--format", fmt, "fixture", "star", "5"]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestMalformedInput:
    """Bad input ends in exit 1 with an 'invalid input:' line, never a
    traceback and never a verdict on a silently coerced value."""

    def assert_invalid(self, capsys, argv, message=None):
        assert main(argv) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.err.startswith("invalid input:")
        assert message is None or captured.err == f"invalid input: {message}\n"
        assert captured.out == ""

    def test_superscript_graph_order(self, tmp_path, capsys):
        g = tmp_path / "g.graph"
        g.write_text("n \u00b2\n", encoding="utf-8")
        self.assert_invalid(capsys, ["chil", str(g)])

    def test_graph_order_above_cap(self, tmp_path, refuse_graph_build, capsys):
        g = tmp_path / "g.graph"
        g.write_text("n 100000000\n")
        self.assert_invalid(capsys, ["chil", str(g)])

    def test_graph_file_not_utf8(self, tmp_path, capsys):
        g = tmp_path / "g.graph"
        g.write_bytes(b"n 2\ne 0 1\n\xff\n")
        self.assert_invalid(capsys, ["chil", str(g)])

    @pytest.mark.parametrize("text", [
        '{"k": "x", "colors": [1, 2, 1]}',
        '{"k": 2, "colors": [1, 2.7, 1]}',
        '{"k": 2, "colors": [1, true, 2]}',
        '{"k": 2, "colors": [1, 2, 1',
        '[' * 100000,
    ], ids=["string-k", "float-color", "bool-color", "truncated", "deep-nesting"])
    def test_bad_coloring_file(self, tmp_path, capsys, p3_file, text):
        c = tmp_path / "c.json"
        c.write_text(text)
        self.assert_invalid(capsys, ["verify", p3_file, str(c)])

    def test_coloring_shorter_than_graph(self, tmp_path, capsys, p3_file):
        c = tmp_path / "c.json"
        c.write_text('{"k": 2, "colors": [1, 2]}')
        self.assert_invalid(capsys, ["verify", p3_file, str(c)],
                            "coloring has 2 entries for a graph of order 3")

    def test_corona_with_empty_g(self, tmp_path, capsys, p3_file):
        g = write_graph(tmp_path / "e0.graph", lc.generate("empty", 0))
        self.assert_invalid(capsys, ["corona", g, p3_file],
                            "corona requires |V(G)| >= 1")

    def test_bounds_with_empty_h(self, tmp_path, capsys, p3_file):
        h = write_graph(tmp_path / "e0.graph", lc.generate("empty", 0))
        self.assert_invalid(capsys, ["bounds", p3_file, h])

    def test_search_above_limit(self, tmp_path, capsys, monkeypatch):
        p6 = write_graph(tmp_path / "p6.graph", lc.generate("path", 6))
        s7 = write_graph(tmp_path / "s7.graph", lc.generate("star", 7))
        monkeypatch.setattr(lc.locating, "MAX_SEARCH_ORDER", 5)
        lc.chi_L.cache_clear()  # a cached value would skip the search
        self.assert_invalid(capsys, ["chil", p6], "order 6 exceeds the search limit 5")
        # star 7's lower bound is its order: certified without search.
        assert main(["chil", s7]) == EXIT_OK

    def test_seed_flag_removed(self):
        assert main(["--seed", "1", "gen", "path", "2"]) == EXIT_USAGE

    def test_output_file_flags_removed(self, tmp_path, p2_file, capsys):
        out = tmp_path / "x"
        assert main(["gen", "path", "2", "-o", str(out)]) == EXIT_USAGE
        assert main(["corona", p2_file, p2_file, "--map-out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().out == ""
        assert not out.exists()


_json_scalars = (
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats() | st.text(max_size=3)
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["k", "colors", "x"]), inner, max_size=3),
    max_leaves=12,
)
_coloring_texts = st.one_of(
    st.text(max_size=40),
    _json_values.map(json.dumps),
    st.fixed_dictionaries(
        {"k": _json_scalars, "colors": st.lists(_json_scalars, max_size=5)}
    ).map(json.dumps),
)


@settings(max_examples=300)
@given(text=_coloring_texts)
def test_coloring_loader_fuzz(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "coloring-fuzz.json"
    path.write_text(text, encoding="utf-8")
    try:
        coloring = _load_coloring(str(path))
    except (lc.InputError, lc.ParseError):
        return
    assert all(type(c) is int for c in (coloring.k, *coloring.colors))


def test_json_output_is_deterministic(tmp_path, capsys):
    g = write_graph(tmp_path / "s5.graph", lc.generate("star", 5))
    outputs = []
    for _ in range(2):
        assert main(["--format", "json", "chil", g]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_startup_skips_importlib_resources():
    # importlib.resources pulls in pathlib, tempfile, shutil, bz2, lzma and
    # urllib: some 25 modules of start-up time and peak memory per run.
    src = os.path.dirname(os.path.dirname(lc.__file__))
    code = (
        "import sys, locachrom.cli\n"
        "assert 'importlib.resources' not in sys.modules, 'loaded on import'\n"
        "assert locachrom.cli.main(['fixture', 'theorem2']) == 0\n"
        "assert 'importlib.resources' not in sys.modules, 'loaded by fixture'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr


def _run_with_closed_stdout(*argv):
    # The pipe's read end is closed before the child starts, so the child's
    # write to stdout fails with EPIPE, and so would the flush at its exit.
    src = os.path.dirname(os.path.dirname(lc.__file__))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "locachrom.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
    finally:
        os.close(write_end)


def test_closed_stdout_exits_io():
    proc = _run_with_closed_stdout("fixture", "star", "9")
    assert proc.returncode == EXIT_IO
    assert proc.stderr == "io error: stdout was closed\n"


@pytest.mark.parametrize("argv", [["-h"], ["chil", "-h"], ["fixture", "star", "-h"]],
                         ids=["top", "chil", "fixture-star"])
def test_help_returns_through_main(argv, capsys):
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith(f"usage: locachrom {' '.join(argv[:-1])}".rstrip())
    assert captured.err == ""


def test_help_to_closed_stdout_exits_io():
    proc = _run_with_closed_stdout("-h")
    assert proc.returncode == EXIT_IO
    assert proc.stderr == "io error: stdout was closed\n"


def _parser_options() -> set:
    """Every option string of the parser and its subparsers, help aside."""
    options, parsers = set(), [build_parser()]
    while parsers:
        for action in parsers.pop()._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            elif not isinstance(action, argparse._HelpAction):
                options.update(action.option_strings)
    return options


def test_readme_documents_exactly_the_parser_options():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    cli_section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    mentioned = set(re.findall(r"(?<![\w-])--?[A-Za-z][\w-]*", cli_section))
    assert mentioned - {"-h", "--help"} == _parser_options()
