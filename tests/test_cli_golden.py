"""Golden CLI outputs: the exact stdout and exit code of a fixed set of
commands, so that a refactor keeps the CLI byte-identical.

The expected texts were recorded from the CLI before ``ConstructionResult``
dropped its ``verified`` field. Two outputs changed since: ``fixture``
JSON lost that key, and human ``corona`` gained the ``# map `` prefix that
makes its map line a comment of the graph file. The human budget-exhausted
``chil``, both ``gen`` outputs and human ``fixture star 9`` were recorded
later, before the CLI rendered its human text from the JSON payload. Both
``fixture theorem2`` outputs were recorded while the bundle was still read
from data files, before it was computed from the paper's coloring.
Both budget-5 ``chil`` intervals on P4 (.) P3 rose from [3, 16] to
[4, 16] when the search began to refute k = 3 without a node: the two
ends of a P3 copy are twins, so with its middle and the center they
need four colors. They rose again to [5, 16] when the greedy clique of
a P3 copy's middle (the middle, its center and the copy's two ends) was
credited to the center, which is adjacent to all of it: then the four
centers and the four middles all see every color at k = 4, and the
full-vertex step refutes it. The budget now runs out at k = 5.
"""

import sys

import pytest

import locachrom as lc
from locachrom import cli


def _graph_text(g) -> str:
    return lc.serialize_graph(g)


def _inputs() -> dict:
    p2, p3 = lc.generate("path", 2), lc.generate("path", 3)
    return {
        "p2.graph": _graph_text(p2),
        "p3.graph": _graph_text(p3),
        "p4.graph": _graph_text(lc.generate("path", 4)),
        "p6.graph": _graph_text(lc.generate("path", 6)),
        "e2.graph": _graph_text(lc.generate("empty", 2)),
        "p2uc4.graph": _graph_text(
            lc.disjoint_union(p2, lc.generate("cycle", 4))
        ),
        "p2p2.graph": _graph_text(lc.corona(p2, p2)[0]),
        "p4p3.graph": _graph_text(lc.corona(lc.generate("path", 4), p3)[0]),
        "p3-distinct.json": '{"k": 3, "colors": [1, 2, 3]}',
        "p3-mono.json": '{"k": 2, "colors": [1, 1, 2]}',
        "p4-collision.json": '{"k": 2, "colors": [1, 2, 1, 2]}',
    }


#: The one JSON line that ``fixture theorem2`` prints in both formats.
THEOREM2_BUNDLE = (
    '{"codes": {"(u)": [1, 1, 1, 1, 0], "(u,a)": [2, 0, 2, 1, 1], "(u,b)": [2, 1, 2, 0, 1], "(u,p)": [0, 1, 2, 1, 1], "(u,q)": [1, 0, 1, 2, 1], "(u,r)": [2, 1, 0, 1, 1], "(u,s)": [1, 2, 1, 0, 1], "(v)": [0, 1, 1, 1, 1], "(v,a)": [1, 0, 2, 1, 2], "(v,b)": [1, 1, 2, 0, 2], "(v,p)": [1, 1, 0, 2, 1], "(v,q)": [1, 0, 1, 1, 2], "(v,r)": [1, 1, 2, 0, 1], "(v,s)": [1, 2, 1, 1, 0], "(w)": [1, 1, 0, 1, 1], "(w,a)": [2, 0, 1, 1, 2], "(w,b)": [2, 1, 1, 0, 2], "(w,p)": [0, 2, 1, 1, 1], "(w,q)": [1, 1, 1, 0, 2], "(w,r)": [2, 0, 1, 1, 1], "(w,s)": [1, 1, 1, 2, 0]}, "construction": {"colors": [5, 1, 3, 2, 4, 1, 2, 3, 4, 2, 4, 3, 2, 4, 5, 2, 4, 1, 4, 2, 5], "k": 5, "source": "theorem2"}, "graph": "n 21\\ne 0 1\\ne 0 3\\ne 0 4\\ne 0 5\\ne 0 6\\ne 0 7\\ne 0 8\\ne 1 2\\ne 1 9\\ne 1 10\\ne 1 11\\ne 1 12\\ne 1 13\\ne 1 14\\ne 2 15\\ne 2 16\\ne 2 17\\ne 2 18\\ne 2 19\\ne 2 20\\ne 3 4\\ne 5 6\\ne 5 8\\ne 6 7\\ne 7 8\\ne 9 10\\ne 11 12\\ne 11 14\\ne 12 13\\ne 13 14\\ne 15 16\\ne 17 18\\ne 17 20\\ne 18 19\\ne 19 20\\n", "labels": ["(u)", "(v)", "(w)", "(u,a)", "(u,b)", "(u,p)", "(u,q)", "(u,r)", "(u,s)", "(v,a)", "(v,b)", "(v,p)", "(v,q)", "(v,r)", "(v,s)", "(w,a)", "(w,b)", "(w,p)", "(w,q)", "(w,r)", "(w,s)"], "map": {"centers": [0, 1, 2], "satellites": [{"g": 0, "h": 0, "idx": 3, "t": 1}, {"g": 0, "h": 1, "idx": 4, "t": 1}, {"g": 0, "h": 2, "idx": 5, "t": 2}, {"g": 0, "h": 3, "idx": 6, "t": 2}, {"g": 0, "h": 4, "idx": 7, "t": 2}, {"g": 0, "h": 5, "idx": 8, "t": 2}, {"g": 1, "h": 0, "idx": 9, "t": 1}, {"g": 1, "h": 1, "idx": 10, "t": 1}, {"g": 1, "h": 2, "idx": 11, "t": 2}, {"g": 1, "h": 3, "idx": 12, "t": 2}, {"g": 1, "h": 4, "idx": 13, "t": 2}, {"g": 1, "h": 5, "idx": 14, "t": 2}, {"g": 2, "h": 0, "idx": 15, "t": 1}, {"g": 2, "h": 1, "idx": 16, "t": 1}, {"g": 2, "h": 2, "idx": 17, "t": 2}, {"g": 2, "h": 3, "idx": 18, "t": 2}, {"g": 2, "h": 4, "idx": 19, "t": 2}, {"g": 2, "h": 5, "idx": 20, "t": 2}]}}\n'
)

#: id -> (argv, exit code, stdout). An argv entry ``@name`` is the path of
#: input file ``name``.
GOLDEN = {
    'chil-json-p2p2': (
        ['--format', 'json', 'chil', '@p2p2.graph'],
        0, '{"certificate": {"colors": [1, 2, 2, 3, 1, 4], "k": 4}, "value": 4}\n',
    ),
    'chil-json-budget5-interval': (
        ['--format', 'json', '--budget', '5', 'chil', '@p4p3.graph'],
        2, '{"interval": [5, 16], "value": null}\n',
    ),
    'chil-human-budget5-interval': (
        ['--budget', '5', 'chil', '@p4p3.graph'],
        2, 'indeterminate: chi_L in [5, 16] (budget exhausted)\n',
    ),
    'chil-human-certificate': (
        ['chil', '@p2p2.graph'],
        0, 'chi_L = 4\ncertificate: {"colors": [1, 2, 2, 3, 1, 4], "k": 4}\n',
    ),
    'verify-json-locating': (
        ['--format', 'json', 'verify', '@p3.graph', '@p3-distinct.json'],
        0, '{"verdict": {"locating": true, "proper": true}, "witness": null}\n',
    ),
    'verify-json-monochromatic-edge': (
        ['--format', 'json', 'verify', '@p3.graph', '@p3-mono.json'],
        1, '{"verdict": {"locating": false, "proper": false}, "witness": {"color": 1, "type": "monochromatic-edge", "u": 0, "v": 1}}\n',
    ),
    'verify-json-code-collision': (
        ['--format', 'json', 'verify', '@p4.graph', '@p4-collision.json'],
        1, '{"verdict": {"locating": false, "proper": true}, "witness": {"code": [0, 1], "type": "code-collision", "u": 0, "v": 2}}\n',
    ),
    'verify-human-locating': (
        ['verify', '@p3.graph', '@p3-distinct.json'],
        0, 'locating coloring: yes\n',
    ),
    'verify-human-monochromatic-edge': (
        ['verify', '@p3.graph', '@p3-mono.json'],
        1, 'locating coloring: no (improper); witness: {"color": 1, "type": "monochromatic-edge", "u": 0, "v": 1}\n',
    ),
    'verify-human-code-collision': (
        ['verify', '@p4.graph', '@p4-collision.json'],
        1, 'locating coloring: no (code collision); witness: {"code": [0, 1], "type": "code-collision", "u": 0, "v": 2}\n',
    ),
    'bounds-json-theorem2': (
        ['--format', 'json', 'bounds', '@p3.graph', '@p2uc4.graph'],
        0, '{"indeterminate": false, "lower": 5, "lower_tag": "join-component-max", "tags": {"construction-lemma4": 9, "join-component-max": 5}, "upper": 9, "upper_tag": "construction-lemma4"}\n',
    ),
    'bounds-json-tree-merged': (
        ['--format', 'json', 'bounds', '@p6.graph', '@e2.graph'],
        0, '{"indeterminate": false, "lower": 3, "lower_tag": "m-plus-1", "tags": {"chiL-plus-m": 5, "construction-lemma4": 5, "join-component-max": 2, "m-plus-1": 3}, "upper": 5, "upper_tag": "construction-lemma4"}\n',
    ),
    'bounds-human-theorem2': (
        ['bounds', '@p3.graph', '@p2uc4.graph'],
        0, 'lower = 5 (join-component-max)\nupper = 9 (construction-lemma4)\ntags: {"construction-lemma4": 9, "join-component-max": 5}\n',
    ),
    'bounds-human-tree-merged': (
        ['bounds', '@p6.graph', '@e2.graph'],
        0, 'lower = 3 (m-plus-1)\nupper = 5 (construction-lemma4)\ntags: {"chiL-plus-m": 5, "construction-lemma4": 5, "join-component-max": 2, "m-plus-1": 3}\n',
    ),
    'corona-human': (
        ['corona', '@p2.graph', '@p2.graph'],
        0, 'n 6\ne 0 1\ne 0 2\ne 0 3\ne 1 4\ne 1 5\ne 2 3\ne 4 5\n# map {"centers": [0, 1], "satellites": [{"g": 0, "h": 0, "idx": 2, "t": 1}, {"g": 0, "h": 1, "idx": 3, "t": 1}, {"g": 1, "h": 0, "idx": 4, "t": 1}, {"g": 1, "h": 1, "idx": 5, "t": 1}]}\n',
    ),
    'corona-json': (
        ['--format', 'json', 'corona', '@p2.graph', '@p2.graph'],
        0, '{"graph": "n 6\\ne 0 1\\ne 0 2\\ne 0 3\\ne 1 4\\ne 1 5\\ne 2 3\\ne 4 5\\n", "map": {"centers": [0, 1], "satellites": [{"g": 0, "h": 0, "idx": 2, "t": 1}, {"g": 0, "h": 1, "idx": 3, "t": 1}, {"g": 1, "h": 0, "idx": 4, "t": 1}, {"g": 1, "h": 1, "idx": 5, "t": 1}]}}\n',
    ),
    'gen-json-path-3': (
        ['--format', 'json', 'gen', 'path', '3'],
        0, '{"graph": "n 3\\ne 0 1\\ne 1 2\\n"}\n',
    ),
    'gen-human-path-3': (
        ['gen', 'path', '3'],
        0, 'n 3\ne 0 1\ne 1 2\n',
    ),
    'fixture-human-star-9': (
        ['fixture', 'star', '9'],
        0, '{"construction": {"colors": [1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 4, 3, 1, 4, 2, 1, 3, 2], "k": 4, "source": "star-corona"}}\n',
    ),
    'fixture-human-theorem2': (
        ['fixture', 'theorem2'],
        0, THEOREM2_BUNDLE,
    ),
    'fixture-json-theorem2': (
        ['--format', 'json', 'fixture', 'theorem2'],
        0, THEOREM2_BUNDLE,
    ),
    'fixture-star-9': (
        ['--format', 'json', 'fixture', 'star', '9'],
        0, '{"construction": {"colors": [1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 4, 3, 1, 4, 2, 1, 3, 2], "k": 4, "source": "star-corona"}}\n',
    ),
}


def _check_golden(case, tmp_path, capsys):
    for name, text in _inputs().items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv, code, stdout = GOLDEN[case]
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == stdout
    assert captured.err == ""


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_output(case, tmp_path, capsys):
    _check_golden(case, tmp_path, capsys)


@pytest.mark.parametrize("case", sorted(c for c in GOLDEN if "json" in GOLDEN[c][0]))
def test_json_mode_builds_no_human_text(case, tmp_path, capsys):
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        _check_golden(case, tmp_path, capsys)
    finally:
        sys.setprofile(None)
    assert not {name for name in called if name.startswith("_human_")}
