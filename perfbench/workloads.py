"""The benchmark's workloads: corpus generation, operations and checks.

Each workload turns a seed into a corpus of operations. An operation is
a zero-argument call into locachrom's public API, ``cli.main(argv)``
in-process or a library function, plus a check that judges its output
against a reference with a recorded source. Calls look functions up on
the module at call time, so the tracer's wrappers see every one of them.

A check returns ``OK`` or ``UNRESOLVED`` (an indeterminate answer whose
interval still contains the reference) and raises ``CheckFailure`` for a
wrong value, a certificate that does not re-verify, an unexpected exit
code or witness type. An operation that raised fails as well.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from importlib import resources
from typing import Callable

import oracle

OK = "ok"
UNRESOLVED = "unresolved"

#: Search budget of every ``chil`` call in corona-exact, in search nodes.
CORONA_BUDGET = 50_000


class CheckFailure(Exception):
    pass


@dataclass(frozen=True)
class OpError:
    """Stands in for the output of an operation that raised."""

    error: str


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], str]


@dataclass(frozen=True)
class Corpus:
    ops: list
    digest: str


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable
    #: Layers that must be entered on this workload; one that is present
    #: but never hit means a call was rerouted around its wrapper.
    expected_layers: tuple
    #: Seconds of ``--seconds`` per pass: a run makes ``--seconds`` /
    #: ``pass_s`` passes (rounded), whatever the code's speed, so that every
    #: commit takes its best-of over the same number. A workload of few,
    #: long operations gets more passes than its time per pass would allow,
    #: as its best-of needs more samples to be steady on a shared host.
    pass_s: float


def expect(condition: bool, message: str):
    if not condition:
        raise CheckFailure(message)


def _feed(h, *parts):
    for part in parts:
        h.update(str(part).encode())
        h.update(b"\0")


def _run_cli(lc, argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = lc.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_json(output, codes: tuple) -> dict:
    code, stdout, stderr = output
    expect(code in codes, f"exit {code}, expected one of {codes}: {stderr.strip()}")
    return json.loads(stdout)


def _certified(g: tuple, colors, k: int, what: str):
    defect = oracle.locating_defect(g, list(colors), k)
    expect(defect is None, f"{what} does not re-verify: {defect}")


def _write(workdir, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _coloring_text(colors) -> str:
    return json.dumps({"k": max(colors), "colors": list(colors)}) + "\n"


# ---------------------------------------------------------------------------
# corona-exact: `chil` on the paper's corona corpus at a fixed budget.


def _corona_instances() -> list:
    """(label, G, H, reference value, source of the reference)."""
    solver = "seed solver at budget 2e6"
    items = [("P2(.)P2", oracle.path(2), oracle.path(2), 4, "paper: P2 (.) P2 = 4")]
    for a, b, value in [(3, 2, 4), (3, 3, 5), (4, 2, 4), (4, 3, 5), (5, 2, 4),
                        (3, 4, 5), (5, 3, 5), (6, 2, 4)]:
        items.append((f"P{a}(.)P{b}", oracle.path(a), oracle.path(b), value, solver))
    for n in range(4, 17):
        items.append((f"star{n}(.)K1", oracle.star(n), oracle.empty(1),
                      math.isqrt(n - 1) + 2, "paper: ceil(sqrt(n)) + 1"))
    for a, k in [(3, 3), (4, 3), (4, 4), (5, 4)]:
        items.append((f"P{a}(.)E{k}", oracle.path(a), oracle.empty(k), k + 1,
                      "paper: edgeless copies, k + 1"))
    items.append(("P3(.)(P2uC4)", oracle.path(3),
                  oracle.union(oracle.path(2), oracle.cycle(4)), 5, "paper: Theorem 2"))
    return items


def _check_chil(product: tuple, reference: int):
    def check(output):
        data = _cli_json(output, (0, 2))
        if output[0] == 2:
            lo, hi = data["interval"]
            expect(data["value"] is None, "exit 2 with a value")
            expect(lo <= reference <= hi, f"interval [{lo}, {hi}] misses {reference}")
            return UNRESOLVED
        expect(data["value"] == reference, f"value {data['value']} != {reference}")
        cert = data["certificate"]
        expect(cert["k"] == reference, f"certificate uses {cert['k']} colors")
        _certified(product, cert["colors"], cert["k"], "certificate")
        return OK
    return check


def build_corona_exact(lc, seed: int, workdir) -> Corpus:
    """The paper's instances are fixed; the seed sets only their order."""
    items = _corona_instances()
    random.Random(seed).shuffle(items)
    ops, digest = [], hashlib.sha256()
    for i, (label, g, h, reference, source) in enumerate(items):
        product = oracle.corona(g, h)
        text = oracle.graph_text(product)
        path = _write(workdir, f"corona-{i}.graph", text)
        argv = ["--format", "json", "--budget", str(CORONA_BUDGET), "chil", path]
        _feed(digest, label, text, reference, source)
        ops.append(Op(f"chil {label}", lambda a=argv: _run_cli(lc, a),
                      _check_chil(product, reference)))
    return Corpus(ops, digest.hexdigest())


# ---------------------------------------------------------------------------
# many-small: library calls on a seeded corpus of small graphs.

CHI_OPS = 1500
CHAIN_OPS = 1000
TREE_OPS = 500


def _random_graph(rng, n: int, p: float) -> tuple:
    return n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]


def _random_connected(rng, lo: int, hi: int) -> tuple:
    while True:
        g = _random_graph(rng, rng.randint(lo, hi), 0.5)
        if len(oracle.components(*g)) == 1:
            return g


def _random_tree(rng, n: int) -> tuple:
    """Uniform labelled tree from a Pruefer sequence."""
    if n == 2:
        return 2, [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = (x for x in range(n) if degree[x] == 1)
    edges.append((u, w))
    return n, oracle.normalized(edges)


def _induced(g: tuple, vertices) -> tuple:
    index = {v: i for i, v in enumerate(sorted(vertices))}
    n, edges = g
    return len(index), [(index[a], index[b]) for a, b in edges
                        if a in index and b in index]


def _component_joins(h: tuple) -> list:
    return [oracle.join_k1(_induced(h, comp)) for comp in oracle.components(*h)]


def _brute(lc, g: tuple) -> int:
    return lc.brute_force_chi_L(lc.make_graph(*g))


def _check_chi(lc, g: tuple):
    def check(result):
        reference = _brute(lc, g)
        expect(result.value == reference, f"value {result.value} != brute force {reference}")
        cert = result.certificate
        expect(cert.k == reference, f"certificate uses {cert.k} colors")
        _certified(g, cert.colors, cert.k, "certificate")
        return OK
    return check


def _chain(lc, g, h):
    bounds = lc.corona_bounds(g, h)
    f, c_list = lc.optimal_upper_parts(g, h)
    upper = lc.corona_upper_coloring(g, h, f, c_list)
    product, _ = lc.corona(g, h)
    exact = lc.chi_L(product) if product.n <= 10 else None
    return bounds, f, c_list, upper, exact


def _check_chain(lc, g: tuple, h: tuple):
    def check(output):
        bounds, f, c_list, upper, exact = output
        joins = _component_joins(h)
        join_values = [_brute(lc, q) for q in joins]
        g_value = _brute(lc, g)
        lower = max(join_values)
        top = g_value + sum(v - 1 for v in join_values)
        expect((bounds.lower, bounds.upper) == (lower, top),
               f"bounds [{bounds.lower}, {bounds.upper}] != sandwich [{lower}, {top}]")
        expect(not bounds.indeterminate, "bounds indeterminate")
        expect(f.k == g_value, f"coloring of G uses {f.k} colors, not {g_value}")
        _certified(g, f.colors, f.k, "coloring of G")
        for q, value, c_t in zip(joins, join_values, c_list, strict=True):
            expect(c_t.k == value, f"join coloring uses {c_t.k} colors, not {value}")
            expect(c_t.colors[-1] == c_t.k, "apex does not get the highest color")
            _certified(q, c_t.colors, c_t.k, "join coloring")
        product = oracle.corona(g, h)
        expect(upper.coloring.k == top, f"upper coloring uses {upper.coloring.k} colors")
        _certified(product, upper.coloring.colors, upper.coloring.k, "upper coloring")
        if product[0] <= 10:
            value = exact.value
            expect(value is not None and lower <= value <= top,
                   f"exact value {value} outside the sandwich [{lower}, {top}]")
            _certified(product, exact.certificate.colors, value, "product certificate")
            if product[0] <= 8:
                expect(value == _brute(lc, product), "product value != brute force")
        return OK
    return check


def _tree_op(lc, t, m, g3):
    report = lc.tree_empty_corona_bounds(t, m)
    # The classifier is defined for trees of value 3 only.
    value = lc.pendant_tree_classifier(t, g3) if report.upper - m == 3 else None
    return report, value


def _check_tree(lc, t: tuple, m: int):
    def check(output):
        report, value = output
        t_value = _brute(lc, t)
        expect((report.lower, report.upper) == (m + 1, t_value + m),
               f"tree bounds [{report.lower}, {report.upper}] != [{m + 1}, {t_value + m}]")
        expect(not report.indeterminate, "tree bounds indeterminate")
        if t_value != 3:
            expect(value is None, "classifier ran on a tree whose value is not 3")
            return OK
        # Reference: the seed solver at the default budget on t (.) K1.
        product = oracle.corona(t, oracle.empty(1))
        graph = lc.make_graph(*product)
        expect(value in (3, 4), f"classifier returned {value}")
        for k in (3, 4):
            found = lc.find_locating_coloring(graph, k)
            if k < value:
                expect(found.status == "infeasible", f"k = {k} is not infeasible")
            else:
                expect(found.status == "found", f"no {k}-coloring found")
                _certified(product, found.coloring.colors, k, "solver coloring")
                break
        return OK
    return check


def build_many_small(lc, seed: int, workdir) -> Corpus:
    """Orders are stratified, every order equally often, so that seeds
    differ in the graphs drawn and not in how many large ones they hold."""
    rng = random.Random(seed)
    g3_text = resources.files("locachrom.data").joinpath("g3.txt").read_text()
    g3 = lc.make_graph(*oracle.parse_graph_text(g3_text))
    specs = ([("chi", 2 + i % 7, None) for i in range(CHI_OPS)]
             + [("chain", 2 + i % 3, 1 + i // 3 % 4) for i in range(CHAIN_OPS)]
             + [("tree", 2 + i % 5, 1 + i // 5 % 3) for i in range(TREE_OPS)])
    rng.shuffle(specs)
    ops, digest = [], hashlib.sha256()
    for kind, order, other in specs:
        if kind == "chi":
            g = _random_connected(rng, order, order)
            lg = lc.make_graph(*g)
            ops.append(Op("chi_L", lambda x=lg: lc.chi_L(x), _check_chi(lc, g)))
            _feed(digest, kind, g)
        elif kind == "chain":
            g, h = _random_connected(rng, order, order), _random_graph(rng, other, 0.4)
            lg, lh = lc.make_graph(*g), lc.make_graph(*h)
            ops.append(Op("corona sandwich", lambda x=lg, y=lh: _chain(lc, x, y),
                          _check_chain(lc, g, h)))
            _feed(digest, kind, g, h)
        else:
            t, m = _random_tree(rng, order), other
            lt = lc.make_graph(*t)
            ops.append(Op("tree bounds + classifier",
                          lambda x=lt, y=m: _tree_op(lc, x, y, g3), _check_tree(lc, t, m)))
            _feed(digest, kind, t, m)
    return Corpus(ops, digest.hexdigest())


# ---------------------------------------------------------------------------
# certify-large: CLI fixtures, verify, corona and bounds on large inputs.

STAR_LADDER = (50, 100, 200, 400, 600, 800)
EMPTY_LADDER = (5, 10, 20, 30, 40)
VERIFY_SIZES = (24, 34)
BOUNDS_PATHS = (40, 60, 80)


def _check_star_fixture(n: int):
    def check(output):
        c = _cli_json(output, (0,))["construction"]
        reference = math.isqrt(n - 1) + 2  # paper: ceil(sqrt(n)) + 1
        expect(c["k"] == reference, f"star {n} uses {c['k']} colors, not {reference}")
        _certified(oracle.corona(oracle.star(n), oracle.empty(1)), c["colors"], c["k"],
                   "star construction")
        return OK
    return check


def _check_empty_fixture(k: int):
    def check(output):
        c = _cli_json(output, (0,))["construction"]
        expect(c["k"] == k + 1, f"uses {c['k']} colors, not k + 1 = {k + 1}")
        _certified(oracle.corona(oracle.path(k + 1), oracle.empty(k)), c["colors"],
                   c["k"], "empty-corona construction")
        return OK
    return check


def _check_theorem2(output):
    data = _cli_json(output, (0,))
    g = oracle.corona(oracle.path(3), oracle.union(oracle.path(2), oracle.cycle(4)))
    expect(oracle.parse_graph_text(data["graph"]) == g, "graph is not P3 (.) (P2 u C4)")
    c = data["construction"]
    expect(c["k"] == 5, f"uses {c['k']} colors, paper's Theorem 2 says 5")
    _certified(g, c["colors"], 5, "theorem2 construction")
    table = oracle.codes(g, c["colors"])
    labels = data["labels"]
    expect(len(set(labels)) == g[0], "labels are not distinct")
    for v, label in enumerate(labels):
        expect(tuple(data["codes"][label]) == table[v], f"code of {label} is wrong")
    return OK


def _empty_corona_colors(k: int) -> list:
    """The (k+1)-coloring of P_{k+1} (.) E_k: center i gets color i + 1;
    pendant t of center i gets t, or k + 1 when t = i + 1."""
    colors = list(range(1, k + 2))
    for i in range(k + 1):
        colors += [k + 1 if t == i + 1 else t for t in range(1, k + 1)]
    return colors


def _check_verify(g: tuple, colors: list, witness_type):
    def check(output):
        data = _cli_json(output, (0,) if witness_type is None else (1,))
        witness = data["witness"]
        if witness_type is None:
            _certified(g, colors, max(colors), "verify input")
            expect(witness is None, "witness on a locating coloring")
            expect(data["verdict"] == {"proper": True, "locating": True}, "wrong verdict")
            return OK
        expect(witness["type"] == witness_type, f"witness type {witness['type']}")
        u, v = witness["u"], witness["v"]
        expect(u != v, "witness names one vertex twice")
        if witness_type == "monochromatic-edge":
            expect((min(u, v), max(u, v)) in set(g[1]), "witness is not an edge")
            expect(colors[u] == colors[v] == witness["color"], "witness edge is not monochromatic")
            expect(data["verdict"] == {"proper": False, "locating": False}, "wrong verdict")
        else:
            table = oracle.codes(g, colors)
            expect(table[u] == table[v] == tuple(witness["code"]), "witness codes differ")
            expect(data["verdict"] == {"proper": True, "locating": False}, "wrong verdict")
        return OK
    return check


def _check_corona(g: tuple, h: tuple):
    def check(output):
        data = _cli_json(output, (0,))
        product = oracle.corona(g, h)
        expect(oracle.parse_graph_text(data["graph"]) == product, "wrong product graph")
        expect(data["map"]["centers"] == list(range(g[0])), "wrong centers")
        expect(len(data["map"]["satellites"]) == g[0] * h[0], "wrong satellite count")
        return OK
    return check


def _check_bounds(lc, g: tuple, h: tuple):
    def check(output):
        data = _cli_json(output, (0,))
        join_values = [_brute(lc, q) for q in _component_joins(h)]
        g_value = 3  # chi_L(P_n) = 3 for n >= 3 (Chartrand et al., 2002)
        lower = max(join_values)
        upper = g_value + sum(v - 1 for v in join_values)
        if not h[1]:  # tree G with edgeless H: the m + 1 <= . <= chi_L(T) + m bounds
            lower, upper = max(lower, h[0] + 1), min(upper, g_value + h[0])
        expect((data["lower"], data["upper"]) == (lower, upper),
               f"bounds [{data['lower']}, {data['upper']}] != [{lower}, {upper}]")
        expect(data["indeterminate"] is False, "bounds indeterminate")
        return OK
    return check


def _small_union(rng) -> tuple:
    return oracle.union(*(_random_connected(rng, 1, 4) for _ in range(rng.randint(1, 3))))


def _permutation(rng, n: int) -> list:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def build_certify_large(lc, seed: int, workdir) -> Corpus:
    """Fixture parameters are fixed ladders; the seed relabels the verify
    inputs, picks the broken vertices and draws the small H graphs."""
    rng = random.Random(seed)
    entries = []

    def add(label, argv, check, *inputs):
        op = Op(label, lambda a=["--format", "json", *argv]: _run_cli(lc, a), check)
        entries.append((op, (label, *inputs)))

    for n in STAR_LADDER:
        add(f"fixture star {n}", ["fixture", "star", str(n)], _check_star_fixture(n))
    for k in EMPTY_LADDER:
        add(f"fixture empty-corona {k + 1} {k}",
            ["fixture", "empty-corona", str(k + 1), str(k)], _check_empty_fixture(k))
    add("fixture theorem2", ["fixture", "theorem2"], _check_theorem2)

    for k in VERIFY_SIZES:
        g = oracle.corona(oracle.path(k + 1), oracle.empty(k))
        good = _empty_corona_colors(k)
        center = rng.randrange(k + 1)
        # Pendants of one center other than its (k+1)-colored one.
        a, b = rng.sample([t for t in range(1, k + 1) if t != center + 1], 2)
        base = k + 1 + center * k
        mono, collision = list(good), list(good)
        mono[base + a - 1] = center + 1  # the pendant takes its center's color
        collision[base + a - 1] = b      # twin pendants a and b share color b
        for label, colors, witness in [("locating", good, None),
                                       ("monochromatic", mono, "monochromatic-edge"),
                                       ("collision", collision, "code-collision")]:
            perm = _permutation(rng, g[0])
            pg, pcolors = oracle.relabel(g, perm), [0] * g[0]
            for v, c in enumerate(colors):
                pcolors[perm[v]] = c
            gtext, ctext = oracle.graph_text(pg), _coloring_text(pcolors)
            gpath = _write(workdir, f"verify-{k}-{label}.graph", gtext)
            cpath = _write(workdir, f"verify-{k}-{label}.json", ctext)
            add(f"verify P{k + 1}(.)E{k} {label}", ["verify", gpath, cpath],
                _check_verify(pg, pcolors, witness), gtext, ctext)

    for i, g in enumerate([oracle.path(80), oracle.cycle(61), oracle.star(120)]):
        h = _small_union(rng)
        pg = oracle.relabel(g, _permutation(rng, g[0]))
        gtext, htext = oracle.graph_text(pg), oracle.graph_text(h)
        gpath = _write(workdir, f"corona-{i}-g.graph", gtext)
        hpath = _write(workdir, f"corona-{i}-h.graph", htext)
        add(f"corona #{i}", ["corona", gpath, hpath], _check_corona(pg, h), gtext, htext)

    cases = [(n, _small_union(rng)) for n in BOUNDS_PATHS] + [(50, oracle.empty(3))]
    for n, h in cases:
        g = oracle.path(n)
        gtext, htext = oracle.graph_text(g), oracle.graph_text(h)
        gpath = _write(workdir, f"bounds-{n}-g.graph", gtext)
        hpath = _write(workdir, f"bounds-{n}-h.graph", htext)
        add(f"bounds P{n}", ["bounds", gpath, hpath], _check_bounds(lc, g, h), gtext, htext)

    rng.shuffle(entries)
    digest = hashlib.sha256()
    for _, inputs in entries:
        _feed(digest, *inputs)
    return Corpus([op for op, _ in entries], digest.hexdigest())


WORKLOADS = {
    w.name: w
    for w in [
        Workload("corona-exact", build_corona_exact, (
            "cli", "graphs.io", "graphs.apsp", "graphs.components",
            "locating.search", "locating.twins", "locating.lower_bound",
            "locating.chi_L",
        ), 4.3),
        Workload("many-small", build_many_small, (
            "graphs.apsp", "graphs.components", "graphs.corona", "graphs.subgraph",
            "locating.search", "locating.twins", "locating.lower_bound",
            "locating.verify", "locating.codes", "locating.chi_L", "locating.oracle",
            "constructions.bounds", "constructions.upper", "constructions.classifier",
        ), 3.75),
        Workload("certify-large", build_certify_large, (
            "cli", "graphs.io", "graphs.apsp", "graphs.components", "graphs.corona",
            "locating.search", "locating.verify", "locating.codes", "locating.chi_L",
            "constructions.bounds", "constructions.fixtures",
        ), 3.75),
    ]
}
