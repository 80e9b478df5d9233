"""Constructive colorings and bound formulas for corona products.

Every construction here is re-verified against the locating engine before
it is returned; an unverifiable construction raises, it is never silently
handed back.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .graphs import (
    CoronaMap,
    Graph,
    InputError,
    connected_components,
    corona,
    disjoint_union,
    generate,
    induced_subgraph,
    is_connected,
    join_with_k1,
    serialize_graph,
    subgraph_isomorphic,
    _tree_shape,
)
from .locating import (
    DEFAULT_BUDGET,
    Coloring,
    chi_L,
    color_codes,
    verify,
)


class ConstructionError(RuntimeError):
    """A construction failed verification; indicates a bug or bad data."""


@dataclass(frozen=True)
class BoundsReport:
    """Lower/upper bounds with machine-readable justification tags."""

    lower: int
    upper: int
    lower_tag: str
    upper_tag: str
    tags: dict
    indeterminate: bool = False

    def to_json_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "lower_tag": self.lower_tag,
            "upper_tag": self.upper_tag,
            "tags": dict(self.tags),
            "indeterminate": self.indeterminate,
        }


@dataclass(frozen=True)
class ConstructionResult:
    """A verified constructed coloring and the construction it came from."""

    source: str
    coloring: Coloring

    def to_json_dict(self) -> dict:
        return {"source": self.source, **self.coloring.to_json_dict()}


@dataclass(frozen=True)
class Theorem2Fixture:
    """The certified 5-coloring of P3 (.) (P2 u C4) with its code table."""

    graph: Graph
    corona_map: CoronaMap
    result: ConstructionResult
    labels: tuple
    codes: dict

    def to_json_dict(self) -> dict:
        return {
            "graph": serialize_graph(self.graph),
            "map": self.corona_map.to_json_dict(),
            "construction": self.result.to_json_dict(),
            "labels": list(self.labels),
            "codes": {label: list(code) for label, code in self.codes.items()},
        }


def _checked_result(source: str, g: Graph, coloring: Coloring) -> ConstructionResult:
    report = verify(g, coloring)
    if not report.locating:
        raise ConstructionError(
            f"{source} construction failed verification: {report.witness}"
        )
    return ConstructionResult(source, coloring)


@functools.lru_cache(maxsize=None)
def _component_joins(h: Graph) -> tuple:
    """K1 + H[C] for each component C of H, in canonical order.

    Cached on H, so :func:`corona_bounds`, :func:`optimal_upper_parts` and
    :func:`corona_upper_coloring` share one set of join graphs, and their
    adjacency, connectivity and hash are computed once; ``chi_L`` then
    finds each join by identity. The cache is unbounded, like ``chi_L``'s.
    On the sandwich chain every join is already a key of ``chi_L``'s
    cache, since the first two functions solve each one, so this cache
    keeps alive only H and the tuple.
    """
    return tuple(
        join_with_k1(induced_subgraph(h, c)) for c in connected_components(h)
    )


def corona_bounds(g: Graph, h: Graph, budget: int = DEFAULT_BUDGET) -> BoundsReport:
    """Sandwich bounds for the corona product.

    Lower: the largest locating-chromatic number among the joins of H's
    components with one apex vertex. Upper: that of G plus the sum of
    (each join value minus one). Both sides use the exact solver. H must
    have at least one vertex.

    A G of order 1 has no value of its own, but K1 (.) H is the join
    K1 + H, so both ends are that join's value (or its interval when the
    budget runs out), tagged ``k1-join-*``. The join-max lower bound alone
    is not tight there for a disconnected H: K1 (.) E2 = P3 has value 3.
    """
    if h.n == 0:
        raise InputError("corona bounds require H with at least one vertex")
    if g.n == 1:
        k1 = chi_L(join_with_k1(h), budget)
        tags = {"k1-join-lower": k1.lower, "k1-join-upper": k1.upper}
        return BoundsReport(
            k1.lower, k1.upper, "k1-join-lower", "k1-join-upper", tags,
            k1.value is None,
        )
    joins = [chi_L(q, budget) for q in _component_joins(h)]
    g_val = chi_L(g, budget)

    lower = max(r.lower for r in joins)
    upper = g_val.upper + sum(r.upper - 1 for r in joins)
    indeterminate = any(r.value is None for r in (g_val, *joins))
    tags = {"join-component-max": lower, "construction-lemma4": upper}
    return BoundsReport(
        lower, upper, "join-component-max", "construction-lemma4", tags,
        indeterminate,
    )


def corona_upper_coloring(
    g: Graph, h: Graph, f: Coloring, c_list: list
) -> ConstructionResult:
    """Assemble the block-offset coloring of G (.) H from given parts.

    ``f`` must be a verified locating coloring of G; ``c_list[t-1]`` a
    verified locating coloring of the t-th component of H joined with one
    apex, in which the apex (the highest-indexed vertex) receives the
    highest color. Component t is recolored by a fixed offset so the
    blocks use disjoint color ranges above f's, and every copy of H is
    colored alike: the centers take f, then each copy takes the one list,
    in the vertex layout of :func:`corona`.
    """
    if not verify(g, f).locating:
        raise InputError("f is not a locating coloring of G")
    parts = _component_joins(h)
    if len(c_list) != len(parts):
        raise InputError(
            f"expected {len(parts)} component colorings, got {len(c_list)}"
        )
    copy, offset = [], f.k
    for t, (joined, c_t) in enumerate(zip(parts, c_list), start=1):
        if not verify(joined, c_t).locating:
            raise InputError(f"component coloring {t} is not locating")
        apex = joined.n - 1
        if c_t.colors[apex] != c_t.k:
            raise InputError(
                f"component coloring {t} must give the apex the highest "
                f"color {c_t.k}, got {c_t.colors[apex]}"
            )
        copy += [c + offset for c in c_t.colors[:apex]]
        offset += c_t.k - 1

    product, _ = corona(g, h)
    coloring = Coloring(offset, (*f.colors, *copy * g.n))
    return _checked_result("corona-upper", product, coloring)


def optimal_upper_parts(g: Graph, h: Graph, budget: int = DEFAULT_BUDGET) -> tuple:
    """Solver-optimal inputs for :func:`corona_upper_coloring`.

    Returns a locating coloring of G and one of each component-join of H,
    each with the apex permuted to the highest color. Color permutation
    renames the classes and permutes every code coordinate-wise, so the
    locating property is preserved.
    """
    f = chi_L(g, budget)
    if f.value is None:
        raise ConstructionError("budget exhausted while coloring G")
    c_list = []
    for joined in _component_joins(h):
        result = chi_L(joined, budget)
        if result.value is None:
            raise ConstructionError("budget exhausted on a component join")
        cert = result.certificate
        apex_color = cert.colors[joined.n - 1]
        swap = {apex_color: cert.k, cert.k: apex_color}
        c_list.append(
            Coloring(cert.k, tuple(swap.get(c, c) for c in cert.colors))
        )
    return f.certificate, c_list


#: The paper's 5-coloring of P3 (.) (P2 u C4), in the corona layout.
_THEOREM2_COLORS = (5, 1, 3, 2, 4, 1, 2, 3, 4, 2, 4, 3, 2, 4, 5, 2, 4, 1, 4, 2, 5)


def fixture_theorem2() -> Theorem2Fixture:
    """Build and certify the 5-colored P3 (.) (P2 u C4) reference instance;
    its code table is that of the verified coloring, by vertex label."""
    # H = P2 on {a=0, b=1} union C4 on {p=2, q=3, r=4, s=5}.
    h = disjoint_union(generate("path", 2), generate("cycle", 4))
    product, cmap = corona(generate("path", 3), h)
    coloring = Coloring(5, _THEOREM2_COLORS)
    result = _checked_result("theorem2", product, coloring)
    labels = (*(f"({u})" for u in "uvw"),
              *(f"({u},{x})" for u in "uvw" for x in "abpqrs"))
    codes = dict(zip(labels, color_codes(product, coloring)))
    return Theorem2Fixture(product, cmap, result, labels, codes)


def empty_corona_coloring(g: Graph, k: int) -> ConstructionResult:
    """(k+1)-coloring of G (.) the edgeless graph on k vertices.

    Requires k >= 2 and 2 <= |V(G)| <= k+1. Center i gets color i; the
    j-th pendant of center i gets color j, except j = i which gets k+1.
    Together with the endpoint lower bound this certifies the value k+1.
    """
    if k < 2:
        # k = 1 genuinely fails: two pendants on an edge form a path on 4
        # vertices, whose value is 3, not k+1 = 2.
        raise InputError("construction requires k >= 2")
    if g.n < 2:
        raise InputError("construction requires |V(G)| >= 2")
    if g.n > k + 1:
        raise InputError(
            f"construction requires |V(G)| <= k+1, got n={g.n}, k={k}"
        )
    product, _ = corona(g, generate("empty", k))
    centers = range(1, g.n + 1)
    copies = [k + 1 if j == i else j for i in centers for j in range(1, k + 1)]
    coloring = Coloring(k + 1, (*centers, *copies))
    return _checked_result("empty-corona", product, coloring)


def star_corona_coloring(n: int) -> ConstructionResult:
    """Optimal coloring of the order-n star with one pendant per vertex.

    Uses l = ceil(sqrt(n)) + 1 colors. Leaves are colored in blocks of
    l-1; pendants below a block count down through the palette, skipping
    the block color.
    """
    if type(n) is not int or n < 4:
        raise InputError(f"star construction requires an integer n >= 4, got {n!r}")
    l = math.isqrt(n - 1) + 2  # ceil(sqrt(n)) + 1
    star = generate("star", n)
    product, _ = corona(star, generate("empty", 1))
    colors = [0] * product.n      # the pendant of vertex i is n + i
    colors[0] = 1                 # star center x
    colors[n] = l                 # its pendant y
    for i in range(1, n):
        t = (i + l - 2) // (l - 1)          # block index, 1-based
        j = i - (t - 1) * (l - 1)           # position within the block
        colors[i] = t + 1
        colors[n + i] = l - j + 1 if l - j > t else l - j
    coloring = Coloring(l, tuple(colors))
    return _checked_result("star-corona", product, coloring)


def tree_empty_corona_bounds(
    t: Graph, m: int, budget: int = DEFAULT_BUDGET
) -> BoundsReport:
    """Bounds m+1 <= value <= chi_L(T) + m for a tree with edgeless copies."""
    if type(m) is not int or m < 1:
        raise InputError(f"m must be >= 1 and an int, not a bool, got {m!r}")
    _require_tree(t)
    result = chi_L(t, budget)
    lower = m + 1
    upper = result.upper + m
    tags = {"m-plus-1": lower, "chiL-plus-m": upper}
    return BoundsReport(
        lower, upper, "m-plus-1", "chiL-plus-m", tags, result.value is None
    )


def best_corona_bounds(
    g: Graph, h: Graph, budget: int = DEFAULT_BUDGET
) -> BoundsReport:
    """:func:`corona_bounds`, tightened by :func:`tree_empty_corona_bounds`
    when G is a tree and H is edgeless.

    Each end keeps the tag of the rule that supplied it; on a tie the
    sandwich rule's tag wins. ``tags`` holds every rule's value.
    """
    report = corona_bounds(g, h, budget)
    if g.n == 1 or h.num_edges or g.num_edges != g.n - 1:
        return report
    tree = tree_empty_corona_bounds(g, h.n, budget)
    return BoundsReport(
        max(report.lower, tree.lower),
        min(report.upper, tree.upper),
        report.lower_tag if report.lower >= tree.lower else tree.lower_tag,
        report.upper_tag if report.upper <= tree.upper else tree.upper_tag,
        {**report.tags, **tree.tags},
        report.indeterminate or tree.indeterminate,
    )


#: The fixed graphs of :func:`pendant_tree_classifier`: the host P6 and
#: the copy K1 of the one-pendant extension.
_P6 = generate("path", 6)
_K1 = generate("empty", 1)


def _require_tree(t: Graph):
    if not isinstance(t, Graph):
        raise InputError(f"T must be a Graph, got {type(t).__name__}")
    if t.n < 2 or not is_connected(t) or t.num_edges != t.n - 1:
        raise InputError("expected a tree with at least 2 vertices")


#: Verdicts of :func:`pendant_tree_classifier` by (tree shape, g3); a
#: failed classification is never stored. Unbounded, like ``chi_L``'s cache.
_VERDICTS: dict = {}


def pendant_tree_classifier(t: Graph, g3: Graph) -> int:
    """Value of chi_L for a one-pendant-per-vertex extension of a tree.

    For trees with locating-chromatic number 3, the extension has value 3
    exactly when the tree embeds into P6 or into the externally supplied
    graph g3, and 4 otherwise. When the extension is small enough the
    classification is cross-checked against the exact solver; a
    disagreement (typically a wrong g3 file) raises.

    Both depend on T only up to isomorphism, so they run once per tree
    shape and g3 in a process; T's own value is checked on every call.
    """
    if not isinstance(g3, Graph):
        raise InputError(f"g3 must be a Graph, got {type(g3).__name__}")
    _require_tree(t)
    base = chi_L(t, DEFAULT_BUDGET)
    if base.value != 3:
        raise InputError(
            f"classifier requires a tree with value 3, solver found {base.value}"
        )
    key = (_tree_shape(t), g3)
    if key in _VERDICTS:
        return _VERDICTS[key]
    value = 3 if subgraph_isomorphic(t, _P6) or subgraph_isomorphic(t, g3) else 4
    if 2 * t.n <= 14:
        product, _ = corona(t, _K1)
        exact = chi_L(product, DEFAULT_BUDGET)
        if exact.value is not None and exact.value != value:
            raise ConstructionError(
                f"classifier says {value} but the solver found {exact.value}; "
                "check the supplied g3 graph"
            )
    _VERDICTS[key] = value
    return value
