"""Locating colorings: color codes, verification, lower bounds, and an
exact solver for the locating-chromatic number with a brute-force oracle.

A k-coloring is *proper* when no edge is monochromatic and *locating* when
additionally every vertex has a distinct color code, the vector of hop
distances to the k color classes. The locating-chromatic number is the
least k admitting a locating k-coloring.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from dataclasses import dataclass

from .graphs import (
    Graph,
    InputError,
    SizeLimitError,
    _peel,
    all_pairs_distances,
    bfs_levels,
    is_connected,
)

#: Default search budget, counted in search-tree nodes.
DEFAULT_BUDGET = 10**8

#: Hard cap for the brute-force oracle.
BRUTE_FORCE_LIMIT = 8

#: Largest order for which :func:`find_locating_coloring` builds its O(n^2) tables.
MAX_SEARCH_ORDER = 2_000

FOUND = "found"
INFEASIBLE = "infeasible"
BUDGET_EXHAUSTED = "budget-exhausted"


class DisconnectedGraphError(ValueError):
    """Locating operations are only defined on connected graphs."""


@dataclass(frozen=True)
class Coloring:
    """A surjective vertex coloring with colors 1..k."""

    k: int
    colors: tuple

    def __post_init__(self):
        k, colors = self.k, self.colors
        if type(colors) is not tuple:
            raise InputError("colors must be a tuple")
        if type(k) is not int or not set(map(type, colors)) <= {int}:
            raise InputError("k and every color must be integers")
        if k < 1:
            raise InputError(f"color count must be positive, got {k}")
        if colors and (min(colors) < 1 or max(colors) > k):
            raise InputError(f"colors must lie in 1..{k}")
        if len(set(colors)) != k:
            raise InputError("coloring must use every color in 1..k")

    def to_json_dict(self) -> dict:
        return {"k": self.k, "colors": list(self.colors)}

    @classmethod
    def from_json_dict(cls, data) -> "Coloring":
        """Read ``{"k": <int>, "colors": [<int>, ...]}``.

        Anything else raises :class:`InputError`; floats, strings and
        booleans are rejected, never coerced to an integer.
        """
        if not isinstance(data, dict) or not isinstance(data.get("colors"), list):
            raise InputError('expected {"k": <int>, "colors": [<int>, ...]}')
        return cls(data.get("k"), tuple(data["colors"]))


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a locating-coloring check with a re-checkable witness."""

    proper: bool
    locating: bool
    witness: dict | None

    def to_json_dict(self) -> dict:
        return {
            "verdict": {"proper": self.proper, "locating": self.locating},
            "witness": self.witness,
        }


@dataclass(frozen=True)
class SearchResult:
    status: str
    coloring: Coloring | None
    nodes: int


@dataclass(frozen=True)
class ChiLResult:
    """Certified lower <= chi_L <= upper; when they meet, with a certificate."""

    lower: int
    upper: int
    certificate: Coloring | None = None

    @property
    def value(self) -> int | None:
        return self.lower if self.lower == self.upper else None

    def to_json_dict(self) -> dict:
        if self.value is not None:
            return {
                "value": self.value,
                "certificate": self.certificate.to_json_dict(),
            }
        return {"value": None, "interval": [self.lower, self.upper]}


def _check_budget(budget):
    if type(budget) is not int or budget < 1:
        raise InputError(f"budget must be a positive integer, got {budget!r}")


def _require_connected(g: Graph):
    if not isinstance(g, Graph):
        raise InputError(f"expected a Graph, got {type(g).__name__}")
    if not is_connected(g):
        raise DisconnectedGraphError(
            "color codes are undefined on a disconnected graph"
        )


def _check_coloring_size(g: Graph, c: Coloring):
    if len(c.colors) != g.n:
        raise InputError(
            f"coloring has {len(c.colors)} entries for a graph of order {g.n}"
        )


def color_codes(g: Graph, c: Coloring, vertices=None) -> list:
    """Per-vertex distance vectors to the k color classes: every vertex's,
    or with ``vertices`` (any iterable of vertices, read once) theirs
    alone, in its order.

    d(v, C) is v's level in one BFS started from every member of C at
    once. A leaf p is *grouped* when its neighbour u has another leaf.
    Every path from p leaves through u, so d(p, C) = 1 + d(u, C) for each
    class C without p: p's code is u's plus one, with 0 at p's own color.
    So the BFS walks the graph with grouped leaves cut from u's list (a
    grouped leaf in C is still a source), and each grouped leaf copies
    u's shifted row. That is O(k(n' + m') + nk) time and O(kn) memory,
    n' and m' the order and size without grouped leaves, with no
    all-pairs distance matrix; t rows of ``vertices`` cost
    O(k(n' + m') + n + tk). A listed vertex that is not an ``int``
    (``bool`` included) or lies outside 0..n-1 raises :class:`InputError`.
    """
    _require_connected(g)
    _check_coloring_size(g, c)
    full, colors = g.adjacency, c.colors
    if vertices is not None:
        vertices = list(vertices)
    if vertices and not (set(map(type, vertices)) <= {int}
                         and 0 <= min(vertices) and max(vertices) < g.n):
        raise InputError(f"vertices must lie in [0, {g.n}), got {vertices!r}")
    classes = [[] for _ in range(c.k)]
    ends = []  # the neighbour of each leaf
    for v, nbrs in enumerate(full):
        classes[colors[v] - 1].append(v)
        if len(nbrs) == 1:
            ends.append(nbrs[0])
    hubs, adj = (), full  # hubs: the neighbours with two leaves or more
    if len(set(ends)) < len(ends):
        ends.sort()
        hubs = {u for u, w in zip(ends, ends[1:]) if u == w}
        adj = list(full)
        for u in hubs:
            adj[u] = [w for w in full[u] if len(full[w]) > 1]
    # Each table is freed as soon as the next is built: the transpose holds
    # the columns and the codes at once, the call's memory peak.
    columns = bfs_levels(adj, classes)
    del classes, ends
    rows = {u: [col[u] + 1 for col in columns] for u in hubs}
    if vertices is None:
        vertices = range(g.n)
    else:
        columns = [list(map(col.__getitem__, vertices)) for col in columns]
    codes = list(zip(*columns))
    del columns
    if hubs:
        for i, p in enumerate(vertices):
            nbrs = full[p]
            if len(nbrs) == 1 and nbrs[0] in rows:
                row = list(rows[nbrs[0]])
                row[colors[p] - 1] = 0
                codes[i] = tuple(row)
    return codes


def verify(g: Graph, c: Coloring) -> VerificationReport:
    """Check properness and code distinctness; failures carry a witness.

    One pass builds every vertex's set of neighbour colors. The coloring
    is proper when no vertex's set holds its own color; otherwise a pass
    over the edges finds the least monochromatic one (u, v), u < v. Under
    a proper coloring, v's code has its only 0 at v's color and its 1s
    exactly at the colors of v's neighbours, so vertices whose keys
    (color, set of neighbour colors) differ have distinct codes. When all
    n keys differ, the coloring is locating at O(n + m) cost. Otherwise
    only the t vertices with a shared key can share a code:
    :func:`color_codes` builds their rows, O(k(n' + m') + n + tk), and
    the first repeat among them in vertex order is the first in g.
    """
    _require_connected(g)
    _check_coloring_size(g, c)
    colors = c.colors
    around = list(map(frozenset, map(map, itertools.repeat(colors.__getitem__),
                                     g.adjacency)))
    if any(map(operator.contains, around, colors)):
        u, v = min(e for e in g.edges if colors[e[0]] == colors[e[1]])
        witness = {"type": "monochromatic-edge", "u": u, "v": v, "color": colors[u]}
        return VerificationReport(False, False, witness)
    if len(set(zip(colors, around))) == g.n:
        return VerificationReport(True, True, None)
    keys = collections.Counter(zip(colors, around))
    tied = list(itertools.compress(
        range(g.n), map((1).__lt__, map(keys.__getitem__, zip(colors, around)))
    ))
    seen = {}
    for v, code in zip(tied, color_codes(g, c, tied)):
        if code in seen:
            witness = {
                "type": "code-collision",
                "u": seen[code],
                "v": v,
                "code": list(code),
            }
            return VerificationReport(True, False, witness)
        seen[code] = v
    return VerificationReport(True, True, None)


def twin_classes(g: Graph) -> list:
    """Maximal classes of vertices with identical distances to the rest.

    u and v are twins when d(u, w) = d(v, w) for every w outside {u, v};
    any locating coloring must give a class's members pairwise distinct
    colors. In a connected graph that holds exactly when
    N(u) - {v} = N(v) - {u}: adjacent twins share the closed
    neighbourhood N[v], non-adjacent twins the open one N(v), and no
    vertex has twins of both kinds. So the classes come from grouping
    vertices by those two keys, in O(n + m) time without distances.
    """
    _require_connected(g)
    by_open, by_closed = {}, {}
    for v, nbrs in enumerate(g.adjacency):
        by_open.setdefault(nbrs, []).append(v)
        by_closed.setdefault(frozenset(nbrs).union((v,)), []).append(v)
    classes = [
        tuple(grp) for grp in (*by_open.values(), *by_closed.values())
        if len(grp) > 1
    ]
    grouped = {v for cls in classes for v in cls}
    classes += [(v,) for v in range(g.n) if v not in grouped]
    return sorted(classes)


def locating_lower_bound(g: Graph) -> tuple:
    """The tagged static bound :attr:`_SearchTables.lower` of g."""
    _require_connected(g)
    if g.n < 2:
        raise InputError("lower bound requires order >= 2")
    return _search_tables(g).lower


def _settled_pairs(order: list, rows: list) -> list:
    """Per depth t, the pairs of earlier vertices that settle at t.

    Vertices u and v at depths a < b settle at the first depth t > b from
    which every later vertex is equidistant from both: from then on each
    assignment lowers their two ``near`` columns alike, so columns equal at
    depth t stay equal to the leaf. Pairs that settle only at the leaf are
    left to the leaf check and not listed, so a pair is a candidate only
    when the last vertex is equidistant from both.
    """
    n = len(order)
    settled = [[] for _ in order]
    last_row = rows[-1]
    earlier = {}  # distance to the last vertex -> depths seen so far
    for b in range(n - 1):
        vb, rb = order[b], rows[b]
        group = earlier.setdefault(last_row[vb], [])
        for a in group:
            ra, j = rows[a], n - 2
            while j > b and ra[order[j]] == rb[order[j]]:
                j -= 1
            settled[j + 1].append((order[a], vb))
        group.append(b)
    return settled


def _frozen_candidates(order: list, rows: list) -> list:
    """Per depth t, the earlier vertices u whose code may be final at t,
    as (u, r): r is u's distance to the nearest vertex colored at t or
    later.

    A later vertex of color c lowers u's distance to class c only from
    above r, so once all k are at most r, u's code is final. r only
    grows with t; u is listed at the depth after its own and at the
    first two where r grows, at most 3 times. r = 1 is left out: that is
    the full vertex the search counts. A graph on n < 7 vertices gets
    none: on every labelled connected graph of order <= 6, at every k,
    the cut removes no node. One scan of u's row in reverse search order
    finds each round's r, O(n) per vertex in C.
    """
    n = len(order)
    candidates = [[] for _ in order]
    if n < 7:
        return candidates
    backwards = operator.itemgetter(*reversed(order))
    for top, u, back in zip(range(n - 1, 0, -1), order, map(backwards, rows)):
        # back[:top]: u's distances to depths n - top, ..., n - 1
        for _ in range(3):
            r = min(back[:top])
            if r > 1:
                candidates[n - top].append((u, r))
            top = back.index(r, 0, top)  # r grows at depth n - top
            if not top:
                break
    return candidates


def _search_order(g: Graph, groups: dict) -> list:
    """The vertices by descending degree, ties by index, except that in
    each group of two or more pendant pairs (l, p) of
    :func:`_pendant_groups`, p comes right after its l.

    Once two pairs of a group are colored, their l settle
    (:func:`_settled_pairs`), so two pairs with one (color of l, color
    of p) are cut there: the pendant-pair pigeonhole behind the paper's
    star bound, seen at the earliest depth where it can bite (fail
    first: Haralick & Elliott, 1980). In degree order every p comes last,
    and the cut waited for the last depths. A pair alone in its group is
    never cut this way, so its p keeps its place.
    """
    after = {l: p for group in groups.values() if len(group) > 1 for l, p in group}
    moved = set(after.values())
    order = []
    for v in sorted(range(g.n), key=lambda v: (-g.degree(v), v)):
        if v not in moved:
            order.append(v)
            if v in after:
                order.append(after[v])
    return order


def _branch_swaps(g: Graph, pos: dict) -> list:
    """Automorphisms that swap two isomorphic pendant trees, as vertex pairs.

    :func:`graphs._peel` hangs each peeled vertex off its parent, ranked
    by its pendant tree's canonical form. Two children of one vertex with
    the same rank, consecutive in search position ``pos``, root subtrees
    that an automorphism swaps: it maps children to children in (rank,
    position) order and fixes the rest. Each swap is listed as its pairs
    (u, image of u), u in the earlier subtree. Leaves of one parent are
    twins, which the twin order already breaks, so their swaps are left
    out. A vertex lies in at most two swaps per ancestor that holds a
    second copy of its branch, and the subtree at least doubles from one
    such ancestor to the next, so there are O(n log n) swap pairs in all.
    No recursion.
    """
    _, rank, parent = _peel(g.adjacency)
    hung = sorted((v for v, p in enumerate(parent) if p >= 0),
                  key=lambda v: (parent[v], rank[v], pos[v]))
    children = [[] for _ in parent]
    for v in hung:
        children[parent[v]].append(v)
    swaps = []
    for a, b in zip(hung, hung[1:]):
        if parent[a] == parent[b] and rank[a] == rank[b] != 0:
            pairs, todo = [], [(a, b)]
            while todo:
                u, v = todo.pop()
                pairs.append((u, v))
                todo.extend(zip(children[u], children[v]))
            swaps.append(pairs)
    return swaps


def _leaf_blocks(g: Graph) -> list:
    """The blocks with exactly one cut vertex c and 5 vertices, as (c, the
    others ascending). In a smaller block an involution fixing c is one
    transposition, and an automorphism that swaps only x and y makes
    them twins, which the twin floors already order. Taking in blocks of
    6 to 8 vertices as well moved no node count of the paper's coronas.

    One iterative Hopcroft-Tarjan pass (1973), O(n + m). A block pops at
    its top vertex u once its subtree is done, after the blocks below it,
    so its other cut vertices are known then; u is a cut vertex unless it
    is the root and pops one block only. A graph on n < 6 vertices has
    no such block, nor has a tree, whose blocks are its edges.
    """
    n, adj = g.n, g.adjacency
    if n < 6 or g.num_edges < n:
        return []
    disc, low, cut = [1] + [0] * (n - 1), [1] * n, [False] * n
    path, its, stack, leaves, at_root = [0], [], [], [], []
    v, it, t = 0, iter(adj[0]), 1
    while True:
        for w in it:
            if not disc[w]:
                t += 1
                disc[w] = low[w] = t
                path.append(w)
                its.append(it)
                stack.append(w)
                v, it = w, iter(adj[w])
                break
            if disc[w] < low[v]:
                low[v] = disc[w]
        else:
            path.pop()
            if not path:
                break
            it, u = its.pop(), path[-1]
            if low[v] < disc[u]:
                if low[v] < low[u]:
                    low[u] = low[v]
                v = u
                continue
            i = len(stack) - 1
            while stack[i] != v:
                i -= 1
            rest = stack[i:]  # the block is u and rest
            del stack[i:]
            inner = [x for x in rest if cut[x]]
            if u:
                cut[u] = True
                if not inner and len(rest) == 4:
                    leaves.append((u, sorted(rest)))
            else:
                at_root.append((inner, rest))
            v = u
    if len(at_root) > 1:
        leaves += [(0, sorted(rest)) for inner, rest in at_root
                   if not inner and len(rest) == 4]
    else:
        [(inner, rest)] = at_root
        if len(inner) == 1 and len(rest) == 4:
            c = inner[0]
            leaves.append((c, sorted(x if x != c else 0 for x in rest)))
    return leaves


@functools.cache
def _block_involutions(masks: tuple) -> tuple:
    """The involutions of a graph on 0..4, given by neighbor bitmasks,
    that fix 0, keep each twin pair x < y in order and are not the
    identity; each as its pairs (x, image of x), x < image.

    The candidates are the 9 involutions of 1..4 bar the identity, each
    kept if it maps edges to edges. Any other involution fixing 0 is one
    of these times twin transpositions. Cached: there are at most 2^10
    shapes, and a corona repeats one per center.
    """
    twins = [(x, y) for x, y in itertools.combinations(range(1, 5), 2)
             if masks[x] & ~(1 << y) == masks[y] & ~(1 << x)]
    found = []
    for images in itertools.permutations(range(1, 5)):
        sigma = (0, *images)
        if (all(sigma[y] == x for x, y in enumerate(sigma))
                and sigma != (0, 1, 2, 3, 4)
                and all(sigma[x] < sigma[y] for x, y in twins)
                and all(masks[sigma[x]] >> sigma[z] & 1 == masks[x] >> z & 1
                        for x in range(5) for z in range(x))):
            found.append(tuple((x, y) for x, y in enumerate(sigma) if x < y))
    return tuple(found)


def _leaf_block_involutions(g: Graph) -> list:
    """Automorphisms of g that are involutions of one leaf block of
    :func:`_leaf_blocks` fixing its cut vertex c, as in
    :func:`_branch_swaps`.

    No vertex of the block but c has a neighbor outside it, so an
    automorphism of the block that fixes c extends to g by the identity.
    Twins of g in the block are twins in the block. The block's masks
    are laid out as (c, the others ascending).
    """
    adj, swaps = g.adjacency, []
    for c, rest in _leaf_blocks(g):
        if len({(len(adj[v]), c in adj[v]) for v in rest}) == len(rest):
            continue  # no two vertices that an involution fixing c could swap
        local = [c, *rest]
        bit = {v: 1 << i for i, v in enumerate(local)}
        masks = [0]
        for v in rest:
            masks.append(sum(map(bit.__getitem__, adj[v])))
            masks[0] |= (masks[-1] & 1) * bit[v]
        swaps += [[(local[x], local[y]) for x, y in pairs]
                  for pairs in _block_involutions(tuple(masks))]
    return swaps


def _color_floors(g: Graph, order: list, pos: dict, twins: list) -> tuple:
    """Per depth, the floors under its first color, and their flag count.

    A floor ``(x, strict, slot, link, px, py)`` at the depth of y raises
    y's first color to ``assignment[x] + strict`` while ``flags[link]`` is
    set and px, py have one color; it stores that condition in
    ``flags[slot]``. The search keeps one flag per slot, all set at first.
    Vertex n always has color 0, so ``(x, s, 0, 0, n, n)`` holds
    unconditionally and only ever writes ``True`` to ``flags[0]``.

    Each floor is one step of the lex-leader order c <=_lex c o s in
    search order, for an automorphism s:

    - A twin takes a color above its latest earlier twin's (strict, as
      twins differ): s swaps the two.
    - For an involution of :func:`_branch_swaps` or
      :func:`_leaf_block_involutions`, take its pairs {x, y}, x before y,
      in the order of x. While every earlier pair has equal colors, y's
      color is at least x's. A pair's flag says that the pairs before it
      are equal, so each step checks one pair. The steps stop at the first
      pair decided before the one preceding it, where that flag would not
      yet be known.
    """
    n = len(order)
    floors, slots = [[] for _ in order], 1
    for cls in twins:
        if len(cls) < 2:
            continue
        members = sorted(cls, key=pos.__getitem__)
        for x, y in zip(members, members[1:]):
            floors[pos[y]].append((x, 1, 0, 0, n, n))
    for swap in (*_branch_swaps(g, pos), *_leaf_block_involutions(g)):
        ends = sorted(sorted((pos[u], pos[v])) for u, v in swap)
        link, px, py, last = 0, n, n, -1
        for a, b in ends:
            if b < last:
                break
            x, y = order[a], order[b]
            floors[b].append((x, 0, slots, link, px, py))
            link, px, py, last, slots = slots, x, y, b, slots + 1
    return floors, slots


def _clique_sizes(g: Graph, twins: list) -> list:
    """Per vertex v, the size q(v) of a clique of G+ inside N[v], where
    G+ is G plus an edge between any two twins.

    The clique grows greedily from v over N(v) in its fixed order,
    keeping the candidates adjacent in G+ to all of it. Adding a twin of
    a member leaves those candidates, bar itself, as they were, since
    N+(w) + w is one set for the whole twin class. So each class is
    intersected once, as one set shared by its members, and a star's
    center costs O(n), not O(n^2). Memory is one set per vertex, N(v),
    and one per twin class: O(n + m). Two more cliques raise q (see
    :attr:`_SearchTables.lower`): 1 + |C| for a twin class C inside N(v),
    and |K| for the greedy clique K of another vertex when v is in K and
    G-adjacent to the rest of K. They are applied only where they reach
    the largest q, the one value that the full-vertex step reads.
    """
    adj = g.adjacency
    nbrs = [set(a) for a in adj]
    label, shared = [0] * len(adj), [None]  # label 0: no twin
    for cls in twins:
        if len(cls) > 1:
            for v in cls:
                label[v] = len(shared)
            shared.append(frozenset(cls))
    q, tops, top = [], [], 0  # tops: the greedy cliques of the largest size
    for v, around in enumerate(adj):
        cand, members, seen = nbrs[v], [v], {label[v]}
        for w in around:  # each w once, so w may stay in cand
            if w not in cand:
                continue
            members.append(w)
            t = label[w]
            if not t:
                cand = cand & nbrs[w]
            elif t not in seen:
                seen.add(t)
                cand = (cand & nbrs[w]) | (cand & shared[t])
        q.append(len(members))
        if q[v] >= top:
            if q[v] > top:
                top, tops = q[v], []
            tops.append(members)
    for cls in shared[1:]:
        if len(cls) + 1 >= top:
            for w in adj[next(iter(cls))]:  # every w outside C here sees all of C
                if w not in cls and q[w] <= len(cls):
                    q[w] = len(cls) + 1
    if max(q) == top > 2:
        for members in tops:
            for x in members:
                if q[x] < top <= len(adj[x]) + 1 and len(nbrs[x].intersection(members)) == top - 1:
                    q[x] = top
    return q


def _pendant_groups(g: Graph) -> dict:
    """Pendant pairs (l, p), keyed by N(l) - p as an ascending tuple.

    p is a leaf and l, of degree >= 2, has no other leaf neighbor.
    O(n + m).
    """
    adj = g.adjacency
    leaves = {}  # a vertex -> its leaf neighbors
    for p, around in enumerate(adj):
        if len(around) == 1:
            leaves.setdefault(around[0], []).append(p)
    groups = {}
    for v, ps in leaves.items():
        if len(ps) == 1 and len(adj[v]) > 1:
            key = tuple(w for w in adj[v] if w != ps[0])
            groups.setdefault(key, []).append((v, ps[0]))
    return groups


class _SearchTables:
    """The part of a search that does not depend on k, for one graph.

    ``twins`` is built at once, in O(n + m). The rest is built on first
    use: ``pendant_groups``, ``order`` and ``lower`` in O(n + m) memory,
    and ``tables``, the O(n^2) part.
    Per depth, ``tables`` has the distance row, N[v] with v first, the
    color floors, the pairs that settle there and the vertices whose code
    may be final there; and it has the number of flag slots that the
    floors use.
    """

    def __init__(self, g: Graph):
        self.g = g
        self.twins = twin_classes(g)

    @functools.cached_property
    def pendant_groups(self) -> dict:
        return _pendant_groups(self.g)

    @functools.cached_property
    def order(self) -> list:
        return _search_order(self.g, self.pendant_groups)

    @functools.cached_property
    def lower(self) -> tuple:
        """``(k, tag)``: the least k that no static rule refutes, and the
        first rule, in the order below, that refutes k - 1.

        Each rule refutes every k below its own threshold, so the rules
        together refute exactly the k below the largest threshold:

        - *clique*, the largest q(v) of :func:`_clique_sizes`: a clique
          of G+ needs distinct colors, as its G-edges are proper and its
          twins differ. q(v) is the size of a clique of G+ inside N[v]:
          the greedy one grown from v; the greedy clique K of another
          vertex, when v is in K and G-adjacent to the rest of K; or
          C + v for a twin class C inside N(v), since the twins of C are
          pairwise adjacent in G+. For a twin class C with |C| < n, some
          w outside C is adjacent to one member of C, as G is connected,
          and so to all of C, as twins share N(v) or N[v]; C + w gives
          q(w) > |C| wherever that reaches the largest q. If C = V, G is
          K_n and q = n. So the threshold is at least min(n, 2), and one
          color, which gives every vertex the code (0), is refuted
          whenever n >= 2.
        - *pendant-pair*, ceil(sqrt(P)) + 1 for the largest P, over the
          groups of :func:`_pendant_groups`, of the group's pairs (l, p)
          plus the vertices w with N(w) = S, where S = N(l) - p. The l of
          one group are equidistant from everything outside their pairs,
          since every path from l leaves through S; so the pairs need
          distinct (color of l, color of p). l avoids the colors of S and
          p avoids l's, so k colors give at most (k - 1)^2 such color
          pairs. Each w takes one more: w and l are equidistant from
          everything outside l, p and w, and w's color b is not in S, so
          an l of color b whose p has a color of S has w's code. The w
          are twins, so their b differ. P > (k - 1)^2 refutes k.
        - *full-vertex*, stepped up from there while more than k vertices
          have q(v) >= k. Such a v sees all k colors in N[v], so its code
          is 0 at its own color and 1 elsewhere, and two of them of one
          color collide. The count only grows as k falls, so the rule
          refutes every smaller k too. Every vertex of a connected graph
          on n >= 2 vertices has q(v) >= 2, so when n >= 3 the step
          refutes k = 2: a connected proper 2-coloring has only the codes
          (0, 1) and (1, 0) (Chartrand, Erwin, Henning, Slater & Zhang,
          2002).

        O(n + m) memory; the steps start at the largest threshold, not 1.
        """
        g, n, adj = self.g, self.g.n, self.g.adjacency
        q = sorted(_clique_sizes(g, self.twins), reverse=True)
        # N(l) - p -> the pairs (l, p) and the w with N(w) = N(l) - p
        count = {key: len(group) for key, group in self.pendant_groups.items()}
        if count:
            degrees = set(map(len, count))
            for around in adj:
                if len(around) in degrees and around in count:
                    count[around] += 1
        pendants = max(count.values(), default=0)
        k, tag = max(  # the first of the largest
            (q[0], "clique"),
            (math.isqrt(pendants - 1) + 2 if pendants else 0, "pendant-pair"),
            key=lambda rule: rule[0],
        )
        while k < n and q[k] >= k:  # q[k] >= k: more than k have q >= k
            k, tag = k + 1, "full-vertex"
        return k, tag

    @functools.cached_property
    def tables(self) -> tuple:
        g = self.g
        dist = all_pairs_distances(g)
        order = self.order
        pos = {v: i for i, v in enumerate(order)}
        rows = [dist[v] for v in order]
        closed = [[v, *g.adjacency[v]] for v in order]
        floors, slots = _color_floors(g, order, pos, self.twins)
        return (order, rows, closed, floors, slots, _settled_pairs(order, rows),
                _frozen_candidates(order, rows))


# One slot: chi_L searches one graph at k = LB, LB + 1, ..., and its own
# cache keeps every graph it has seen alive, so per-graph tables would too.
_search_tables = functools.lru_cache(maxsize=1)(_SearchTables)


def find_locating_coloring(
    g: Graph, k: int, budget: int = DEFAULT_BUDGET
) -> SearchResult:
    """Search for a locating coloring using exactly k colors.

    Deterministic backtracking on an explicit stack, so its depth is not
    bounded by Python's recursion limit: vertices in the order of
    :func:`_search_order`, colors introduced first-occurrence-ordered to
    break the color permutation symmetry. Graph automorphisms are broken
    by the floors of :func:`_color_floors`, which raise a vertex's first
    color: twins take increasing colors in search order, and of two
    swappable pendant trees (:func:`_branch_swaps`) the later one's color
    pattern is lexicographically no smaller; so is a leaf block's image
    under each of its involutions (:func:`_leaf_block_involutions`), which
    fix the block's cut vertex and so extend to G by the identity, as no
    other vertex of the block has a neighbor outside it. Each frame
    computes once its floor, and a frame too deep to still introduce
    every missing color is cut. Each color tried, held by a neighbor or
    not, is one node; the search stops at node budget + 1.

    ``near[c]`` holds d(w, C_c) for every w over the vertices colored c so
    far (n + 1 while C_c is empty: above every distance, and above 1 even
    when n = 1); ``near[0]`` is all 0. Coloring v with c saves ``near[c]``
    and replaces it by its elementwise minimum with v's distance row,
    O(n); undoing restores the saved list. On entering depth t, a pair that
    settles there (:func:`_settled_pairs`) with equal ``near`` columns
    would collide at the leaf, so the frame is cut. Once every class is
    non-empty, a candidate of :func:`_frozen_candidates` whose column is
    at most its r has its final code. ``seen`` and ``mark`` record, per
    such code and per vertex, the depth d where it was found and the
    node count ``stamp[d]`` then: on the current path while d is not
    below the frame and ``stamp[d]`` is unchanged. A second vertex with
    a final code on the path cuts the frame; stale entries are
    overwritten, never cleared. The leaf reads the codes off the columns
    of ``near``: an O(nk) check.

    Color c lies in N[w] exactly when ``near[c][w]`` <= 1, and that one
    test serves three rules. The uncolored v may take c only when
    ``near[c][v]`` > 1. A colored w is *full* when N[w] holds all k
    colors: its code is then 0 at its own color and 1 elsewhere for good,
    as class distances only fall and a 1 turns 0 only by coloring w
    itself, so two full vertices of one color collide at every leaf
    below, and the frame is cut. An uncolored w whose N[w] holds all k
    colors is *dead*, with no color left for it, and the frame is cut too
    (forward checking: Haralick & Elliott, 1980). Coloring v with c adds
    c to N[w] for each w in N[v] whose saved entry is above 1:
    ``distinct`` counts the colors in N[w] for every w and ``full`` the
    full vertices per color, O(deg v) per colored node and undone alike.

    No cut can remove the lexicographically smallest locating coloring
    c* in search order, which is the one returned, so the certificates and
    verdicts are those of the search without them. For an automorphism s,
    c* o s is locating too, and first-occurrence renaming N never makes a
    sequence larger: c* <= N(c* o s) <= c* o s, which is every floor's
    condition. c* is proper, so on its prefixes no uncolored w is dead:
    the neighbors of w never hold c*(w). Its final codes are distinct, so
    no two full vertices, settled pairs or final codes collide on them.

    A k below the static bound :attr:`_SearchTables.lower` is refuted in
    0 nodes, with no O(n^2) table. Everything that does not depend on k
    is built once per graph (:class:`_SearchTables`) and kept for the last
    graph searched, so ``chi_L``'s bound and its searches at successive k
    share one build. The bound only refutes k that have no locating
    coloring, so it changes no verdict or certificate.

    A non-``int`` k, or a budget that is not a positive ``int``, raises
    :class:`InputError`; above :data:`MAX_SEARCH_ORDER` vertices, a k at
    or above the static bound raises :class:`SizeLimitError`, even when
    the graph's tables are already built.
    """
    _require_connected(g)
    _check_budget(budget)
    if type(k) is not int:
        raise InputError(f"k must be an integer, got {k!r}")
    if not (1 <= k <= g.n):
        raise InputError(f"need 1 <= k <= {g.n}, got {k}")

    n = g.n
    setup = _search_tables(g)
    if k < setup.lower[0]:
        return SearchResult(INFEASIBLE, None, 0)
    if n > MAX_SEARCH_ORDER:
        raise SizeLimitError(f"order {n} exceeds the search limit {MAX_SEARCH_ORDER}")
    order, rows, closed, floors, slots, settled, frozen = setup.tables
    flags = [True] * slots  # the floors write their conditions here

    assignment = [0] * (n + 1)
    # near[0] is never changed; zeros, so that a code read off all of near
    # has its largest entry in a class.
    near = [[0] * n] + [[n + 1] * n for _ in range(k)]
    # distinct[w]: the colors in N[w]; full[c]: the full vertices of color c.
    distinct, full = [0] * n, [0] * (k + 1)
    classes = range(1, k + 1)
    # Per depth: the colors used before it, and the near list its current
    # color replaced.
    used, saved = [0] * (n + 1), [None] * n
    # Final codes and vertices -> (depth d found, node count at d's entry).
    seen, mark, stamp = {}, [(n, 0)] * n, [0] * n
    nodes = 0
    i, fresh, clash = 0, True, False
    while i >= 0:
        if fresh:
            if i == n:
                if used[n] == k and len(set(zip(*near[1:]))) == n:
                    colors = tuple(assignment[:n])
                    return SearchResult(FOUND, Coloring(k, colors), nodes)
                i, fresh = i - 1, False
                continue
            stamp[i] = nodes
            cut = clash or used[i] + n - i < k
            if not cut:
                for u, v in settled[i]:
                    if assignment[u] == assignment[v]:
                        for c in classes:
                            if near[c][u] != near[c][v]:
                                break
                        else:
                            cut = True
                            break
            if not cut and used[i] == k:
                for u, r in frozen[i]:
                    d, at = mark[u]
                    if d <= i and stamp[d] == at:
                        continue  # final on this path already
                    for row in near:
                        if row[u] > r:
                            break
                    else:  # u's code is final
                        code = tuple([row[u] for row in near])
                        d, at = seen.get(code, (n, 0))
                        if d <= i and stamp[d] == at:
                            cut = True  # and so is another vertex's
                            break
                        seen[code] = mark[u] = i, nodes
            if cut:
                i, fresh = i - 1, False
                continue
            color, v = 1, order[i]
            for x, strict, slot, link, px, py in floors[i]:
                flags[slot] = on = flags[link] and assignment[px] == assignment[py]
                if on and assignment[x] + strict > color:
                    color = assignment[x] + strict
        else:
            v = order[i]
            color = assignment[v] + 1
            old = near[color - 1] = saved[i]
            for w in closed[i]:
                if old[w] > 1:
                    if distinct[w] == k and assignment[w]:
                        full[assignment[w]] -= 1
                    distinct[w] -= 1
            clash = False
        top = used[i] + (used[i] < k)
        while color <= top:
            nodes += 1
            if nodes > budget:
                return SearchResult(BUDGET_EXHAUSTED, None, nodes)
            if near[color][v] > 1:  # no neighbor of v has the color
                break
            color += 1
        else:
            assignment[v] = 0  # uncolored, as the counters expect
            i, fresh = i - 1, False
            continue
        saved[i] = old = near[color]
        near[color] = [a if a < b else b for a, b in zip(old, rows[i])]
        assignment[v] = color
        for w in closed[i]:
            if old[w] > 1:
                distinct[w] += 1
                if distinct[w] == k:  # w is full, or dead if uncolored
                    c = assignment[w]
                    if c:
                        full[c] += 1
                    clash = clash or not c or full[c] > 1
        used[i + 1] = color if color > used[i] else used[i]
        i, fresh = i + 1, True
    return SearchResult(INFEASIBLE, None, nodes)


def _budget_keyed_cache(fn):
    """Cache ``fn(g, budget)`` on (g, budget), however the budget is passed.

    ``chi_L(g)``, ``chi_L(g, DEFAULT_BUDGET)`` and
    ``chi_L(g, budget=DEFAULT_BUDGET)`` share one entry. The cache is
    typed, so ``True`` is never served the result for ``1``. The wrapper
    keeps ``cache_info``, ``cache_clear`` and ``__wrapped__``.
    """
    cached = functools.lru_cache(maxsize=None, typed=True)(fn)

    @functools.wraps(fn)
    def wrapper(g: Graph, budget: int = DEFAULT_BUDGET):
        return cached(g, budget)

    wrapper.cache_info, wrapper.cache_clear = cached.cache_info, cached.cache_clear
    return wrapper


@_budget_keyed_cache
def chi_L(g: Graph, budget: int = DEFAULT_BUDGET) -> ChiLResult:
    """Exact locating-chromatic number with a verifiable certificate.

    Searches k from the lower bound to n - 1, each within ``budget``;
    feasibility is not assumed monotone in k. Exhaustion at some k gives
    the interval [k, n]. If all are refuted, n is certified without search
    by the all-distinct coloring in search order, as a search at k = n finds.
    A budget that is not a positive ``int`` raises :class:`InputError`.
    """
    _check_budget(budget)
    _require_connected(g)
    if g.n < 2:
        raise InputError("locating-chromatic number requires order >= 2")
    start, _ = locating_lower_bound(g)
    for k in range(start, g.n):
        result = find_locating_coloring(g, k, budget)
        if result.status == FOUND:
            return ChiLResult(k, k, result.coloring)
        if result.status == BUDGET_EXHAUSTED:
            return ChiLResult(k, g.n)
    colors = [0] * g.n
    for i, v in enumerate(_search_tables(g).order):
        colors[v] = i + 1
    return ChiLResult(g.n, g.n, Coloring(g.n, tuple(colors)))


def brute_force_chi_L(g: Graph) -> int:
    """Oracle: exhaustive enumeration over proper colorings, k ascending.

    Improper colorings can never be locating, so restricting the
    enumeration to proper ones loses nothing. No ordering heuristics, no
    symmetry breaking; intended as an independent check of :func:`chi_L`
    on graphs with at most 8 vertices. The order-0 graph raises
    :class:`InputError`.
    """
    _require_connected(g)
    if g.n < 1:
        raise InputError("brute force requires order >= 1")
    if g.n > BRUTE_FORCE_LIMIT:
        raise SizeLimitError(
            f"brute force is limited to {BRUTE_FORCE_LIMIT} vertices"
        )
    n = g.n
    dist = all_pairs_distances(g)
    assignment = [0] * n

    def locating() -> bool:
        classes = {}
        for v, c in enumerate(assignment):
            classes.setdefault(c, []).append(v)
        codes = set()
        for v in range(n):
            row = dist[v]
            code = tuple(
                min(row[u] for u in classes[c]) for c in sorted(classes)
            )
            if code in codes:
                return False
            codes.add(code)
        return True

    def enumerate_proper(v: int, k: int) -> bool:
        if v == n:
            return len(set(assignment)) == k and locating()
        for color in range(1, k + 1):
            if any(assignment[w] == color for w in g.adjacency[v] if w < v):
                continue
            assignment[v] = color
            if enumerate_proper(v + 1, k):
                return True
        assignment[v] = 0
        return False

    for k in range(1, n + 1):
        if enumerate_proper(0, k):
            return k
    raise AssertionError("unreachable: k = n always succeeds")
