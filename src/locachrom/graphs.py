"""Simple undirected graphs: construction, standard families, products,
distances, components, subgraph containment, and a plain edge-list format.

Vertices are always labeled 0..n-1. All types are immutable; every
operation returns a fresh value.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

#: Sentinel distance for unreachable vertex pairs.
UNREACHABLE = -1

#: Guard for the exponential subgraph search.
SUBGRAPH_PATTERN_LIMIT = 64

#: Largest order that :func:`parse_graph`, :func:`generate` and
#: :func:`corona` build; a larger order is refused before any allocation.
MAX_ORDER = 100_000

#: Largest edge count that :func:`generate` and :func:`corona` build; a
#: larger size is refused before any allocation.
MAX_SIZE = 1_000_000


class InputError(ValueError):
    """Invalid graph input (bad endpoint, loop, family parameter, ...)."""


class SizeLimitError(InputError):
    """An operation was invoked beyond its guarded size limit."""


class ParseError(ValueError):
    """Malformed edge-list text."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph on vertices 0..n-1.

    ``edges`` holds normalized pairs (u, v) with u < v; no loops, no
    duplicates. Connectivity is not an invariant (see :func:`is_connected`).
    """

    n: int
    edges: frozenset

    @cached_property
    def adjacency(self) -> tuple:
        nbrs = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        for b in nbrs:
            b.sort()
        return tuple(map(tuple, nbrs))

    @cached_property
    def connected(self) -> bool:
        """One BFS on first use, unless the builder recorded it (as
        :func:`generate`, :func:`join_with_k1` and :func:`corona` do);
        read it through :func:`is_connected`."""
        return self.n == 0 or UNREACHABLE not in bfs_distances(self, (0,))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def sorted_edges(self) -> list:
        return sorted(self.edges)


@dataclass(frozen=True)
class CoronaMap:
    """The layout of G (.) H, fixed by G's order and H's components.

    ``order`` is |V(G)|; ``components`` holds H's components in the
    canonical order of :func:`connected_components`. The map itself is
    read off these two: see :func:`corona`.
    """

    order: int
    components: tuple

    def to_json_dict(self) -> dict:
        """Centers, then one record per satellite in product order: ``g``
        the center it hangs off, ``t`` its 1-based component of H, ``h``
        the H-vertex it copies, ``idx`` its product vertex."""
        n, comps = self.order, self.components
        slots = [(t, v) for t, comp in enumerate(comps, start=1) for v in comp]
        return {
            "centers": list(range(n)),
            "satellites": [
                {"g": u, "t": t, "h": v, "idx": n + u * len(slots) + p}
                for u in range(n)
                for p, (t, v) in enumerate(slots)
            ],
        }


def _normalize_edge(a: int, b: int) -> tuple:
    return (a, b) if a < b else (b, a)


def make_graph(n: int, edges: Iterable) -> Graph:
    """Build a simple graph, collapsing duplicate edges.

    Raises :class:`InputError` on loops or out-of-range endpoints.
    """
    if n < 0:
        raise InputError(f"vertex count must be non-negative, got {n}")
    normalized = set()
    for a, b in edges:
        if a == b:
            raise InputError(f"loop at vertex {a} is not allowed")
        if not (0 <= a < n and 0 <= b < n):
            raise InputError(f"edge ({a}, {b}) out of range [0, {n})")
        normalized.add(_normalize_edge(a, b))
    return Graph(n, frozenset(normalized))


#: The families that :func:`generate` builds, one row each: the parameter
#: names, the least value of each, and the order, size and normalized edge
#: list as functions of the parameters.
FAMILIES = {
    "path": (("n",), 1, lambda n: n, lambda n: n - 1,
             lambda n: [(i, i + 1) for i in range(n - 1)]),
    "cycle": (("n",), 3, lambda n: n, lambda n: n,
              lambda n: [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]),
    "star": (("n",), 2, lambda n: n, lambda n: n - 1,
             lambda n: [(0, i) for i in range(1, n)]),
    "complete": (("n",), 1, lambda n: n, lambda n: n * (n - 1) // 2,
                 lambda n: [(i, j) for i in range(n) for j in range(i + 1, n)]),
    "empty": (("n",), 0, lambda n: n, lambda n: 0, lambda n: []),
    # Centers 0 and 1; endpoints 2..a+1 on center 0, the rest on center 1.
    "double_star": (("a", "b"), 1, lambda a, b: a + b + 2, lambda a, b: a + b + 1,
                    lambda a, b: [(0, 1), *((0, 2 + i) for i in range(a)),
                                  *((1, 2 + a + i) for i in range(b))]),
}


def generate(family: str, *params: int) -> Graph:
    """Build a row of :data:`FAMILIES`: ``path n``, ``cycle n``, ``star n``,
    ``complete n``, ``empty n`` or ``double_star a b``.

    A parameter that is not an ``int`` (``bool`` included) or below the
    row's least value, an order above :data:`MAX_ORDER` or a size above
    :data:`MAX_SIZE` raises :class:`InputError` before any edge is built.
    """
    if any(type(p) is not int for p in params):
        raise InputError(f"parameters must be integers, got {params!r}")
    if family not in FAMILIES:
        raise InputError(f"unknown family {family!r}")
    names, least, order, size, edges = FAMILIES[family]
    if len(params) != len(names):
        raise InputError(f"{family} takes {len(names)} parameter(s), got {len(params)}")
    n, m = order(*params), size(*params)
    if n > MAX_ORDER:
        raise InputError(f"order {n} exceeds the limit {MAX_ORDER}")
    if m > MAX_SIZE:
        raise InputError(f"size {m} exceeds the limit {MAX_SIZE}")
    if min(params) < least:
        raise InputError(f"{family} requires {', '.join(names)} >= {least}")
    g = Graph(n, frozenset(edges(*params)))
    # Every row is connected but the edgeless one of order 2 or more.
    g.__dict__["connected"] = family != "empty" or n < 2
    return g


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Vertex-disjoint union; H's vertices are shifted up by |V(G)|."""
    edges = set(g.edges)
    edges.update((a + g.n, b + g.n) for a, b in h.edges)
    return Graph(g.n + h.n, frozenset(edges))


def join_with_k1(h: Graph) -> Graph:
    """H plus one new vertex (highest index) adjacent to all of V(H)."""
    apex = h.n
    edges = set(h.edges)
    edges.update((v, apex) for v in range(h.n))
    g = Graph(h.n + 1, frozenset(edges))
    g.__dict__["connected"] = True  # the apex reaches every vertex
    return g


def connected_components(g: Graph) -> list:
    """Components as sorted vertex tuples, ordered by smallest member.

    This order is the canonical component order used by every downstream
    construction.
    """
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        queue = deque([start])
        seen[start] = True
        comp = []
        while queue:
            v = queue.popleft()
            comp.append(v)
            for w in g.adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def is_connected(g: Graph) -> bool:
    """True iff g has at most one component; computed once per graph."""
    return g.connected


def induced_subgraph(g: Graph, vertices: Iterable) -> Graph:
    """Induced subgraph relabeled to 0..m-1 in ascending vertex order.

    A vertex that is not an ``int`` (``bool`` included), lies outside
    0..n-1 or is listed twice raises :class:`InputError`.
    """
    ordered = list(vertices)
    bad = next((v for v in ordered if type(v) is not int), None)
    if bad is not None:
        raise InputError(f"vertices must be integers, got {bad!r}")
    ordered.sort()
    if ordered and (ordered[0] < 0 or ordered[-1] >= g.n):
        raise InputError(f"vertex out of range [0, {g.n}) in {ordered}")
    index = {v: i for i, v in enumerate(ordered)}
    if len(index) < len(ordered):
        raise InputError(f"duplicate vertex in {ordered}")
    edges = [
        (index[a], index[b]) for a, b in g.edges if a in index and b in index
    ]
    return make_graph(len(ordered), edges)


def corona(g: Graph, h: Graph) -> tuple:
    """Corona product G (.) H and its :class:`CoronaMap`.

    Vertex numbering: centers 0..n-1 in G's order, then one copy of H per
    center in G-vertex order; inside a copy, vertices follow the canonical
    component order, ascending within each component. A product order
    above :data:`MAX_ORDER` or size above :data:`MAX_SIZE` raises
    :class:`SizeLimitError`.
    """
    if g.n < 1:
        raise InputError("corona requires |V(G)| >= 1")
    order = g.n * (1 + h.n)
    if order > MAX_ORDER:
        raise SizeLimitError(f"product order {order} exceeds the limit {MAX_ORDER}")
    size = g.num_edges + g.n * (h.n + h.num_edges)
    if size > MAX_SIZE:
        raise SizeLimitError(f"product size {size} exceeds the limit {MAX_SIZE}")
    comps = connected_components(h)
    rank = [0] * h.n  # an H-vertex's position in its copy
    for p, v in enumerate(v for comp in comps for v in comp):
        rank[v] = p
    copy_edges = [_normalize_edge(rank[a], rank[b]) for a, b in h.edges]

    # Satellite s hangs off center (s - n) // |H|; the copies start every
    # |H| from n (an H with edges has |H| >= 2, so the step is never 0).
    n, m = g.n, h.n
    edges = [*g.edges, *[((s - n) // m, s) for s in range(n, order)]]
    edges += [(c + a, c + b) for a, b in copy_edges for c in range(n, order, m)]
    product = Graph(order, frozenset(edges))
    # Every satellite is adjacent to its center: G (.) H is connected iff G is.
    product.__dict__["connected"] = g.connected
    return product, CoronaMap(n, tuple(comps))


def bfs_distances(g: Graph, sources: Iterable) -> list:
    """Hop distance from every vertex to the nearest of ``sources``.

    One BFS started from all sources at once, so entry v is
    min over s in sources of d(v, s), in O(n + m) time; UNREACHABLE where
    no source reaches. A source that is not an ``int`` (``bool`` included)
    or lies outside 0..n-1 raises :class:`InputError`.
    """
    sources = list(sources)
    if not all(type(s) is int and 0 <= s < g.n for s in sources):
        raise InputError(f"sources must be vertices in [0, {g.n}), got {sources!r}")
    return bfs_levels(g.adjacency, (sources,))[0]


def bfs_levels(adjacency, source_sets) -> list:
    """:func:`bfs_distances` from each of ``source_sets`` (sequences) in
    turn, over an adjacency list that may have edges cut; one call for all
    the passes, as a call per pass costs more than a small graph's BFS."""
    n, rows = len(adjacency), []
    for frontier in source_sets:
        dist = [UNREACHABLE] * n
        for s in frontier:
            dist[s] = 0
        level = 0
        while frontier:
            level += 1
            reached = []
            for v in frontier:
                for w in adjacency[v]:
                    if dist[w] == UNREACHABLE:
                        dist[w] = level
                        reached.append(w)
            frontier = reached
        rows.append(dist)
    return rows


def all_pairs_distances(g: Graph) -> list:
    """Hop distances by one BFS from every vertex: O(n(n + m)) time and
    O(n^2) memory; UNREACHABLE for no path."""
    return bfs_levels(g.adjacency, [(start,) for start in range(g.n)])


def subgraph_isomorphic(pattern: Graph, host: Graph) -> bool:
    """True iff host contains a (not necessarily induced) copy of pattern."""
    if pattern.n > host.n or pattern.num_edges > host.num_edges:
        return False
    if pattern.n > SUBGRAPH_PATTERN_LIMIT:
        raise SizeLimitError(
            f"pattern has {pattern.n} vertices, limit is {SUBGRAPH_PATTERN_LIMIT}"
        )

    # Order pattern vertices so each one (after the first of its component)
    # has a previously placed neighbor; anchors the backtracking early.
    order = []
    placed = set()
    remaining = set(range(pattern.n))
    while remaining:
        best = max(
            remaining,
            key=lambda v: (
                sum(1 for w in pattern.adjacency[v] if w in placed),
                pattern.degree(v),
                -v,
            ),
        )
        order.append(best)
        placed.add(best)
        remaining.discard(best)

    mapping = [-1] * pattern.n
    used = [False] * host.n

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        p = order[i]
        anchored = [mapping[w] for w in pattern.adjacency[p] if mapping[w] >= 0]
        for cand in range(host.n):
            if used[cand] or host.degree(cand) < pattern.degree(p):
                continue
            if all(host.has_edge(cand, a) for a in anchored):
                mapping[p] = cand
                used[cand] = True
                if extend(i + 1):
                    return True
                mapping[p] = -1
                used[cand] = False
        return False

    return extend(0)


def _peel(adj) -> tuple:
    """Peel the vertices of degree <= 1 layer by layer; iterative, O(n log n).

    Returns (layers, rank, parent). Per layer, ``layers`` holds each peeled
    vertex's key: the sorted ranks of its peeled neighbours, the roots of
    its pendant tree's subtrees. ``rank`` is the rooted encoding of Aho,
    Hopcroft and Ullman (1974): 0 for a leaf, -1 if never peeled, and equal
    for two peeled vertices exactly when their pendant trees are isomorphic.
    ``parent[v]`` is v's one neighbour left when it was peeled, or -1: for
    a tree's centre or centres and for a vertex never peeled.
    """
    rank, parent, layers, ranked = [-1] * len(adj), [-1] * len(adj), [], 0
    below = [[] for _ in adj]  # per vertex, the ranks of its peeled neighbours
    layer = [v for v, nbrs in enumerate(adj) if len(nbrs) <= 1]
    while layer:
        keys = [tuple(sorted(below[v])) for v in layer]
        # Every rank given so far is below `ranked`.
        index = {key: r for r, key in enumerate(sorted(set(keys)), ranked)}
        for v, key in zip(layer, keys):
            rank[v] = index[key]
        layers.append(keys)
        ranked += len(layer)
        peeled, layer = layer, []
        for v in peeled:
            for w in adj[v]:
                if rank[w] < 0:  # the one neighbour left
                    parent[v] = w
                    below[w].append(rank[v])
                    if len(below[w]) == len(adj[w]) - 1:
                        layer.append(w)
    return layers, rank, parent


def _tree_shape(t: Graph) -> tuple:
    """Canonical form of a tree: the sorted keys of each layer of :func:`_peel`."""
    return tuple(tuple(sorted(keys)) for keys in _peel(t.adjacency)[0])


def serialize_graph(g: Graph) -> str:
    """Canonical edge-list text: 'n <order>' then sorted 'e <u> <v>' lines."""
    lines = [f"n {g.n}"]
    lines.extend(f"e {u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def _parse_count(token: str, what: str, line_no: int) -> int:
    """A non-negative integer written in ASCII digits only.

    ``int`` alone also takes signs, underscores ('1_0') and non-ASCII
    decimal digits ('١'), and ``str.isdigit`` also passes digits ``int``
    rejects ('²').
    """
    if not (token.isascii() and token.isdigit()):
        raise ParseError(
            f"{what} must be a non-negative integer, got {token!r}", line_no
        )
    try:
        return int(token)
    except ValueError:  # beyond the interpreter's integer-string digit limit
        raise ParseError(f"{what} has too many digits", line_no) from None


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format; round-trips with :func:`serialize_graph`."""
    n = None
    edges = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if len(parts) == 3 and parts[0] == "e" and n is not None:
            u = _parse_count(parts[1], "endpoint", line_no)
            v = _parse_count(parts[2], "endpoint", line_no)
            if u == v:
                raise ParseError(f"loop at vertex {u}", line_no)
            if u >= n or v >= n:
                raise ParseError(f"endpoint out of range [0, {n})", line_no)
            edges.append((u, v) if u < v else (v, u))
        elif not parts or parts[0].startswith("#"):
            continue
        elif parts[0] == "n":
            if n is not None:
                raise ParseError("duplicate 'n' line", line_no)
            if len(parts) != 2:
                raise ParseError("expected 'n <order>'", line_no)
            n = _parse_count(parts[1], "order", line_no)
            if n > MAX_ORDER:
                raise ParseError(
                    f"order {n} exceeds the limit {MAX_ORDER}", line_no
                )
        elif parts[0] == "e":
            if n is None:
                raise ParseError("'e' line before 'n' line", line_no)
            raise ParseError("expected 'e <u> <v>'", line_no)
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", line_no)
    if n is None:
        raise ParseError("missing 'n' line", 1)
    return Graph(n, frozenset(edges))
