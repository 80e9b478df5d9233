"""Benchmark-side graphs and an independent locating-coloring check.

Nothing here imports locachrom. The benchmark builds its input files and
re-verifies every certificate with this code, which shares no logic with
the program under test: codes come from one multi-source BFS per color
class instead of all-pairs distances.

Graphs are plain ``(n, edges)`` pairs with vertices 0..n-1 and sorted
``(u, v)`` edges, ``u < v``.
"""

from __future__ import annotations

from collections import deque


def normalized(edges) -> list:
    return sorted({(min(a, b), max(a, b)) for a, b in edges})


def path(n: int) -> tuple:
    return n, [(i, i + 1) for i in range(n - 1)]


def star(n: int) -> tuple:
    return n, [(0, i) for i in range(1, n)]


def cycle(n: int) -> tuple:
    return n, normalized((i, (i + 1) % n) for i in range(n))


def empty(n: int) -> tuple:
    return n, []


def union(*graphs) -> tuple:
    n, edges = 0, []
    for gn, gedges in graphs:
        edges += [(a + n, b + n) for a, b in gedges]
        n += gn
    return n, edges


def join_k1(h: tuple) -> tuple:
    """H plus an apex (the highest index) adjacent to every vertex of H."""
    hn, hedges = h
    return hn + 1, normalized([*hedges, *((v, hn) for v in range(hn))])


def adjacency(n: int, edges) -> list:
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def components(n: int, edges) -> list:
    """Components as sorted vertex tuples, ordered by smallest member."""
    adj = adjacency(n, edges)
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        stack, comp = [s], []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def corona(g: tuple, h: tuple) -> tuple:
    """G (.) H numbered as the locachrom README documents it.

    Centers 0..|G|-1, then one copy of H per center in center order; inside
    a copy, H's vertices follow its component order, ascending within each
    component.
    """
    gn, gedges = g
    hn, hedges = h
    order = [v for comp in components(hn, hedges) for v in comp]
    edges = list(gedges)
    for u in range(gn):
        pos = {v: gn + u * hn + i for i, v in enumerate(order)}
        edges += [(u, pos[v]) for v in order]
        edges += [(pos[a], pos[b]) for a, b in hedges]
    return gn * (1 + hn), normalized(edges)


def relabel(g: tuple, perm: list) -> tuple:
    """The same graph with vertex v renamed perm[v]."""
    n, edges = g
    return n, normalized((perm[a], perm[b]) for a, b in edges)


def graph_text(g: tuple) -> str:
    n, edges = g
    return "".join([f"n {n}\n", *(f"e {u} {v}\n" for u, v in edges)])


def parse_graph_text(text: str) -> tuple:
    n, edges = None, []
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "n":
            n = int(parts[1])
        elif parts and parts[0] == "e":
            edges.append((int(parts[1]), int(parts[2])))
    return n, normalized(edges)


def codes(g: tuple, colors) -> list | None:
    """Per-vertex distances to each color class 1..k; None if disconnected."""
    n, edges = g
    adj = adjacency(n, edges)
    k = max(colors)
    per_class = []
    for c in range(1, k + 1):
        dist = [-1] * n
        queue = deque(v for v in range(n) if colors[v] == c)
        for v in queue:
            dist[v] = 0
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        if min(dist) < 0:
            return None
        per_class.append(dist)
    return [tuple(dist[v] for dist in per_class) for v in range(n)]


def locating_defect(g: tuple, colors, k: int) -> str | None:
    """Why ``colors`` is not a locating k-coloring of the connected g, or None."""
    n, edges = g
    if len(colors) != n:
        return f"{len(colors)} colors for {n} vertices"
    if sorted(set(colors)) != list(range(1, k + 1)):
        return f"colors are not exactly 1..{k}"
    for a, b in edges:
        if colors[a] == colors[b]:
            return f"edge ({a}, {b}) is monochromatic"
    table = codes(g, colors)
    if table is None:
        return "graph is disconnected"
    if len(set(table)) != n:
        return "two vertices share a color code"
    return None
