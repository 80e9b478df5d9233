"""Spans around locachrom's public functions, recorded from outside.

``Tracer`` replaces every binding of each wrapped function in the
package's modules: ``constructions`` and ``locating`` import ``verify``,
``chi_L`` and ``all_pairs_distances`` by name, and a binding left
unwrapped would silently zero its layer. A layer whose every name is gone
is reported as absent; it never raises.

Spans live in memory as ``[layer, parent, start, end, search]`` lists and
are summarised when the pass ends; ``search`` holds a search call's
``(status, nodes)``. A layer's self time is its spans'
durations minus the part covered by their child spans. Its call count is
the number of spans entered from another layer, so ``is_connected``
calling ``connected_components`` is one call to ``graphs.components``.
"""

from __future__ import annotations

import time

#: layer -> (module, public name) pairs it covers. A faster layer should
#: move these end-to-end metrics, and only on these workloads:
#:
#: - graphs.apsp: wall_s and op_p50_ms on certify-large, op_p50_ms on
#:   many-small; no change on corona-exact.
#: - graphs.components: op_p50_ms on many-small.
#: - graphs.corona, graphs.io, constructions.fixtures, locating.verify,
#:   locating.codes: wall_s on certify-large.
#: - graphs.subgraph, constructions.bounds, .upper, .classifier: wall_s on
#:   many-small.
#: - locating.search: wall_s on corona-exact; fewer budget-exhausted nodes
#:   also raise resolved_frac there.
#: - locating.twins, locating.lower_bound: op_p50_ms on many-small.
#: - locating.chi_L: wall_s and peak_rss_mb on many-small (its cache).
#: - cli: op_p50_ms on certify-large.
#: - locating.oracle: none; it is the untimed reference check on
#:   many-small and never an optimisation target.
LAYERS = {
    "graphs.apsp": [("graphs", "all_pairs_distances")],
    "graphs.components": [("graphs", "connected_components"), ("graphs", "is_connected")],
    "graphs.corona": [("graphs", "corona")],
    "graphs.io": [("graphs", "parse_graph"), ("graphs", "serialize_graph")],
    "graphs.subgraph": [("graphs", "subgraph_isomorphic")],
    "locating.search": [("locating", "find_locating_coloring")],
    "locating.twins": [("locating", "twin_classes")],
    "locating.lower_bound": [("locating", "locating_lower_bound")],
    "locating.verify": [("locating", "verify")],
    "locating.codes": [("locating", "color_codes")],
    "locating.chi_L": [("locating", "chi_L")],
    "locating.oracle": [("locating", "brute_force_chi_L")],
    "constructions.bounds": [("constructions", "corona_bounds"),
                             ("constructions", "tree_empty_corona_bounds"),
                             ("constructions", "star_corona_chi_L")],
    "constructions.upper": [("constructions", "corona_upper_coloring"),
                            ("constructions", "optimal_upper_parts")],
    "constructions.classifier": [("constructions", "pendant_tree_classifier")],
    "constructions.fixtures": [("constructions", "star_corona_coloring"),
                               ("constructions", "empty_corona_coloring"),
                               ("constructions", "fixture_theorem2")],
    "cli": [("cli", "main")],
}

#: Root spans opened by the benchmark itself: timed operations, and the
#: untimed correctness checks in which the brute-force oracle runs.
OP, CHECK = "bench.op", "bench.check"

#: Layers whose spans count inside checks rather than inside operations.
CHECK_LAYERS = ("locating.oracle",)

_NAMES = [*LAYERS, OP, CHECK]


class Tracer:
    def __init__(self, lc):
        self.spans = []
        self._stack = []
        self.absent = []
        modules = {name: getattr(lc, name) for name in ("graphs", "locating",
                                                         "constructions", "cli")}
        wrappers = {}
        for layer, names in LAYERS.items():
            found = [getattr(modules[m], attr) for m, attr in names
                     if hasattr(modules[m], attr)]
            if not found:
                self.absent.append(layer)
            for fn in found:
                wrappers[id(fn)] = self._wrap(_NAMES.index(layer), fn)
        self.chi_L = getattr(modules["locating"], "chi_L", None)
        for module in (lc, *modules.values()):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])

    def _wrap(self, layer: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_search = _NAMES[layer] == "locating.search"

        def wrapper(*args, **kwargs):
            span = [layer, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if is_search:
                span[4] = (result.status, result.nodes)
            return result

        return wrapper

    def open(self, root: str) -> list:
        """Open a root span; the caller fills in its start and end."""
        span = [_NAMES.index(root), -1, 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self):
        self._stack.pop()

    def cache_counts(self) -> tuple | None:
        """(hits, misses) of chi_L's cache, or None when it has none."""
        info = getattr(self.chi_L, "cache_info", None)
        if info is None:
            return None
        stats = info()
        return stats.hits, stats.misses

    def summary(self) -> dict:
        """Per-layer calls, self time and search nodes over all spans."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        root = [0] * len(spans)
        for i, (_, parent, start, end, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                root[i] = root[parent]
            else:
                root[i] = i
        table = {name: {"calls": 0, "self_s": 0.0} for name in _NAMES}
        search = {"nodes": 0, "infeasible": 0, "budget-exhausted": 0}
        oracle_layers = {_NAMES.index(name) for name in CHECK_LAYERS}
        check = _NAMES.index(CHECK)
        for i, (layer, parent, start, end, outcome) in enumerate(spans):
            in_check = spans[root[i]][0] == check
            if in_check != (layer in oracle_layers or layer == check):
                continue
            row = table[_NAMES[layer]]
            row["self_s"] += end - start - child_time[i]
            if parent < 0 or spans[parent][0] != layer:
                row["calls"] += 1
            if outcome is not None:
                status, nodes = outcome
                search["nodes"] += nodes
                if status in search:
                    search[status] += nodes
        return {"layers": table, "search": search}
