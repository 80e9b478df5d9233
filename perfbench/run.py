"""Benchmark for locachrom, run from the root of a checkout.

    python3 perfbench/run.py --workload corona-exact --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``; BENCHMARK.json says why each exists):

- ``corona-exact``: ``chil`` on the paper's corona instances at a fixed
  search budget; loads the search.
- ``many-small``: library calls on a seeded corpus of small graphs; loads
  per-call overhead, APSP, twins, bounds and the ``chi_L`` cache.
- ``certify-large``: CLI fixtures, ``verify``, ``corona`` and ``bounds`` on
  inputs of up to 1,681 vertices; loads APSP, ``verify`` and I/O.

A run is a sequence of passes. Each pass is a fresh interpreter
(``worker.py``) that imports locachrom from ``src``, builds the corpus
from the seed and runs the workload's fixed operation list once on one
thread. A run makes ``--seconds`` / ``pass_s`` passes (at least
``MIN_PASSES``), where ``pass_s`` is a constant of the workload: the
count depends on ``--seconds`` only, never on how fast the code runs. The first pass also checks every output
against its reference outside the timed region; every later pass must
reproduce each operation's output byte for byte, or that operation
counts as failed.

An operation's latency is its best time over the run's passes. With
``--trace 0`` the last line carries the end-to-end metrics: ``setup_s``
(interpreter spawn to first operation ready, best over the passes and
the set-up-only spawns between them),
``wall_s`` (the operation list once, the sum of its latencies),
``op_p50_ms`` and ``op_tail_ms`` (over the operations' latencies),
``peak_rss_mb`` (median over passes) and ``resolved_frac`` (operations not
ended indeterminate over operations attempted). With ``--trace 1`` half as
many traced and untraced passes alternate, and the last line carries the
per-layer metrics from ``spans.py`` plus the tracing overhead. Names and
units come from BENCHMARK.json.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``; the lines above it repeat each metric in words, with the
corpus digest, the tail percentile and the unresolved and failed shares.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent

#: Fewest passes per run, and fewest of each kind in a traced run.
MIN_PASSES = 3
MIN_TRACE_PASSES = 2
#: A run must end within 180 s: it fails if a pass is due after
#: HARD_LIMIT_S, and every pass is stopped at RUN_LIMIT_S.
HARD_LIMIT_S = 150
RUN_LIMIT_S = 175
#: The benchmark's own time in a traced pass (the residual outside every
#: layer span) may be at most this share of its wall time; more means
#: program time that no wrapper covers.
BENCH_SHARE_MAX = 0.05
#: Set-up-only spawns after each pass of an untraced run: set-up is
#: short, so its best of many spawns is steadier than of the passes alone.
SETUP_SPAWNS = 2
#: The tail percentile is the highest with at least this many operations
#: of one pass beyond it.
TAIL_OPS = 10


class RunError(Exception):
    pass


def _spawn(args, workdir: Path, flags: list, deadline: float) -> dict:
    # -S: skip site-packages hooks, which are the host's start-up cost, not
    # the program's; locachrom needs only the standard library.
    cmd = [sys.executable, "-S", str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--root", str(ROOT), "--workdir", str(workdir), *flags]
    spawned = time.monotonic()
    try:
        proc = subprocess.run([*cmd, "--spawned", repr(spawned)], capture_output=True,
                              text=True, timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise RunError("a pass did not finish in time") from None
    if proc.returncode != 0:
        raise RunError(f"pass exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _run_passes(args, workdir: Path) -> tuple:
    """Traced runs alternate traced and untraced passes, traced first;
    untraced runs follow each pass with SETUP_SPAWNS set-up-only spawns.
    Returns the passes and the set-up times of every untraced spawn."""
    start = time.monotonic()
    count = round(args.seconds / workloads.WORKLOADS[args.workload].pass_s)
    if args.trace:
        kinds = [True, False] * max(MIN_TRACE_PASSES, count // 2)
    else:
        kinds = [False] * max(MIN_PASSES, count)
    passes, setups = [], []
    for traced in kinds:
        if time.monotonic() > start + HARD_LIMIT_S:
            raise RunError(f"{len(passes)} of {len(kinds)} passes took over {HARD_LIMIT_S} s")
        flags = ["--trace"] * traced + ["--check"] * (not passes)
        result = _spawn(args, workdir, flags, start + RUN_LIMIT_S)
        result["traced"] = traced
        passes.append(result)
        if not traced:
            setups.append(result["setup_s"])
        if not args.trace:
            setups += [_spawn(args, workdir, ["--setup-only"], start + RUN_LIMIT_S)["setup_s"]
                       for _ in range(SETUP_SPAWNS)]
    return passes, setups


def _nearest_rank(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _outcomes(passes: list, errors: list) -> tuple:
    """(attempted, failed, unresolved) over all passes, from the checked
    first pass and byte-identical outputs in the others."""
    first = passes[0]
    attempted = failed = unresolved = 0
    for p in passes:
        if p["corpus"] != first["corpus"] or p["labels"] != first["labels"]:
            raise RunError("passes of one seed built different corpora")
        for i, (status, reason) in enumerate(first["outcomes"]):
            attempted += 1
            if p["digests"][i] != first["digests"][i]:
                failed += 1
                errors.append(f"{first['labels'][i]}: output differs between passes")
            elif status == "failed":
                failed += 1
                if p is first:
                    errors.append(reason)
            elif status == "unresolved":
                unresolved += 1
    return attempted, failed, unresolved


def _best_latencies(passes: list) -> list:
    """Each operation's fastest time over the passes: on a shared host the
    slower repeats measure other tenants, not the program."""
    return [min(times) for times in zip(*(p["op_s"] for p in passes))]


def _end_to_end(passes: list, setups: list, lines: list) -> dict:
    untraced = [p for p in passes if not p["traced"]]
    best = _best_latencies(untraced)
    q = max(0.5, 1 - TAIL_OPS / len(best))
    lines.append(f"  latencies are each operation's best of {len(untraced)} passes; "
                 f"op_tail_ms is the p{100 * q:.4g} of {len(best)} operations; "
                 f"setup_s is the best of {len(setups)} spawns")
    return {
        "setup_s": min(setups),
        "wall_s": sum(best),
        "op_p50_ms": 1e3 * statistics.median(best),
        "op_tail_ms": 1e3 * _nearest_rank(best, q),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in untraced),
    }


def _same(values: list, what: str, errors: list):
    if any(v != values[0] for v in values):
        errors.append(f"{what} differs between traced passes: {values}")
    return values[0]


def _per_layer(workload: str, passes: list, errors: list) -> dict:
    """Counts must agree across traced passes; times come from the fastest
    traced pass, so that they add up to its wall time."""
    traced = [p for p in passes if p["traced"]]
    fastest = min(traced, key=lambda p: p["wall_s"])
    layers = fastest["trace"]["layers"]
    absent = set(fastest["absent"])
    metrics = {}
    for name in spans.LAYERS:
        if name in absent:
            metrics[f"{name}.calls"] = metrics[f"{name}.self_s"] = None
            continue
        if name in spans.CHECK_LAYERS:  # only the first pass runs the checks
            row = traced[0]["trace"]["layers"][name]
        else:
            row = layers[name]
            _same([p["trace"]["layers"][name]["calls"] for p in traced],
                  f"{name}.calls", errors)
        metrics[f"{name}.calls"] = row["calls"]
        metrics[f"{name}.self_s"] = row["self_s"]
        if name in workloads.WORKLOADS[workload].expected_layers and row["calls"] == 0:
            errors.append(f"layer {name} is expected on {workload} but was never entered")

    search = _same([p["trace"]["search"] for p in traced], "search nodes", errors)
    nodes = search["nodes"]
    metrics["locating.search.nodes"] = nodes
    search_s = metrics["locating.search.self_s"]
    metrics["locating.search.nodes_per_s"] = nodes / search_s if search_s else None
    metrics["locating.search.infeasible_node_share"] = (
        search["infeasible"] / nodes if nodes else 0.0)
    metrics["locating.search.exhausted_node_share"] = (
        search["budget-exhausted"] / nodes if nodes else 0.0)

    cache = _same([p.get("cache") for p in traced], "chi_L cache hits and misses", errors)
    metrics["locating.chi_L.cache_hit_ratio"] = (
        cache[0] / (cache[0] + cache[1]) if cache and sum(cache) else None)

    # The benchmark's own time: operation spans not covered by a layer,
    # plus the loop between operations.
    for p in traced:
        own = p["trace"]["layers"][spans.OP]["self_s"] + p["wall_s"] - sum(p["op_s"])
        listed = sum(row["self_s"] for name, row in p["trace"]["layers"].items()
                     if name in spans.LAYERS and name not in spans.CHECK_LAYERS)
        if abs(listed + own - p["wall_s"]) > 1e-6 * p["wall_s"] + 1e-6:
            errors.append(f"layer self times {listed} + benchmark {own} "
                          f"do not add up to the traced wall time {p['wall_s']}")
        if own > BENCH_SHARE_MAX * p["wall_s"]:
            errors.append(f"benchmark self time {own} is over {BENCH_SHARE_MAX} of the "
                          f"traced wall time {p['wall_s']}: some program time is unwrapped")
        if p is fastest:
            metrics["bench.self_s"] = own
    metrics["trace.wall_s"] = fastest["wall_s"]
    plain_wall = min(p["wall_s"] for p in passes if not p["traced"])
    metrics["trace.overhead_frac"] = fastest["wall_s"] / plain_wall - 1
    return metrics


def _declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="locachrom benchmark")
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "locachrom" / "__init__.py").is_file():
        print(f"error: no locachrom sources under {ROOT / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    declared = _declared()

    work_root = ROOT / ".perfbench"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    started = time.monotonic()
    try:
        passes, setups = _run_passes(args, workdir)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run still uses it
            pass

    elapsed = time.monotonic() - started
    errors = []
    try:
        attempted, failed, unresolved = _outcomes(passes, errors)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    traced = sum(p["traced"] for p in passes)
    lines = [f"locachrom benchmark: workload {args.workload}, seed {args.seed}, "
             f"{len(passes)} passes ({traced} traced) in {elapsed:.1f} s, "
             f"corpus sha256 {passes[0]['corpus']}"]
    values = _end_to_end(passes, setups, lines)
    values["resolved_frac"] = 1 - unresolved / attempted
    values["unresolved_frac"] = unresolved / attempted
    values["failed_frac"] = failed / attempted
    if args.trace:
        values.update(_per_layer(args.workload, passes, errors))

    units = {m["name"]: m["unit"] for group in declared.values() for m in group}
    for name, value in values.items():
        unit = units.get(name, "ratio" if name.endswith("_frac") else "")
        shown = "absent" if value is None else value if isinstance(value, int) else f"{value:.6g}"
        lines.append(f"  {name} = {shown} {unit}")
    lines.append(f"  {unresolved} of {attempted} operations indeterminate, {failed} failed")
    print("\n".join(lines))
    for error in errors:
        print(f"error: {error}", file=sys.stderr)

    reported = declared["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in reported}
    print(json.dumps({"correct": failed == 0 and not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
