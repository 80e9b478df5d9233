"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py --seeds 1-10 [--write perfbench/baseline.json]

Runs ``run.py`` once per seed on every workload in BENCHMARK.json, with
its ``run_seconds``, from the root of a checkout. For every end-to-end
metric it prints the median and the spread, the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, beside the metric's bound. It then makes two traced
runs per workload with the first seed and reports any deterministic count
(calls, search nodes and shares, cache hit ratio, unresolved and failed
shares) that differs between them. With ``--write`` it stores every run,
the summary and the machine it ran on, as the baseline later changes are
compared against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Metric name endings whose values must repeat exactly for one seed.
DETERMINISTIC = ("calls", "nodes", "infeasible_node_share", "exhausted_node_share",
                 "cache_hit_ratio", "unresolved_frac", "failed_frac", "resolved_frac")


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["corpus"] = lines[0].rsplit(" ", 1)[-1]
    # Every metric as printed in words, including the ones the last line omits.
    result["printed"] = dict(line.split()[:3:2] for line in lines[2:-2])
    if proc.stderr:
        print(proc.stderr, file=sys.stderr, end="")
    return result


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _summary(runs: list, end_to_end: list) -> dict:
    summary = {}
    for metric in end_to_end:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[metric["name"]] = {
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "bound": metric["bound"],
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="multi-seed benchmark runs")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--write", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    report = {"environment": {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "run_seconds": spec["run_seconds"],
    }, "workloads": {}}
    seeds = _seeds(args.seeds)
    for name in (w["name"] for w in spec["workloads"]):
        runs = [_run(name, seed, spec["run_seconds"], 0) for seed in seeds]
        entry = {"runs": runs, "summary": _summary(runs, spec["end_to_end"])}
        print(f"{name}: {sum(r['correct'] for r in runs)}/{len(runs)} runs correct")
        for metric, s in entry["summary"].items():
            flag = "" if s["spread"] <= s["bound"] / 3 else "  <-- above a third of the bound"
            values = " ".join(f"{r['metrics'][metric]['value']:.4g}" for r in runs)
            print(f"  {metric:14} median {s['median']:<12.6g} spread {s['spread']:.4f} "
                  f"bound {s['bound']}{flag}\n    {values}")
        traces = [_run(name, seeds[0], spec["run_seconds"], 1) for _ in range(2)]
        entry["trace"] = traces[0]
        differ = [m for m, value in traces[0]["printed"].items()
                  if m.split(".")[-1] in DETERMINISTIC and traces[1]["printed"][m] != value]
        print(f"  traced runs correct: {[t['correct'] for t in traces]}; deterministic "
              f"counts that differ between them: {differ or 'none'}")
        report["workloads"][name] = entry
    if args.write:
        args.write.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
