"""One pass of a workload in a fresh interpreter.

Run by ``run.py``, never by hand. It imports locachrom from the
checkout's ``src``, builds the workload's corpus from the seed, runs every
operation once in order, timing each, then (with ``--check``) checks every
output outside the timed region. With ``--setup-only`` it stops after
set-up and prints only the set-up time. It prints one JSON object: set-up time,
the pass's wall time, per-operation latencies and output digests, the
check outcomes, the corpus digest, peak RSS and, with ``--trace``, the
per-layer summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

import spans
import workloads


def _digest(output) -> str:
    return hashlib.sha256(repr(output).encode()).hexdigest()[:16]


def _import_locachrom(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import locachrom
    import locachrom.cli

    if not Path(locachrom.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"locachrom was imported from {locachrom.__file__}, not {src}")
    return locachrom


def _run_ops(ops, tracer) -> tuple:
    """Call every operation once; the loop is the timed region."""
    clock = time.perf_counter
    latencies, outputs = [], []
    start = clock()
    for op in ops:
        span = tracer.open("bench.op") if tracer else None
        t0 = clock()
        try:
            output = op.call()
        except Exception as exc:  # an operation that raises is a failed one
            output = workloads.OpError("".join(traceback.format_exception_only(exc)).strip())
        t1 = clock()
        if span:
            span[2], span[3] = t0, t1
            tracer.close()
        latencies.append(t1 - t0)
        outputs.append(output)
    return clock() - start, latencies, outputs


def _check_ops(ops, outputs) -> list:
    outcomes = []
    for op, output in zip(ops, outputs):
        if isinstance(output, workloads.OpError):
            outcomes.append(["failed", f"{op.label}: raised {output.error}"])
            continue
        try:
            outcomes.append([op.check(output), ""])
        except (workloads.CheckFailure, AttributeError, IndexError, KeyError,
                TypeError, ValueError) as exc:  # an output of the wrong shape fails
            outcomes.append(["failed", f"{op.label}: {type(exc).__name__}: {exc}"])
    return outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() just before this interpreter was spawned")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and print only its time")
    args = parser.parse_args(argv)

    lc = _import_locachrom(args.root)
    workload = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        corpus = workload.build(lc, args.seed, Path(tmp))
        tracer = spans.Tracer(lc) if args.trace else None
        cache_before = tracer.cache_counts() if tracer else None
        # time.monotonic() is system-wide, so this spans the interpreter spawn.
        setup_s = time.monotonic() - args.spawned
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        wall_s, latencies, outputs = _run_ops(corpus.ops, tracer)
        cache_after = tracer.cache_counts() if tracer else None
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "op_s": latencies,
        "labels": [op.label for op in corpus.ops],
        "digests": [_digest(output) for output in outputs],
        "corpus": corpus.digest,
        "rss_mb": rss_mb,
    }
    if args.check:
        if tracer:
            span = tracer.open("bench.check")
            span[2] = time.perf_counter()
        result["outcomes"] = _check_ops(corpus.ops, outputs)
        if tracer:
            span[3] = time.perf_counter()
            tracer.close()
    if tracer:
        result["trace"] = tracer.summary()
        result["absent"] = tracer.absent
        if cache_before is not None:
            hits = cache_after[0] - cache_before[0]
            misses = cache_after[1] - cache_before[1]
            result["cache"] = [hits, misses]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
