#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload paper-olap --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same workload with the per-layer span wrappers of
``layers.py`` installed and reports the per-layer metrics instead; it
also writes ``perfbench/out/<workload>-<seed>/trace.json`` (Chrome trace
format, loadable in Perfetto) and ``summary.txt`` beside it.

The last line of standard output is the result object; everything else
goes to standard error.  The exit code is 0 only when every answer
matched the numpy oracle.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def setup(workload_cls, seed: int):
    """Build the workload's inputs, then set the system up ``SETUPS``
    times; returns the last (live) workload and the set-up times."""
    from workloads import SETUPS

    workload = workload_cls(seed)
    times = []
    for _ in range(SETUPS):
        workload.close()
        gc.collect()
        started = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - started)
    return workload, times


def check(workload, outcomes) -> tuple[int, int, list[str]]:
    """``(attempted, failed, mismatches)`` counted in answers."""
    per = workload.answers_per_request
    mismatches = workload.check(outcomes)
    errors = sum(per for o in outcomes if o.error is not None)
    return len(outcomes) * per, errors + len(mismatches), mismatches


def end_to_end(workload, outcomes, setup_times, attempted, failed):
    from workloads import CLASSES, busy_seconds

    per = workload.answers_per_request
    answered = sum(per for o in outcomes if o.error is None)
    latencies = [o.latency_s * 1e3 for o in outcomes]
    prefix = workload.model_prefix(outcomes)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "throughput_qps": (
            answered / busy_seconds(workload, outcomes), "1/s"),
        "latency_ms.p50": (percentile(latencies, 50), "ms"),
        "latency_ms.p90": (percentile(latencies, 90), "ms"),
    }
    for cls in CLASSES:
        # On stream-window every class's answer arrives with the tick.
        times = [
            o.latency_s * 1e3 for o in outcomes
            if o.cls == cls or o.cls == "tick"
        ]
        metrics[f"{cls}_ms.p50"] = (statistics.median(times), "ms")
    metrics["modeled_ms_per_query"] = (
        statistics.fmean(o.modeled_ms for o in prefix), "ms")
    metrics["passes_per_query"] = (
        statistics.fmean(o.passes for o in prefix), "count")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics["ok_ratio"] = (1.0 - failed / attempted, "ratio")
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import layers
    from workloads import WORKLOADS

    workload, setup_times = setup(WORKLOADS[name], seed)
    print(f"[{name}] seed {seed}: set-up {setup_times}", file=sys.stderr)
    try:
        if trace:
            outcomes, metrics = layers.traced_run(
                workload, seconds, os.path.join(OUT, f"{name}-{seed}"))
        else:
            outcomes = workload.run(seconds)
    finally:
        workload.close()
    attempted, failed, mismatches = check(workload, outcomes)
    for text in mismatches[:20]:
        print(f"[{name}] MISMATCH {text}", file=sys.stderr)
    for o in outcomes:
        if o.error is not None:
            print(f"[{name}] ERROR {o.template}: {o.error}", file=sys.stderr)
    if not trace:
        metrics = end_to_end(
            workload, outcomes, setup_times, attempted, failed)
    # Run context, not a metric; taken after the peak-RSS reading.
    print(f"[{name}] host copy probe {layers.bandwidth_probe():.2f} GB/s",
          file=sys.stderr)
    return {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}/repro; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
