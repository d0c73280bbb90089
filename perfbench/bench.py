"""The benchmark's closed loop, its traced run and its report.

Started through ``run.py``, which imports the package from the checkout
first; see that file for usage.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import gates
import host
from spans import Tracer, instance_counts, instance_times, traced_solve
from workloads import WORKLOADS, CallResult, Workload, make_instance, solve, solve_order

HERE = Path(__file__).resolve().parent
WORK = HERE.parent / ".perfbench_work"
EXPECTED = HERE / "expected.json"
# Set-up is repeated and its median taken, so set-up time is steady.
SETUP_REPEATS = 3

Solved = list[tuple[int, list[CallResult]]]  # (catalogue index, calls) per solve


def set_up(
    workload: Workload, work: Path
) -> tuple[dict, Solved, list[tuple[float, float]]]:
    """Write every catalogue instance and solve instance 0 once to warm up,
    SETUP_REPEATS times; return the instances, the warm-up solves and the
    raw and scaled seconds of each repeat.

    Every seed warms up on instance 0, so set-up time does not depend on
    which instance a seed happens to solve first.
    """
    warm: Solved = []
    seconds = []
    for _ in range(SETUP_REPEATS):
        with host.Timed() as timed:
            instances = {
                i: make_instance(workload, i, work / str(i))
                for i in range(workload.catalogue)
            }
        warm.append((0, solve(workload, instances[0])))
        calls = warm[-1][1]
        seconds.append(
            (
                timed.seconds + sum(c.seconds for c in calls),
                timed.scaled + sum(c.scaled_seconds for c in calls),
            )
        )
    return instances, warm, seconds


def faster_half_mean(times: list[float]) -> float:
    """Mean of the faster half of ``times``; the fastest one when there are
    fewer than four."""
    return statistics.fmean(sorted(times)[: max(1, len(times) // 2)])


def timed_run(
    workload: Workload, order: list[int], instances: dict, seconds: float
) -> tuple[dict, Solved]:
    """Solve the catalogue round after round until ``seconds`` have passed.

    Solve times are scaled to the reference host speed (see ``host.py``).
    Load from other tenants only ever slows a solve, and in the deepest slow
    stretches the scaling undercorrects, so an instance's time is the mean of
    the faster half of its scaled solves in the run; the medians and tails
    are taken over these per-instance times.
    """
    solved: Solved = []
    start = time.perf_counter()
    while len(solved) < len(order) or time.perf_counter() - start < seconds:
        index = order[len(solved) % len(order)]
        gc.collect()  # start each instance without garbage left by the last
        solved.append((index, solve(workload, instances[index])))
    # read before the correctness gate runs, so only the program's memory counts
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    raw: dict[int, list[float]] = {}
    scaled: dict[int, list[float]] = {}
    for index, calls in solved:
        raw.setdefault(index, []).append(sum(c.seconds for c in calls))
        scaled.setdefault(index, []).append(sum(c.scaled_seconds for c in calls))
    for index in sorted(raw):
        for kind, times in (("raw", raw), ("scaled", scaled)):
            solves = " ".join(f"{t:.4f}" for t in times[index])
            print(f"instance {index} solves, {kind} s: {solves}")
    per_instance = sorted(faster_half_mean(times) for times in scaled.values())
    metrics = {
        "solve_s_p50": (statistics.median(per_instance), "s"),
        # The catalogue is a handful of instances, too few for any percentile
        # above the median to have ten samples beyond it; the slowest
        # instance is the tail.
        "solve_s_tail": (per_instance[-1], "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, solved


def traced_run(
    workload: Workload,
    order: list[int],
    instances: dict,
    seconds: float,
    expected: dict,
    oracle: dict,
) -> tuple[dict, Solved]:
    """Solve each instance untraced and traced, alternating which goes first,
    until ``seconds`` have passed; return the per-layer metrics.

    Oracle counts computed under the ``oracle.counts`` span are stored in
    ``oracle``, so the gate does not compute them again.
    """
    tracer = Tracer()
    pairs = []  # (index, untraced calls, traced calls), position = span tag
    start = time.perf_counter()
    while not pairs or time.perf_counter() - start < seconds:
        tag = len(pairs)
        index = order[tag % len(order)]
        runs = {}
        for traced in (False, True) if tag % 2 == 0 else (True, False):
            gc.collect()
            if traced:
                runs[traced] = traced_solve(tracer, workload, instances[index], tag)
            else:
                runs[traced] = solve(workload, instances[index])
        if workload.oracle:
            tracer.instance = tag
            with tracer.span("oracle.counts"):
                oracle[index] = gates.oracle_counts(instances[index], workload.prime)
        pairs.append((index, runs[False], runs[True]))

    drift = 0
    times, counts = [], []
    for tag, (index, _, _) in enumerate(pairs):
        times.append(instance_times(tracer.spans, tag))
        counts.append(instance_counts(tracer.spans, tag))
        if counts[-1] != expected[str(index)]["counters"]:
            drift += 1
            print(f"counter drift on instance {index}: {counts[-1]}", file=sys.stderr)

    metrics = {key: (statistics.median(t[key] for t in times), "s") for key in times[0]}
    # Counters come from the run's first instance, so a seed repeats them exactly.
    for key, value in counts[0].items():
        if key.endswith("_yield"):
            metrics[key] = (value, "ratio")
        else:
            metrics[key] = (value, "bytes" if key.endswith("_bytes") else "count")
    untraced_s = [sum(c.scaled_seconds for c in u) for _, u, _ in pairs]
    traced_s = [sum(c.scaled_seconds for c in t) for _, _, t in pairs]
    metrics["trace.solve_untraced_s"] = (statistics.median(untraced_s), "s")
    metrics["trace.solve_traced_s"] = (statistics.median(traced_s), "s")
    overhead = [t - u for t, u in zip(traced_s, untraced_s)]
    metrics["trace.overhead_s"] = (statistics.median(overhead), "s")
    metrics["trace.instances"] = (len(pairs), "count")
    metrics["trace.counter_drift"] = (drift, "count")
    solved = [(index, calls) for index, u, t in pairs for calls in (u, t)]
    return metrics, solved


def main(argv: list[str], import_s: tuple[float, float]) -> int:
    parser = argparse.ArgumentParser(description="snvrips benchmark, one workload")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    expected = json.loads(EXPECTED.read_text()).get(workload.name, {})
    missing = [i for i in range(workload.catalogue) if str(i) not in expected]
    if missing:
        sys.exit(f"error: {EXPECTED.name} lacks {workload.name} {missing}; run record.py")

    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        instances, warm, setup_repeats = set_up(workload, work)
        gate = gates.Gate(workload, instances, expected)
        order = solve_order(workload, args.seed)
        if args.trace:
            metrics, solved = traced_run(
                workload, order, instances, args.seconds, expected, gate.oracle
            )
        else:
            metrics, solved = timed_run(workload, order, instances, args.seconds)
        for index, calls in warm + solved:
            gate.record(index, calls)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    setup_s = import_s[1] + statistics.median(t for _, t in setup_repeats)
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds}")
    for kind, k in (("raw", 0), ("scaled", 1)):
        repeats = " ".join(f"{t[k]:.4f}" for t in setup_repeats)
        print(f"setup, {kind} s: import {import_s[k]:.4f}, inputs and warm-up {repeats}")
    if not args.trace:
        metrics = {"setup_s": (setup_s, "s"), **metrics}
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    failed_frac = gate.failed / gate.attempted
    print(f"failed_frac {failed_frac:.6g} ({gate.failed} of {gate.attempted})")
    print(f"report_digest_changes {gate.digest_changes} count")
    print(
        json.dumps(
            {
                "correct": gate.failed == 0,
                "attempted": gate.attempted,
                "failed": gate.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0
