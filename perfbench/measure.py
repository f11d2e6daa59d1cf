"""Measuring rounds: the environment record, the round loop, the
end-to-end summary and its output checks."""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import time

#: Rounds every run makes at least, whatever ``--seconds`` says: one
#: discarded warm-up round plus two measured ones.
MIN_ROUNDS = 3

UNITS = {"ops_per_s": "1/s", "ok_share": "share", "latency_p50_ms": "ms",
         "latency_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def calibration_ms() -> float:
    """Time of a fixed pure-Python loop: the best of three, in ms."""
    best = float("inf")
    for __ in range(3):
        start = time.perf_counter()
        total = 0
        for index in range(200_000):
            total += index * index % 7
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def environment() -> dict:
    """Facts that decide whether two runs may be compared at all."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gc_enabled": gc.isenabled(),
        "gc_threshold": list(gc.get_threshold()),
        "calibration_loop_ms": calibration_ms(),
    }


def round_count(workload, budget_s: float, slowdown: float = 1.0,
                min_rounds: int = MIN_ROUNDS) -> int:
    """Rounds that fill ``budget_s`` at the workload's nominal round time
    (``round_s``, times ``slowdown`` for traced rounds), at least
    ``min_rounds``.  The count depends on nothing measured, so the same
    seed and budget always attempt the same operations."""
    return max(min_rounds, round(budget_s / (workload.round_s * slowdown)))


def run_rounds(workload, count: int, tracer=None) -> list:
    """``count`` rounds, each rebuilding the domain from the same inputs."""
    from workloads import run_round

    rounds = []
    for __ in range(count):
        gc.collect()
        rounds.append(run_round(workload, tracer))
    return rounds


def best_stretches(rounds: list) -> list:
    """For every stretch of operations, its fastest pass over ``rounds``.

    The host this runs on slows for seconds at a time; a stretch is short
    enough that some round runs each one at full speed.  On the DES
    workloads every round does exactly the same work in the same order.
    """
    return [min(passes, key=lambda stretch: stretch[0])
            for passes in zip(*(result.stretches for result in rounds))]


def fingerprint(result) -> tuple:
    """What must repeat exactly for one seed on the DES workloads."""
    return sorted(result.counts.items()), result.latencies, result.outcomes


def summarize(kind: str, rounds: list) -> dict:
    """End-to-end metrics over the measured rounds, plus every round's
    output-check problems and, on the DES workloads, the repeat check."""
    from workloads import CAUSES, percentile

    problems = []
    for number, result in enumerate(rounds):
        problems += [f"round {number}: {text}" for text in result.problems]
    if kind == "des":
        first = fingerprint(rounds[0])
        for number, result in enumerate(rounds[1:], start=1):
            if fingerprint(result) != first:
                problems.append(f"round {number}: simulated results differ "
                                "from round 0 for the same seed")
    measured = rounds[1:]  # round 0 warms interpreter caches
    best = best_stretches(measured)
    if kind == "des":
        latencies = rounds[0].latencies
    else:
        latencies = sorted(value for __, chunk in best for value in chunk)
    attempted = sum(result.attempted for result in measured)
    failed = sum(result.failed for result in measured)
    return {
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "failures": {cause: sum(result.failures[cause]
                                for result in measured)
                     for cause in CAUSES},
        "samples": len(latencies),
        "p99_ms": percentile(latencies, 0.99) * 1e3,
        "mean_ms": statistics.fmean(latencies) * 1e3,
        "rounds": len(measured),
        "metrics": {
            # One round's completed operations over the sum of its
            # stretches' fastest passes.
            "ops_per_s": (attempted - failed) / len(measured)
            / sum(seconds for seconds, __ in best),
            "ok_share": (attempted - failed) / attempted,
            "latency_p50_ms": percentile(latencies, 0.50) * 1e3,
            "latency_p90_ms": percentile(latencies, 0.90) * 1e3,
            "setup_s": statistics.median(result.setup_s
                                         for result in measured),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }
