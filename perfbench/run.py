"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload fleet-zipf --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` spends half
the time on untraced rounds and half on traced ones and reports the
per-layer metrics (see README.md in this directory).  Human-readable lines
come first; the last line of standard output is the JSON result.  The
exit code is 1 when an output check failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from measure import UNITS, environment, round_count, run_rounds, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and import ``repro``
    from it; exit non-zero when the checkout holds no program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'repro'}; run from a "
                 "full checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


def report_end_to_end(name: str, kind: str, summary: dict) -> dict:
    """Print every end-to-end metric by name and unit; return the JSON ones.

    Per-operation latency is simulated time on the DES workloads (the
    ``sim_*`` metrics) and wall time on udp-loopback (``wall_*``); the JSON
    result carries it as ``latency_p50_ms`` and ``latency_p90_ms``.
    """
    metrics = summary["metrics"]
    clock = "sim" if kind == "des" else "wall"
    samples = f"({summary['samples']} samples)"
    lines = [
        f"{name}: {summary['rounds']} measured rounds, "
        f"{summary['attempted']} operations attempted, "
        f"{summary['failed']} failed",
        f"  ops_per_s       {metrics['ops_per_s']:.6f} 1/s",
        f"  fail_share      {1.0 - metrics['ok_share']:.6f} share "
        f"(ok_share {metrics['ok_share']:.6f})",
        f"  {clock}_p50_ms     {metrics['latency_p50_ms']:.6f} ms {samples}",
        f"  {clock}_p90_ms     {metrics['latency_p90_ms']:.6f} ms {samples}",
        f"  {clock}_p99_ms     {summary['p99_ms']:.6f} ms {samples}",
        f"  {clock}_mean_ms    {summary['mean_ms']:.6f} ms {samples}",
        f"  setup_s         {metrics['setup_s']:.6f} s",
        f"  peak_rss_mb     {metrics['peak_rss_mb']:.3f} MB",
        "  failures by cause: " + ", ".join(
            f"{cause}={count}" for cause, count in
            summary["failures"].items()),
    ]
    print("\n".join(lines))
    return {key: {"value": value, "unit": UNITS[key]}
            for key, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    workload = cls(args.seed)
    if cls.kind == "udp":
        print(f"{cls.name}: real UDP datagrams on the loopback interface "
              "(127.0.0.1) through asyncio")

    if not args.trace:
        rounds = run_rounds(workload, round_count(workload, args.seconds))
        summary = summarize(cls.kind, rounds)
        metrics = report_end_to_end(cls.name, cls.kind, summary)
    else:
        import layers

        summary, metrics = layers.traced_run(workload, args.seconds)
    for problem in summary["problems"]:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not summary["problems"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 1 if summary["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
