"""Smoke check: every workload at a tiny size, untraced and traced.

Asserts that each run passes its output checks and reports every metric
``BENCHMARK.json`` names (end-to-end untraced, per-layer traced).  Takes a
few seconds::

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import sys

from run import ROOT, import_program

#: Constructor arguments that shrink each workload to a few operations.
TINY = {
    "fleet-zipf": {"workstations": 2, "ops_per_client": 15},
    "shard-churn": {"prefixes": 200, "ops_per_client": 25},
    "udp-loopback": {"reads_per_client": 15},
}


def main() -> int:
    import_program()
    import layers
    from measure import MIN_ROUNDS, run_rounds, summarize
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {metric["name"] for metric in spec["end_to_end"]}
    per_layer = {metric["name"] for metric in spec["per_layer"]}
    problems = []
    for name, cls in WORKLOADS.items():
        summary = summarize(cls.kind,
                            run_rounds(cls(1, **TINY[name]), MIN_ROUNDS))
        problems += [f"{name}: {text}" for text in summary["problems"]]
        missing = end_to_end - set(summary["metrics"])
        if missing:
            problems.append(f"{name}: end-to-end metrics missing: "
                            f"{sorted(missing)}")
    for name, cls in WORKLOADS.items():
        summary, metrics = layers.traced_run(cls(1, **TINY[name]), 0)
        problems += [f"{name} traced: {text}" for text in summary["problems"]]
        missing = per_layer - set(metrics)
        if missing:
            problems.append(f"{name}: per-layer metrics missing: "
                            f"{sorted(missing)}")
    for problem in problems:
        print(f"SMOKE FAILED: {problem}")
    print("smoke: ok" if not problems else
          f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
