"""The traced run: per-layer metrics from spans and public counters.

Half of the time budget runs untraced rounds (the baseline the tracing
overhead is measured against), the other half traced rounds.  Every
``*.self_s`` is seconds per round; together with ``unattributed.self_s``
(the part of the timed phase no wrapped call covers) and
``trace.overhead_s`` (the tracer's own cost per span, measured and taken
out of the self times) they add up to ``trace.wall_s``, the traced wall
time of one round's timed phase.  Counts are per round too.  Where a
layer's hot call is private, its count comes from the program's own public
counters or snapshots.
"""

from __future__ import annotations

import os
from pathlib import Path

from measure import fingerprint, round_count, run_rounds, summarize
from tracing import LAYERS, Tracer, install

OUT = Path(__file__).resolve().parent / "out"

#: About how much slower a traced round is than an untraced one (1.5 to
#: 3.5 times over the three workloads); sizes the traced half of a run.
TRACED_SLOWDOWN = 3.0


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


def traced_run(workload, seconds: float) -> tuple[dict, dict]:
    untraced = run_rounds(workload, round_count(workload, seconds / 2))
    baseline = summarize(workload.kind, untraced)
    tracer = install()
    tracer.reset()
    traced = run_rounds(workload, round_count(
        workload, seconds / 2, TRACED_SLOWDOWN, min_rounds=2), tracer)
    summary = summarize(workload.kind, traced)
    summary["problems"] = baseline["problems"] + summary["problems"]
    if workload.kind == "des" and fingerprint(traced[0]) != fingerprint(
            untraced[0]):
        summary["problems"].append("tracing changed the simulated results")
    summary["attempted"] += baseline["attempted"]
    summary["failed"] += baseline["failed"]
    cpu_share = _ratio(sum(r.cpu_s for r in untraced[1:]),
                       sum(r.wall_s for r in untraced[1:]))
    metrics = layer_metrics(tracer, traced, cpu_share,
                            baseline["metrics"]["ops_per_s"],
                            summary["metrics"]["ops_per_s"])
    path = OUT / f"spans-{workload.name}.bin"
    tracer.write(str(path))
    report(workload.name, metrics, path)
    return summary, {name: {"value": value, "unit": unit_of(name)}
                     for name, value in metrics.items()}


def layer_metrics(tracer: Tracer, rounds: list, cpu_share: float,
                  untraced_ops: float, traced_ops: float) -> dict:
    count = len(rounds)
    self_s = tracer.layer_self_s()
    wall = sum(result.wall_s for result in rounds)

    def per_round(key: str) -> float:
        """A round counter: DES counts, workload snapshots, trace counts."""
        total = sum(result.counts.get(key, 0) + result.layer.get(key, 0)
                    for result in rounds)
        return (total + tracer.counts.get(key, 0)) / count

    def calls(name: str) -> float:
        return tracer.call_count(name) / count

    def us_per_call(name: str) -> float:
        return _ratio(tracer.inclusive_s(name), tracer.call_count(name), 1e6)

    ops = sum(result.attempted for result in rounds) / count
    events = per_round("events")
    txns = per_round("txns")
    frames = per_round("frames")
    probe_events = tracer.calls_where(
        lambda name: name.startswith("CoherenceProbe.")) / count
    metrics = {
        "sim.events": events,
        "sim.events_per_op": _ratio(events, ops),
        "sim.ns_per_event": _ratio(self_s["sim"] / count, events, 1e9),
        "kernel.txns": txns,
        "kernel.us_per_txn": _ratio(self_s["kernel"] / count, txns, 1e6),
        "kernel.retransmits": per_round("retransmits"),
        "kernel.timeouts": per_round("timeouts"),
        "ethernet.frames": frames,
        "ethernet.bytes": per_round("frame_bytes"),
        "ethernet.us_per_frame": _ratio(self_s["ethernet"] / count, frames,
                                        1e6),
        "wire.encodes": calls("wire.encode_packet"),
        "wire.decodes": calls("wire.decode_packet"),
        "wire.bytes": per_round("wire.bytes"),
        "wire.us_per_encode": us_per_call("wire.encode_packet"),
        "wire.us_per_decode": us_per_call("wire.decode_packet"),
        "wire.decode_errors": per_round("wire.decode_errors"),
        "transport.datagrams": calls("datagram_received"),
        "transport.cpu_share": cpu_share,
        "csnh.dispatches": per_round("csnh.dispatches"),
        "csnh.forwards": per_round("effects.forward"),
        "csnh.us_per_dispatch": us_per_call("CSNHServer.dispatch"),
        "mapping.calls": calls("map_name"),
        "mapping.components": per_round("mapping.components"),
        "mapping.us_per_call": us_per_call("map_name"),
        "namecache.lookups": per_round("namecache.lookups"),
        "namecache.hit_ratio": _ratio(per_round("namecache.useful_hits"),
                                      per_round("namecache.lookups")),
        "namecache.us_per_get": us_per_call("BindingCache.get"),
        "namecache.invalidations": per_round("namecache.invalidations"),
        "resolver.requests": per_round("resolver.requests"),
        "resolver.reresolves": per_round("resolver.reresolves"),
        "shard.owner_of_calls": calls("ShardMap.owner_of"),
        "shard.us_per_owner_of": us_per_call("ShardMap.owner_of"),
        "shard.hit_ratio": _ratio(per_round("shard.useful_hits"),
                                  per_round("shard.lookups")),
        "shard.fallbacks": per_round("shard.fallbacks"),
        "shard.negative_hits": per_round("shard.negative_hits"),
        "shard.redirects": per_round("shard.redirects"),
        "shard.lease_refusals": per_round("shard.lease_refusals"),
        "shard.notices": per_round("shard.notices"),
        "fileserver.requests": per_round("fileserver.requests"),
        "prefix.lookups": per_round("prefix.lookups"),
        "obs.txns_observed": calls("TelemetryCollector.observe_txn"),
        "obs.flight_records": per_round("obs.flight_records"),
        "obs.probe_events": probe_events,
    }
    overhead = tracer.overhead_ns / 1e9
    attributed = overhead
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer] / count
        attributed += self_s[layer]
    # The root phase span's self time plus the phase's own edges.
    metrics["unattributed.self_s"] = (wall - attributed) / count
    metrics["trace.overhead_s"] = overhead / count
    metrics["trace.wall_s"] = wall / count
    metrics["trace.spans"] = len(tracer.span_start) + tracer.spans_dropped
    metrics["trace.untraced_ops_per_s"] = untraced_ops
    metrics["trace.traced_ops_per_s"] = traced_ops
    metrics["trace.slowdown"] = _ratio(untraced_ops, traced_ops)
    return metrics


def report(name: str, metrics: dict, path: Path) -> None:
    wall = metrics["trace.wall_s"]
    print(f"{name}: traced rounds, {wall:.4f} s traced wall per round "
          f"({metrics['trace.slowdown']:.2f}x slower than untraced)")
    print("  self time per layer (share of traced wall):")
    rows = [(layer, f"{layer}.self_s") for layer in LAYERS] + [
        ("unattributed", "unattributed.self_s"),
        ("tracer", "trace.overhead_s")]
    for label, key in rows:
        value = metrics[key]
        print(f"    {label:<13}{value:10.6f} s  {_ratio(value, wall, 100):6.2f}%")
    added = wall - _ratio(wall, metrics["trace.slowdown"])
    print(f"  tracing added about {added:.4f} s per round; the measured "
          f"tracer cost takes {metrics['trace.overhead_s']:.4f} s of it out "
          "of the self times, the rest stays in them")
    untraced_share = _ratio(metrics["sim.self_s"] + metrics["kernel.self_s"],
                            wall - metrics["trace.overhead_s"], 100)
    print(f"  sim+kernel share of self time without the tracer: "
          f"{untraced_share:.2f}% (the most a saving in sim.ns_per_event or "
          "kernel.us_per_txn can buy)")
    print(f"  transport.cpu_share (untraced): {metrics['transport.cpu_share']:.4f}"
          " (caps what CPU saved in the wire codec can buy on udp-loopback)")
    for key in sorted(metrics):
        if not key.endswith(".self_s"):
            print(f"  {key:<28}{metrics[key]:.6f} {unit_of(key)}")
    print(f"  spans written to {os.path.relpath(path)}")


def unit_of(name: str) -> str:
    metric = name.split(".", 1)[1]
    if metric.endswith("ops_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.startswith(("us_per_", "ns_per_")):
        return metric[:2]
    if metric in ("hit_ratio", "cpu_share", "slowdown"):
        return "ratio"
    if metric == "events_per_op":
        return "events/op"
    if metric == "bytes":
        return "bytes"
    return "count"
