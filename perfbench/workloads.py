"""The three benchmark workloads.

Each workload is a class with a ``setup`` phase (domain build, population,
cache warm-up; timed as ``setup_s``) and a ``run`` phase (the timed
operations).  Inputs -- name trees, payload bytes, traces, crash times --
are pure functions of the seed, so the same seed replays the same
operations.  Every operation's outcome is kept and checked after the timed
phase (:meth:`Round.finish`); nothing is asserted inside the timed loop.
``round_s`` is a workload's nominal wall time of one round (set-up, timed
phase and checks) on a 2-vCPU Xeon KVM guest; it fixes how many rounds a
run makes (``measure.round_count``).

``tracer`` is the span recorder of :mod:`tracing`, or None in untraced
runs; the workloads only open its timed phase, around the engine or
event-loop run.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import itertools
import math
import random
import time
from collections import Counter

from repro.core.context import ContextPair, WellKnownContext
from repro.core.resolver import NameError_
from repro.kernel.domain import Domain
from repro.kernel.ipc import Delay, Now
from repro.kernel.messages import ReplyCode
from repro.net.latency import STANDARD_3MBIT
from repro.runtime import files
from repro.runtime.session import Session
from repro.runtime.workstation import setup_workstation, standard_prefixes
from repro.servers.base import start_server
from repro.servers.fileserver.server import VFileServer
from repro.vio.client import IoError
from repro.workloads.namegen import NameTreeSpec, populate_fileserver
from repro.workloads.traces import Operation, zipf_trace

READ, QUERY, WRITE, MISSING, REBIND = "read", "query", "write", "missing", "rebind"

#: Failure causes, in report order.  ``wrong_payload`` is also a failed
#: output check; the others are operations that did not complete.
CAUSES = ("timeout", "not_found", "io_error", "name_error", "wrong_payload")

ROOT_CONTEXT = int(WellKnownContext.DEFAULT)

#: Concurrent closed-loop clients per shard-churn cluster and on
#: udp-loopback.
CLIENTS = 2

#: Operations per stretch: the unit in which the rounds of a run are
#: compared (see ``measure.best_stretches``).
STRETCH = 100


def make_payloads(rng: random.Random, ranked: list[str], large_every: int,
                  small: tuple[int, int], large: tuple[int, int]) -> dict:
    """Seeded contents for ``ranked`` paths (most popular first).

    Sizes are a fixed function of popularity rank -- every
    ``large_every``-th file is large, the rest small -- so that seeds vary
    names, bytes and traces but not how much data the hot files hold.
    """
    payloads = {}
    for rank, path in enumerate(ranked):
        low, high = large if rank % large_every == large_every - 1 else small
        size = low + rank * 7919 % (high - low + 1)
        payloads[path] = rng.randbytes(size)
    return payloads


def install(server: VFileServer, payloads: dict) -> None:
    """Write the generated contents straight into a file server's store."""
    for path, data in payloads.items():
        server.store.make_path(path, directory=False).data[:] = data


def failure_cause(exc: BaseException) -> str:
    code = getattr(exc, "code", None)
    if code is ReplyCode.TIMEOUT:
        return "timeout"
    if isinstance(exc, IoError):
        return "io_error"
    if code is ReplyCode.NOT_FOUND:
        return "not_found"
    return "name_error"


def percentile(ordered: list, fraction: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty list."""
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


@dataclasses.dataclass
class Round:
    """One setup + timed phase, with every operation's outcome."""

    workload: str
    setup_s: float = 0.0
    wall_s: float = 0.0
    #: Process CPU seconds spent in the timed phase.
    cpu_s: float = 0.0
    #: (kind, name, expected, outcome, latency seconds, wall clock at
    #: completion) per operation; ``outcome`` is the read bytes / queried
    #: size, or ``("fail", cause)``.  Emptied by :meth:`finish` once the
    #: outputs are checked.
    records: list = dataclasses.field(default_factory=list)
    #: (wall seconds, latencies) of every stretch of STRETCH operations in
    #: completion order; a phase's last stretch runs to the phase's end.
    stretches: list = dataclasses.field(default_factory=list)
    #: Output-check problems.
    problems: list = dataclasses.field(default_factory=list)
    #: Deterministic counts (events, transactions...) for the repeat check.
    counts: dict = dataclasses.field(default_factory=dict)
    #: Public counters and snapshots for the per-layer report.
    layer: dict = dataclasses.field(default_factory=dict)
    attempted: int = 0
    failures: Counter = dataclasses.field(default_factory=Counter)
    #: Per-operation latencies in seconds, sorted.
    latencies: list = dataclasses.field(default_factory=list)
    #: Per-operation failure cause or None, in completion order.
    outcomes: tuple = ()

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def finish(self) -> None:
        """Check every outcome against the generated inputs, classify
        failures by cause, and drop the records (read bytes included)."""
        causes = []
        for kind, name, expected, outcome, *__ in self.records:
            cause = outcome[1] if (isinstance(outcome, tuple)
                                   and outcome[:1] == ("fail",)) else None
            if kind == MISSING:
                # A missing name must never resolve, and the only
                # authoritative answer for it is NOT_FOUND (which counts as
                # a correct answer).  A path failure is a failed operation.
                if cause is None:
                    self.problems.append(f"missing name {name} resolved")
                elif cause == "not_found":
                    cause = None
                elif cause != "timeout":
                    self.problems.append(f"missing name {name} failed with "
                                         f"{cause}, not NOT_FOUND")
            elif cause is None and expected is not None \
                    and outcome != expected:
                cause = "wrong_payload"
                self.problems.append(f"{kind} {name}: output differs from "
                                     "the generated payload")
            if cause is not None:
                self.failures[cause] += 1
            causes.append(cause)
        self.attempted = len(self.records)
        self.outcomes = tuple(causes)
        self.latencies = sorted(record[4] for record in self.records)
        self.records = []


@contextlib.contextmanager
def timed_phase(tracer, result: Round):
    """Time the run phase in wall and CPU seconds (and trace it), and cut
    the phase into stretches of STRETCH completed operations."""
    first = len(result.records)
    wall, cpu = time.perf_counter(), time.process_time()
    with tracer.phase() if tracer is not None else contextlib.nullcontext():
        yield
    end = time.perf_counter()
    result.wall_s += end - wall
    result.cpu_s += time.process_time() - cpu
    records = result.records[first:]
    edges = [wall] + [record[5] for record in
                      records[STRETCH - 1:-1:STRETCH]] + [end]
    for number, (start, stop) in enumerate(zip(edges, edges[1:])):
        chunk = records[number * STRETCH:(number + 1) * STRETCH]
        result.stretches.append((stop - start,
                                 [record[4] for record in chunk]))


def des_client(session: Session, ops: list, records: list, think: float = 0.0):
    """A closed-loop client: one operation at a time, outcome recorded."""
    for kind, name, expected, extra in ops:
        start = yield Now()
        try:
            if kind == READ or kind == MISSING:
                outcome = yield from files.read_file(session, name)
            elif kind == QUERY:
                record = yield from session.query(name)
                outcome = int(record.size_bytes)
            elif kind == WRITE:
                yield from files.write_file(session, name, extra)
                outcome = None
            else:  # REBIND
                yield from session.add_prefix(name, extra, replace=True)
                outcome = None
        except (NameError_, IoError) as exc:
            outcome = ("fail", failure_cause(exc))
        end = yield Now()
        records.append((kind, name, expected, outcome, end - start,
                        time.perf_counter()))
        if think:
            yield Delay(think)


def des_counts(domain: Domain) -> dict:
    metrics = domain.metrics
    return {
        "events": domain.engine.events_processed,
        "sim_now": domain.now,
        "txns": metrics.count("ipc.transactions"),
        "retransmits": metrics.count("ipc.retransmits"),
        "timeouts": metrics.count("ipc.send_timeouts"),
        "frames": metrics.count("net.frames"),
        "frame_bytes": metrics.count("net.bytes"),
    }


def add_counts(total: dict, after: dict, before: dict | None = None) -> None:
    """Add ``after`` (minus ``before``) into ``total``, key by key."""
    for key, value in after.items():
        total[key] = total.get(key, 0) + value - (before or {}).get(key, 0)


# ------------------------------------------------------------- fleet-zipf


class FleetZipf:
    """DES fleet, instruments detached: the paper's configuration.

    Workstations with a prefix server and an enabled NameCache each, two
    remote file servers holding the same generated tree, and one client
    per workstation replaying a Zipf(1.1) trace over ``[a]`` and ``[b]``
    (fixed prefixes, one per server) and ``[storage]`` (generic: GetPid).
    Writes go to per-workstation files nobody else reads, so every read of
    the shared tree has exactly one right answer.
    """

    name = "fleet-zipf"
    kind = "des"
    round_s = 1.4

    def __init__(self, seed: int, workstations: int = 8,
                 ops_per_client: int = 450) -> None:
        self.seed = seed
        self.workstations = workstations
        self.ops_per_client = ops_per_client
        rng = random.Random(f"fleet-zipf:{seed}")
        spec = NameTreeSpec(depth=2, fanout=4, files_per_directory=6,
                            file_bytes=1)
        probe = VFileServer(user="probe")
        popular = populate_fileserver(probe, spec, root="data")
        rng.shuffle(popular)
        self.payloads = make_payloads(rng, popular, 4, (16, 256),
                                      (1024, 4096))
        self.traces = []
        for index in range(workstations):
            trace = zipf_trace(popular, ops_per_client,
                               seed=rng.randrange(1 << 30), skew=1.1,
                               read_fraction=0.85, query_fraction=0.07)
            ops = []
            for op, path in trace:
                prefix = rng.choice(("a", "a", "b", "b", "storage"))
                if op is Operation.OPEN_READ:
                    ops.append((READ, f"[{prefix}]{path}",
                                self.payloads[path], None))
                elif op is Operation.QUERY:
                    ops.append((QUERY, f"[{prefix}]{path}",
                                len(self.payloads[path]), None))
                else:
                    server = rng.choice(("a", "b"))
                    target = f"private/ws{index}/w{rng.randrange(6)}.dat"
                    data = rng.randbytes(rng.randint(64, 2048))
                    ops.append((WRITE, f"[{server}]{target}", None, data))
            self.traces.append(ops)

    def setup(self) -> None:
        domain = self.domain = Domain(seed=self.seed)
        self.servers = []
        handles = []
        for number in (1, 2):
            server = VFileServer(user="bench")
            install(server, self.payloads)
            for index in range(self.workstations):
                server.store.make_path(f"private/ws{index}")
            handles.append(start_server(domain.create_host(f"fs{number}"),
                                        server))
            self.servers.append(server)
        self.stations = []
        for index in range(self.workstations):
            ws = setup_workstation(domain, f"u{index}", name=f"ws{index}")
            standard_prefixes(ws, handles[0])
            for prefix, handle in zip(("a", "b"), handles):
                ws.prefix_server.define_prefix(
                    prefix, ContextPair(handle.pid, ROOT_CONTEXT))
            ws.enable_name_cache()
            self.stations.append(ws)
        # Cache warm-up: every workstation resolves each prefix once.
        warm = next(iter(self.payloads))
        for ws in self.stations:
            ops = [(READ, f"[{prefix}]{warm}", None, None)
                   for prefix in ("a", "b", "storage")]
            ws.host.spawn(des_client(ws.session(), ops, []), name="warmup")
        domain.run()
        domain.check_healthy()

    def run(self, tracer, result: Round) -> None:
        domain = self.domain
        before = des_counts(domain)
        for ws, ops in zip(self.stations, self.traces):
            ws.host.spawn(des_client(ws.session(), ops, result.records),
                          name="client")
        with timed_phase(tracer, result):
            domain.run()
        domain.check_healthy()
        add_counts(result.counts, des_counts(domain), before)

    def verify(self, result: Round) -> None:
        """Writes landed: each private file holds its last written bytes."""
        last = {}
        for ops in self.traces:
            for kind, name, __, data in ops:
                if kind == WRITE:
                    last[name] = data
        outcomes = {record[1]: record[3] for record in result.records
                    if record[0] == WRITE}
        servers = dict(zip(("a", "b"), self.servers))
        for name, data in last.items():
            if outcomes.get(name) is not None:
                continue  # a failed last write has no defined content
            prefix, path = name[1:].split("]", 1)
            node = servers[prefix].store.resolve_path(path)
            if node is None or bytes(node.data) != data:
                result.problems.append(f"write {name}: stored bytes differ")
        add_counts(result.layer, namecache_counts(
            [ws.name_cache for ws in self.stations]))

    def teardown(self) -> None:
        self.domain = self.servers = self.stations = None


def namecache_counts(caches: list) -> dict:
    lookups = sum(cache.stats.lookups for cache in caches)
    useful = sum(max(0, cache.stats.hits - cache.stats.fallbacks)
                 for cache in caches)
    return {
        "namecache.lookups": lookups,
        "namecache.useful_hits": useful,
        "namecache.invalidations": sum(cache.stats.invalidations
                                       for cache in caches),
    }


# ------------------------------------------------------------ shard-churn


#: Independent clusters pooled per shard-churn round, and replicas in each.
SCENARIOS = 3
REPLICAS = 4


class ShardChurn:
    """DES sharded prefix service under reads, rebinds and a replica crash,
    with telemetry, the flight recorder and the coherence probe attached.

    One crash is a single, chaotic event: how many operations it hits
    depends on which prefixes the dead replica owns.  A round therefore
    runs ``SCENARIOS`` independent clusters, each with its own derived
    seed, one after the other, and pools their operations.
    """

    name = "shard-churn"
    kind = "des"
    round_s = 2.6

    def __init__(self, seed: int, **sizes) -> None:
        self.seed = seed
        self.scenarios = [ShardScenario(seed * 1000 + number, **sizes)
                          for number in range(SCENARIOS)]

    def setup(self) -> None:
        pass  # each scenario is set up inside run(), timed as setup

    def run(self, tracer, result: Round) -> None:
        for scenario in self.scenarios:
            start = time.perf_counter()
            scenario.setup()
            result.setup_s += time.perf_counter() - start
            try:
                scenario.run(tracer, result)
                scenario.verify(result)
            finally:
                scenario.teardown()

    def verify(self, result: Round) -> None:
        pass

    def teardown(self) -> None:
        pass


class ShardScenario:
    """One shard-churn cluster: 4 replicas over 10^4 seeded prefixes, two
    clients with their own ShardResolver, and one replica (the owner of
    the hottest prefix) crashing and restarting under their traffic."""

    def __init__(self, seed: int, prefixes: int = 10_000,
                 ops_per_client: int = 300) -> None:
        self.seed = seed
        rng = random.Random(f"shard-churn:{seed}")
        self.files = [f"data/f{index}.dat" for index in range(16)]
        self.payloads = make_payloads(rng, self.files, 4, (16, 256),
                                      (1024, 2048))
        #: Each prefix starts bound to file server 0 or 1 (same contents).
        self.initial = [rng.randrange(2) for __ in range(prefixes)]
        order = list(range(prefixes))
        rng.shuffle(order)
        #: The hottest prefix: its owner is the replica that crashes.
        self.hottest = f"p{order[0]}"
        popularity = list(itertools.accumulate(
            1.0 / rank ** 1.1 for rank in range(1, prefixes + 1)))
        self.traces = []
        for __ in range(CLIENTS):
            ops = []
            for prefix in rng.choices(order, cum_weights=popularity,
                                      k=ops_per_client):
                path = rng.choice(self.files)
                draw = rng.random()
                if draw < 0.75:
                    ops.append((READ, f"[p{prefix}]{path}",
                                self.payloads[path], None))
                elif draw < 0.81:
                    ops.append((MISSING, f"[m{prefix}]{path}", None, None))
                elif draw < 0.85:
                    ops.append((MISSING, f"[p{prefix}]data/none.dat",
                                None, None))
                else:
                    ops.append((REBIND, f"p{prefix}", None, rng.randrange(2)))
            self.traces.append(ops)

    def setup(self) -> None:
        from repro.core.shard import ShardCluster
        from repro.faults.chaos import ChaosSchedule
        from repro.obs.audit import enable_coherence
        from repro.obs.flight import enable_flight_recorder
        from repro.obs.telemetry import coherence_watchdogs, default_watchdogs

        domain = self.domain = Domain(seed=self.seed)
        self.flight = enable_flight_recorder(domain)
        enable_coherence(domain)
        self.pairs = []
        for number in (1, 2):
            server = VFileServer(user="bench")
            install(server, self.payloads)
            handle = start_server(domain.create_host(f"fs{number}"), server)
            self.pairs.append(ContextPair(handle.pid, ROOT_CONTEXT))
        hosts = domain.create_hosts(REPLICAS, prefix="ns")
        cluster = self.cluster = ShardCluster(domain, hosts, lease_ttl=0.8)
        for index, which in enumerate(self.initial):
            cluster.seed_binding(f"p{index}", self.pairs[which])
        self.sessions = []
        self.resolvers = []
        for number in range(CLIENTS):
            host = domain.create_host(f"client{number}")
            resolver = cluster.resolver(host=host)
            session = Session(current=self.pairs[0],
                              prefix_server=cluster.primary_pid(),
                              latency=domain.latency, cache=resolver)
            session.env.retry_budget = 4
            self.sessions.append((host, session))
            self.resolvers.append(resolver)
        domain.enable_telemetry(
            interval=0.1, rules=default_watchdogs() + coherence_watchdogs())
        # Warm-up: each client makes the first 20 reads of its trace.
        for (host, session), ops in zip(self.sessions, self.traces):
            warm = [op for op in ops if op[0] == READ][:20]
            host.spawn(des_client(session, warm, []), name="warmup")
        domain.run()
        domain.check_healthy()
        start = domain.now + 1.0
        ChaosSchedule(domain).crash_between(
            hosts[cluster.map.owner_of(self.hottest.encode())], start,
            start + 1.0)

    def run(self, tracer, result: Round) -> None:
        domain = self.domain
        before = des_counts(domain)
        for (host, session), ops in zip(self.sessions, self.traces):
            ops = [(kind, name, expected,
                    self.pairs[extra] if kind == REBIND else extra)
                   for kind, name, expected, extra in ops]
            host.spawn(des_client(session, ops, result.records, think=0.005),
                       name="client")
        with timed_phase(tracer, result):
            domain.run()
        domain.check_healthy()
        add_counts(result.counts, des_counts(domain), before)

    def verify(self, result: Round) -> None:
        from repro.faults.chaos import check_lease_coherence
        from repro.obs.audit import audit_direct

        result.problems.extend(check_lease_coherence(self.cluster))
        audit = audit_direct(self.domain)
        for finding in audit["findings"]["incoherent"]:
            result.problems.append(
                f"coherence audit: {finding['tier']} entry on "
                f"{finding['host']} is incoherent")
        stats = [resolver.stats for resolver in self.resolvers]
        replicas = [server.snapshot_shard()
                    for server in self.cluster.all_servers()]
        add_counts(result.layer, {
            "shard.lookups": sum(s.lookups for s in stats),
            "shard.useful_hits": sum(max(0, s.hits - s.fallbacks)
                                     for s in stats),
            "shard.fallbacks": sum(s.fallbacks for s in stats),
            "shard.negative_hits": sum(r.negative_hits
                                       for r in self.resolvers),
            "shard.redirects": sum(r.redirects_followed
                                   for r in self.resolvers),
            "shard.lease_refusals": sum(r["lease_refusals"]
                                        for r in replicas),
            "shard.notices": sum(r["syncs_seen"] + r["invalidations_seen"]
                                 for r in replicas),
            "obs.flight_records": sum(
                self.flight.stats(host)["records_seen"]
                for host in self.flight.hosts()),
        })
        add_counts(result.counts, {
            "audit_incoherent": len(audit["findings"]["incoherent"])})

    def teardown(self) -> None:
        self.domain = self.cluster = self.sessions = self.resolvers = None
        self.flight = None


# ----------------------------------------------------------- udp-loopback

#: The real-socket run charges no simulated CPU: the client stub's
#: calibrated 1984 costs would otherwise become asyncio.sleep calls and the
#: latency would measure the event loop's timer granularity, not the stack.
NO_SIMULATED_COST = dataclasses.replace(STANDARD_3MBIT, stub_pre=0.0,
                                        stub_post=0.0)


class UdpLoopback:
    """Real asyncio UDP on 127.0.0.1: a workstation prefix server, two file
    servers, and closed-loop uncached clients reading Zipf-popular files
    through ``[a]``/``[b]`` forwarding.
    """

    name = "udp-loopback"
    kind = "udp"
    round_s = 0.9

    def __init__(self, seed: int, reads_per_client: int = 400) -> None:
        self.seed = seed
        rng = random.Random(f"udp-loopback:{seed}")
        spec = NameTreeSpec(depth=1, fanout=3, files_per_directory=5,
                            file_bytes=1)
        popular = populate_fileserver(VFileServer(user="probe"), spec,
                                      root="data")
        rng.shuffle(popular)
        # Large files all hold 3-4 KB, so the p90 falls inside one size
        # class instead of moving with each seed's mix of large files.
        self.payloads = make_payloads(rng, popular, 3, (16, 256),
                                      (3072, 4096))
        self.traces = []
        for __ in range(CLIENTS):
            trace = zipf_trace(popular, reads_per_client,
                               seed=rng.randrange(1 << 30), skew=1.1,
                               read_fraction=1.0, query_fraction=0.0)
            self.traces.append([
                (READ, f"[{rng.choice('ab')}]{path}", self.payloads[path],
                 None) for __, path in trace])

    def setup(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._setup())

    async def _setup(self) -> None:
        from repro.core.prefix_server import ContextPrefixServer
        from repro.net.asyncio_transport import AsyncDomain

        domain = self.domain = AsyncDomain()
        ws = self.ws = await domain.create_host("ws")
        servers = []
        for number in (1, 2):
            host = await domain.create_host(f"fs{number}")
            server = VFileServer(user="bench")
            install(server, self.payloads)
            host.spawn(server.body(), "fileserver")
            servers.append(server)
        prefix = ContextPrefixServer(user="bench")
        self.prefix_pid = ws.spawn(prefix.body(), "prefix")
        while prefix.pid is None or any(s.pid is None for s in servers):
            await asyncio.sleep(0)
        for name, server in zip("ab", servers):
            prefix.define_prefix(name, ContextPair(server.pid, ROOT_CONTEXT))
        self.home = ContextPair(servers[0].pid, ROOT_CONTEXT)
        # Warm-up: one read through each prefix.
        warm = next(iter(self.payloads))
        await self._clients([[(READ, f"[{p}]{warm}", None, None)
                              for p in "ab"]], [])

    async def _clients(self, traces: list, records: list) -> None:
        done = [asyncio.Event() for __ in traces]

        def client(ops, event):
            session = Session(current=self.home,
                              prefix_server=self.prefix_pid,
                              latency=NO_SIMULATED_COST)
            for kind, name, expected, __ in ops:
                start = time.perf_counter()
                try:
                    outcome = yield from files.read_file(session, name)
                except (NameError_, IoError) as exc:
                    outcome = ("fail", failure_cause(exc))
                end = time.perf_counter()
                records.append((kind, name, expected, outcome, end - start,
                                end))
            event.set()

        for number, (ops, event) in enumerate(zip(traces, done)):
            self.ws.spawn(client(ops, event), f"client{number}")
        await asyncio.wait_for(asyncio.gather(*(e.wait() for e in done)),
                               timeout=120)

    def run(self, tracer, result: Round) -> None:
        with timed_phase(tracer, result):
            self.loop.run_until_complete(
                self._clients(self.traces, result.records))
        self.domain.check_healthy()

    def verify(self, result: Round) -> None:
        pass

    def teardown(self) -> None:
        if getattr(self, "loop", None) is None:
            return
        self.loop.run_until_complete(self.domain.shutdown())
        self.loop.close()
        self.loop = self.domain = self.ws = None


WORKLOADS = {cls.name: cls for cls in (FleetZipf, ShardChurn, UdpLoopback)}


def run_round(workload, tracer=None) -> Round:
    """Set up, run and verify one round of ``workload``."""
    result = Round(workload=workload.name)
    start = time.perf_counter()
    workload.setup()
    result.setup_s = time.perf_counter() - start
    try:
        workload.run(tracer, result)
        workload.verify(result)
    finally:
        workload.teardown()
    result.finish()
    return result
