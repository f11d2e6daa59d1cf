"""Tests for sharded replicated prefix serving (repro.core.shard)."""

import json

import pytest

from repro.core.context import ContextPair, WellKnownContext
from repro.core.resolver import NameError_
from repro.core.shard import (
    DEFAULT_VNODES,
    PULL_PAGE_BYTES,
    ShardCluster,
    ShardMap,
    ShardReplicaServer,
)
from repro.faults.partition import partition_between
from repro.kernel.domain import Domain
from repro.kernel.ipc import Delay
from repro.kernel.messages import PacketKind, ReplyCode
from repro.runtime import files
from repro.runtime.session import Session
from repro.servers import VFileServer, start_server
from tests.helpers import run_on

PAYLOAD = b"shard-payload"


# ---------------------------------------------------------------- the map


class TestShardMap:
    def map_of(self, n, vnodes=DEFAULT_VNODES):
        return ShardMap(version=1,
                        replicas=tuple((rid, 100 + rid) for rid in range(n)),
                        vnodes=vnodes)

    def test_owner_is_deterministic(self):
        # crc32, never the salted builtin hash: two maps built separately
        # must agree on every assignment.
        a, b = self.map_of(5), self.map_of(5)
        for index in range(500):
            prefix = b"p%d" % index
            assert a.owner_of(prefix) == b.owner_of(prefix)

    def test_ownership_spreads_over_replicas(self):
        shard_map = self.map_of(4, vnodes=64)
        counts = shard_map.assignment_counts(
            [b"p%d" % index for index in range(4000)])
        assert set(counts) == {0, 1, 2, 3}
        assert min(counts.values()) > 0
        assert max(counts.values()) / min(counts.values()) < 2.5

    def test_dropping_a_replica_moves_only_its_own_share(self):
        shard_map = self.map_of(4, vnodes=64)
        prefixes = [b"p%d" % index for index in range(4000)]
        dropped = shard_map.without(2)
        moved = [prefix for prefix in prefixes
                 if shard_map.owner_of(prefix) != dropped.owner_of(prefix)]
        # Exactly the prefixes replica 2 owned move, nothing else.
        assert all(shard_map.owner_of(prefix) == 2 for prefix in moved)
        assert 0 < len(moved) / len(prefixes) < 0.5

    def test_replicas_for_starts_at_the_owner(self):
        shard_map = self.map_of(3)
        for index in range(50):
            prefix = b"p%d" % index
            order = shard_map.replicas_for(prefix)
            assert order[0] == shard_map.owner_of(prefix)
            assert sorted(order) == [0, 1, 2]

    def test_membership_changes_bump_the_version(self):
        shard_map = self.map_of(3)
        assert shard_map.without(0).version == 2
        assert shard_map.with_replica(7, 999).version == 2
        assert shard_map.pid_of(1).value == 101
        assert shard_map.without(1).pid_of(1) is None

    def test_wire_codec_round_trips(self):
        shard_map = self.map_of(3, vnodes=32)
        assert ShardMap.decode(shard_map.encode()) == shard_map

    def test_empty_map_has_no_owners(self):
        empty = ShardMap(version=1, replicas=())
        with pytest.raises(ValueError):
            empty.owner_of(b"p")
        assert empty.replicas_for(b"p") == []


# ---------------------------------------------------------- cluster fixture


def sharded_system(n_replicas=3, lease_ttl=0.5, seed=3):
    domain = Domain(seed=seed)
    fs_host = domain.create_host("vax1")
    fileserver = VFileServer(user="mann")
    node = fileserver.store.make_path("data/f0.dat", directory=False)
    node.data[:] = PAYLOAD
    fs_handle = start_server(fs_host, fileserver)
    pair = ContextPair(fs_handle.pid, int(WellKnownContext.DEFAULT))
    hosts = domain.create_hosts(n_replicas, prefix="ns")
    cluster = ShardCluster(domain, hosts, lease_ttl=lease_ttl)
    cluster.seed_binding("data", pair)
    client_host = domain.create_host("client")
    return domain, cluster, pair, client_host, hosts


def session_for(domain, pair, server_pid, cache=None):
    return Session(current=pair, prefix_server=server_pid,
                   latency=domain.latency, cache=cache)


# --------------------------------------------------------- lease discipline


class TestLeaseDiscipline:
    def test_owner_always_serves(self):
        domain, cluster, pair, client_host, __ = sharded_system()
        owner_rid = cluster.map.owner_of(b"data")
        owner_pid = cluster.map.pid_of(owner_rid)
        session = session_for(domain, pair, owner_pid)

        def client(session):
            # Well past every lease: the owner needs no lease on its own
            # bindings.
            yield Delay(10 * cluster.lease_ttl)
            return (yield from files.read_file(session, "[data]data/f0.dat"))

        assert run_on(domain, client_host, client(session)) == PAYLOAD

    def test_nonowner_serves_within_lease(self):
        domain, cluster, pair, client_host, __ = sharded_system()
        owner_rid = cluster.map.owner_of(b"data")
        other = next(rid for rid in cluster.servers if rid != owner_rid)
        session = session_for(domain, pair, cluster.map.pid_of(other))

        def client(session):
            # seed_binding granted a lease from t=0; read inside it.
            return (yield from files.read_file(session, "[data]data/f0.dat"))

        assert run_on(domain, client_host, client(session)) == PAYLOAD

    def test_nonowner_refuses_after_lease_expiry(self):
        # The coherence rule: an expired lease is *refused* with RETRY,
        # never served.  A budget-0 client sees the refusal verbatim.
        domain, cluster, pair, client_host, __ = sharded_system()
        owner_rid = cluster.map.owner_of(b"data")
        other = next(rid for rid in cluster.servers if rid != owner_rid)
        session = session_for(domain, pair, cluster.map.pid_of(other))
        session.env.retry_budget = 0

        def client(session):
            yield Delay(10 * cluster.lease_ttl)
            try:
                yield from files.read_file(session, "[data]data/f0.dat")
            except NameError_ as err:
                return err.code

        assert run_on(domain, client_host,
                      client(session)) is ReplyCode.RETRY
        server = cluster.servers[other]
        assert server.lease_refusals >= 1
        assert server.expired_served == 0

    def test_refused_client_follows_the_owner_redirect(self):
        # With a shard resolver, the RETRY's owner_pid redirect makes the
        # refusal invisible: the retry lands at the authority.
        domain, cluster, pair, client_host, __ = sharded_system()
        owner_rid = cluster.map.owner_of(b"data")
        other = next(rid for rid in cluster.servers if rid != owner_rid)
        resolver = cluster.resolver()
        # Mis-aim the resolver's first attempt at the non-owner replica.
        resolver.map = cluster.map.with_replica(
            owner_rid, cluster.map.pid_of(other).value)
        session = session_for(domain, pair, cluster.primary_pid(),
                              cache=resolver)

        def client(session):
            yield Delay(10 * cluster.lease_ttl)
            return (yield from files.read_file(session, "[data]data/f0.dat"))

        assert run_on(domain, client_host, client(session)) == PAYLOAD
        assert resolver.redirects_followed >= 1

    def test_refusal_kicks_async_refresh(self):
        domain, cluster, pair, client_host, __ = sharded_system()
        owner_rid = cluster.map.owner_of(b"data")
        other = next(rid for rid in cluster.servers if rid != owner_rid)
        session = session_for(domain, pair, cluster.map.pid_of(other))
        session.env.retry_budget = 0

        def client(session):
            yield Delay(10 * cluster.lease_ttl)
            try:
                yield from files.read_file(session, "[data]data/f0.dat")
            except NameError_:
                pass
            # Give the background refresh time to round-trip the owner,
            # then the same non-owner serves under its fresh lease.
            yield Delay(0.2)
            return (yield from files.read_file(session, "[data]data/f0.dat"))

        assert run_on(domain, client_host, client(session)) == PAYLOAD
        assert cluster.servers[other].lease_refreshes >= 1


# ------------------------------------------------------- fan-out and rebinds


class TestBindingFanOut:
    def test_add_prefix_reaches_every_replica(self):
        domain, cluster, pair, client_host, __ = sharded_system()
        session = session_for(domain, pair, cluster.primary_pid())

        def client(session):
            yield from session.add_prefix("proj", pair)
            yield Delay(0.2)    # let the fan-out land

        run_on(domain, client_host, client(session))
        for server in cluster.servers.values():
            assert server.binding("proj") is not None
        # The non-owners learned it via SHARD_SYNC, not shared memory.
        owner_rid = cluster.map.owner_of(b"proj")
        synced = [server for rid, server in cluster.servers.items()
                  if rid != owner_rid]
        assert all(server.syncs_seen >= 1 for server in synced)

    def test_mutations_forward_to_the_owner(self):
        # ADD sent to a non-owner must land at the owner (Sec. 5.4
        # forwarding) and fan out from there.
        domain, cluster, pair, client_host, __ = sharded_system()
        owner_rid = cluster.map.owner_of(b"proj")
        other = next(rid for rid in cluster.servers if rid != owner_rid)
        session = session_for(domain, pair, cluster.map.pid_of(other))

        def client(session):
            yield from session.add_prefix("proj", pair)
            yield Delay(0.2)

        run_on(domain, client_host, client(session))
        assert cluster.servers[owner_rid].binding("proj") is not None

    def test_delete_prefix_invalidates_every_replica(self):
        domain, cluster, pair, client_host, __ = sharded_system()
        session = session_for(domain, pair, cluster.primary_pid())

        def client(session):
            yield from session.delete_prefix("data")
            yield Delay(0.2)

        run_on(domain, client_host, client(session))
        for server in cluster.servers.values():
            assert server.binding("data") is None


# ----------------------------------------------------------- the resolver


class TestShardResolver:
    def test_positive_cache_skips_the_replica_hop(self):
        domain, cluster, pair, client_host, __ = sharded_system()
        resolver = cluster.resolver()
        session = session_for(domain, pair, cluster.primary_pid(),
                              cache=resolver)

        def client(session):
            yield from files.read_file(session, "[data]data/f0.dat")
            return (yield from files.read_file(session, "[data]data/f0.dat"))

        assert run_on(domain, client_host, client(session)) == PAYLOAD
        assert resolver.stats.hits_by_source.get("shard", 0) >= 1

    def test_negative_cache_answers_hot_missing_names_locally(self):
        domain, cluster, pair, client_host, __ = sharded_system()
        resolver = cluster.resolver()
        session = session_for(domain, pair, cluster.primary_pid(),
                              cache=resolver)

        def client(session):
            codes = []
            for __ in range(3):
                try:
                    yield from files.read_file(session, "[ghost]x")
                except NameError_ as err:
                    codes.append(err.code)
            return codes

        codes = run_on(domain, client_host, client(session))
        assert codes == [ReplyCode.NOT_FOUND] * 3
        assert resolver.negative_stores == 1
        assert resolver.negative_hits == 2

    def test_negative_entry_expires(self):
        domain, cluster, pair, client_host, __ = sharded_system()
        resolver = cluster.resolver(negative_ttl=0.1)
        session = session_for(domain, pair, cluster.primary_pid(),
                              cache=resolver)

        def client(session):
            try:
                yield from files.read_file(session, "[ghost]x")
            except NameError_:
                pass
            yield Delay(0.2)
            try:
                yield from files.read_file(session, "[ghost]x")
            except NameError_:
                pass

        run_on(domain, client_host, client(session))
        assert resolver.negative_stores == 2
        assert resolver.negative_hits == 0

    def test_cache_accounting_invariant_holds(self):
        from repro.faults.chaos import check_cache_accounting

        domain, cluster, pair, client_host, __ = sharded_system()
        resolver = cluster.resolver()
        session = session_for(domain, pair, cluster.primary_pid(),
                              cache=resolver)

        def client(session):
            for __ in range(5):
                yield from files.read_file(session, "[data]data/f0.dat")
                yield Delay(0.3)

        run_on(domain, client_host, client(session))
        assert check_cache_accounting(resolver) == []


# ------------------------------------------------------ failover and rejoin


class TestFailoverAndRejoin:
    def test_crash_promotes_and_reads_keep_resolving(self):
        domain, cluster, pair, client_host, hosts = sharded_system(
            lease_ttl=0.5)
        owner_rid = cluster.map.owner_of(b"data")
        owner_host = cluster.servers[owner_rid].host
        resolver = cluster.resolver()
        session = session_for(domain, pair, cluster.primary_pid(),
                              cache=resolver)
        session.env.retry_budget = 4
        version_before = cluster.map.version

        def client(session):
            yield from files.read_file(session, "[data]data/f0.dat")
            yield Delay(1.0)    # outlive the client-side binding TTL
            return (yield from files.read_file(session, "[data]data/f0.dat"))

        domain.engine.schedule_at(0.5, owner_host.crash)
        assert run_on(domain, client_host, client(session)) == PAYLOAD
        assert cluster.promotions == 1
        assert cluster.map.version == version_before + 1
        assert owner_rid not in cluster.servers
        # The resolver caught up over the wire, not via shared memory.
        assert resolver.map.version == cluster.map.version

    def test_restart_rejoins_with_a_pulled_table(self):
        domain, cluster, pair, client_host, hosts = sharded_system()
        owner_rid = cluster.map.owner_of(b"data")
        owner_host = cluster.servers[owner_rid].host

        domain.engine.schedule_at(0.5, owner_host.crash)
        domain.engine.schedule_at(1.0, owner_host.restart)
        domain.run()
        domain.check_healthy()

        assert cluster.promotions == 1
        assert cluster.rejoins == 1
        rejoined = cluster.servers[owner_rid]
        # The table came back over SHARD_PULL, including the seeded binding.
        assert rejoined.binding("data") is not None
        assert rejoined.shard_map.version == cluster.map.version
        assert cluster.map.pid_of(owner_rid) == rejoined.pid


# ------------------------------------------------ paged rejoin at 10^4


BIG = 10_000
OTHER_PAYLOAD = b"rebound-payload"
#: Replica 1 crashes at CRASH_AT and restarts at RESTART_AT; it pulls from
#: the lowest live member, replica 0, unless that one fails.
JOINER = 1
CRASH_AT, RESTART_AT = 0.2, 0.4


def big_cluster():
    """4 replicas over BIG prefixes bound to file server 0; file server 1
    holds the same file with OTHER_PAYLOAD, the target of rebinds."""
    domain = Domain(seed=5)
    pairs = []
    for number, payload in enumerate((PAYLOAD, OTHER_PAYLOAD)):
        fileserver = VFileServer(user="mann")
        fileserver.store.make_path("data/f0.dat",
                                   directory=False).data[:] = payload
        handle = start_server(domain.create_host(f"fs{number}"), fileserver)
        pairs.append(ContextPair(handle.pid, int(WellKnownContext.DEFAULT)))
    hosts = domain.create_hosts(4, prefix="ns")
    cluster = ShardCluster(domain, hosts, lease_ttl=0.5)
    for index in range(BIG):
        cluster.seed_binding(f"p{index}", pairs[0])
    joiner_host = cluster.servers[JOINER].host
    domain.engine.schedule_at(CRASH_AT, joiner_host.crash)
    domain.engine.schedule_at(RESTART_AT, joiner_host.restart)
    return domain, cluster, pairs, hosts


def joiner_owned(cluster):
    """The seeded prefixes the joiner owns once it is back in the map."""
    return sorted(b"p%d" % index for index in range(BIG)
                  if cluster.map.owner_of(b"p%d" % index) == JOINER)


@pytest.fixture
def pages(monkeypatch):
    """Every exported page: (exporter id, first key index, end index,
    segment bytes, simulated time)."""
    seen = []
    export_page = ShardReplicaServer.export_page

    def recording(self, keys, start, now):
        segment, stamps, end = export_page(self, keys, start, now)
        seen.append((self.replica_id, start, end, len(segment), now))
        return segment, stamps, end

    monkeypatch.setattr(ShardReplicaServer, "export_page", recording)
    return seen


class TestPagedRejoin:
    def test_rejoiner_resolves_every_name_it_owns(self):
        domain, cluster, pairs, __ = big_cluster()
        domain.run()
        domain.check_healthy()
        assert cluster.rejoins == 1 and cluster.joiners == {}
        rejoined = cluster.servers[JOINER]
        assert len(rejoined.table.bindings) == BIG
        owned = joiner_owned(cluster)
        assert len(owned) > BIG // 8
        session = session_for(domain, pairs[0], rejoined.pid)

        def client(session):
            wrong = []
            for prefix in owned:
                name = f"[{prefix.decode()}]data/f0.dat"
                if (yield from files.read_file(session, name)) != PAYLOAD:
                    wrong.append(name)
            return wrong

        assert run_on(domain, domain.create_host("client"),
                      client(session)) == []

    def test_every_page_stays_within_the_bound(self, pages):
        domain, cluster, __, __ = big_cluster()
        domain.run()
        assert cluster.rejoins == 1
        assert len(pages) > 10
        assert all(size <= PULL_PAGE_BYTES for *__, size, __ in pages)
        # One peer, consecutive pages, the whole table exactly once.
        assert {exporter for exporter, *__ in pages} == {0}
        assert [start for __, start, *___ in pages] == \
            [0] + [end for __, __, end, *___ in pages[:-1]]
        assert pages[-1][2] == BIG

    @pytest.mark.parametrize("failure", ["crash", "cut-off"])
    def test_a_peer_failing_mid_pull_resumes_at_the_cursor(self, pages,
                                                            failure):
        # A crash drops the peer from the map; a cut-off peer stays in the
        # map and the joiner's Send to it times out.
        domain, cluster, __, hosts = big_cluster()
        if failure == "crash":
            domain.engine.schedule_at(RESTART_AT + 0.3, hosts[0].crash)
        else:
            domain.engine.schedule_at(RESTART_AT + 0.3, partition_between,
                                      domain, [hosts[0].host_id],
                                      [hosts[JOINER].host_id])
        domain.run()
        domain.check_healthy()
        first = [page for page in pages if page[0] == 0]
        second = [page for page in pages if page[0] != 0]
        assert first and second
        assert {exporter for exporter, *__ in second} == {2}
        # The next peer starts where the dead one's pages ended, not at 0.
        assert 0 < second[0][1] <= first[-1][2]
        assert second[-1][2] == BIG
        assert cluster.rejoins == 1
        assert len(cluster.servers[JOINER].table.bindings) == BIG

    def test_no_peer_answering_leaves_the_replica_out(self):
        domain, cluster, __, hosts = big_cluster()
        joiner_host = hosts[JOINER]
        domain.engine.schedule_at(RESTART_AT, partition_between, domain,
                                  [joiner_host.host_id],
                                  [host.host_id for host in hosts
                                   if host is not joiner_host])
        domain.run()
        domain.check_healthy()
        assert cluster.rejoins == 0
        assert cluster.rejoin_failures == 1
        assert cluster.map.pid_of(JOINER) is None
        assert cluster.joiners == {}
        assert sorted(rid for rid, __ in cluster.map.replicas) == [0, 2, 3]

    def test_mutations_mid_pull_reach_the_joiner(self, pages):
        domain, cluster, pairs, __ = big_cluster()
        owned = joiner_owned(cluster)
        # The first owned key is exported before the mutations (its page
        # is stale when they land); the last one after them.
        early, late, gone = owned[0], owned[-1], owned[1]
        mutate_at = RESTART_AT + 0.3
        session = session_for(domain, pairs[0], cluster.primary_pid())

        def mutator(session):
            yield Delay(mutate_at)
            for prefix in (early, late):
                yield from session.add_prefix(prefix.decode(), pairs[1],
                                              replace=True)
            yield from session.delete_prefix(gone.decode())

        run_on(domain, domain.create_host("mutator"), mutator(session))
        assert pages[0][4] < mutate_at < pages[-1][4]
        assert cluster.rejoins == 1
        rejoined = cluster.servers[JOINER]
        assert rejoined.binding(early).fixed == pairs[1]
        assert rejoined.binding(late).fixed == pairs[1]
        assert rejoined.binding(gone) is None
        reader = session_for(domain, pairs[0], rejoined.pid)

        def client(session):
            return (yield from files.read_file(
                session, f"[{early.decode()}]data/f0.dat"))

        assert run_on(domain, domain.create_host("reader"),
                      client(reader)) == OTHER_PAYLOAD

    def test_a_notice_outranks_a_page_built_before_it(self):
        # The page the source sends at MUTATE_AT is lost on the wire until
        # the joiner has applied a rebind of one of its keys; the source's
        # kernel then replays the page it built before the rebind.
        domain, cluster, pairs, hosts = big_cluster()
        before = cluster.map
        source, joiner_host = hosts[0].host_id, hosts[JOINER].host_id
        lost = {}

        def drop(frame, dst_host):
            packet = frame.payload
            if (frame.src_host != source or dst_host != joiner_host
                    or packet.kind is not PacketKind.REPLY
                    or domain.now < RESTART_AT + 0.3):
                return False
            if "keys" not in lost:
                lost["keys"] = [record[0].encode() for record in
                                json.loads(packet.message.segment)]
            return cluster.servers[JOINER].syncs_seen == 0

        domain.ethernet.set_drop_predicate(drop)
        session = session_for(domain, pairs[0], cluster.primary_pid())
        rebound = {}

        def mutator(session):
            while "keys" not in lost:
                yield Delay(0.001)
            rebound["key"] = next(key for key in lost["keys"]
                                  if before.owner_of(key) == JOINER)
            yield from session.add_prefix(rebound["key"].decode(), pairs[1],
                                          replace=True)

        run_on(domain, domain.create_host("mutator"), mutator(session))
        assert cluster.rejoins == 1
        rejoined = cluster.servers[JOINER]
        assert len(rejoined.table.bindings) == BIG
        assert rejoined.binding(rebound["key"]).fixed == pairs[1]


# ------------------------------------------- negative-cache reconciliation


class TestNegativeCacheInvalidation:
    """A create must kill cached NOT_FOUNDs for names under its prefix.

    ADD_CONTEXT_NAME bypasses the resolver cache on the way out, so
    without ``note_mutation`` a client that just bound ``[extra]`` would
    keep answering NOT_FOUND for ``[extra]...`` names from its own
    negative cache until the TTL lapsed -- self-inflicted staleness the
    coherence auditor classifies as a stale negative entry.
    """

    def test_create_kills_negative_entries_under_the_prefix(self):
        domain, cluster, pair, client_host, __ = sharded_system()
        # Negative TTL far longer than the test: only invalidation (never
        # expiry) can explain the post-ADD read succeeding.
        resolver = cluster.resolver(negative_ttl=30.0)
        session = session_for(domain, pair, cluster.primary_pid(),
                              cache=resolver)
        outcome = {}

        def client(session):
            for attempt in ("first", "second"):
                try:
                    yield from files.read_file(session, "[extra]data/f0.dat")
                except NameError_:
                    outcome[attempt] = "not-found"
                else:
                    outcome[attempt] = "ok"
            outcome["negcache_len"] = resolver.footprint()["negative"]
            yield from session.add_prefix("extra", pair)
            outcome["negcache_after_add"] = resolver.footprint()["negative"]
            outcome["after_add"] = (
                yield from files.read_file(session, "[extra]data/f0.dat"))

        run_on(domain, client_host, client(session))
        # The unbound prefix NOT_FOUND was negative-cached and the repeat
        # was answered locally...
        assert outcome["first"] == "not-found"
        assert outcome["second"] == "not-found"
        assert outcome["negcache_len"] == 1
        assert resolver.negative_hits == 1
        # ...and the ADD reconciled it: entry gone, read serves, well
        # inside the 30s negative TTL.
        assert outcome["negcache_after_add"] == 0
        assert outcome["after_add"] == PAYLOAD

    def test_delete_under_a_different_prefix_leaves_negatives_alone(self):
        domain, cluster, pair, client_host, __ = sharded_system()
        resolver = cluster.resolver(negative_ttl=30.0)
        session = session_for(domain, pair, cluster.primary_pid(),
                              cache=resolver)
        held = {}

        def client(session):
            try:
                yield from files.read_file(session, "[extra]data/f0.dat")
            except NameError_:
                pass
            # An unrelated mutation must not disturb [extra]'s entry.
            yield from session.add_prefix("other", pair)
            held["negcache_len"] = resolver.footprint()["negative"]

        run_on(domain, client_host, client(session))
        assert held["negcache_len"] == 1
