"""Property: the shard map's ring lookup equals the plain formula.

``ShardMap`` bisects a flat tuple of ring points and reads the owner from a
parallel tuple.  The plain formula it must agree with sorts
``(point, replica id)`` pairs and bisects them with ``(hash, 1 << 62)``,
wrapping past the last point to the first.  Both ``owner_of`` and
``replicas_for`` are checked for random maps and prefixes, with the prefix
given as bytes and as a bytearray.
"""

import bisect
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.shard import ShardMap


def plain_ring(shard_map):
    return sorted((zlib.crc32(b"replica-%d/%d" % (replica_id, vnode)),
                   replica_id)
                  for replica_id, __ in shard_map.replicas
                  for vnode in range(shard_map.vnodes))


def plain_start(ring, prefix):
    index = bisect.bisect_right(ring, (zlib.crc32(bytes(prefix)), 1 << 62))
    return 0 if index == len(ring) else index


def plain_owner(shard_map, prefix):
    ring = plain_ring(shard_map)
    return ring[plain_start(ring, prefix)][1]


def plain_replicas_for(shard_map, prefix):
    ring = plain_ring(shard_map)
    if not ring:
        return []
    start = plain_start(ring, prefix)
    order = []
    for offset in range(len(ring)):
        replica_id = ring[(start + offset) % len(ring)][1]
        if replica_id not in order:
            order.append(replica_id)
    return order


maps = st.builds(
    lambda ids, vnodes: ShardMap(
        version=1, replicas=tuple((rid, 1000 + rid) for rid in sorted(ids)),
        vnodes=vnodes),
    st.sets(st.integers(min_value=0, max_value=40), min_size=1, max_size=8),
    st.integers(min_value=1, max_value=24))


#: Random bytes, plus ring-point labels: a label hashes exactly onto its
#: point, the one place a lookup may not tell "after" from "at".
any_prefix = st.one_of(
    st.binary(max_size=24),
    st.builds(lambda rid, vnode: b"replica-%d/%d" % (rid, vnode),
              st.integers(min_value=0, max_value=40),
              st.integers(min_value=0, max_value=23)))


@settings(max_examples=200, deadline=None)
@given(shard_map=maps, prefixes=st.lists(any_prefix, min_size=1, max_size=20))
def test_lookup_equals_the_plain_formula(shard_map, prefixes):
    for prefix in prefixes:
        owner = plain_owner(shard_map, prefix)
        assert shard_map.owner_of(prefix) == owner
        assert shard_map.owner_of(bytearray(prefix)) == owner
        order = plain_replicas_for(shard_map, prefix)
        assert shard_map.replicas_for(prefix) == order
        assert shard_map.replicas_for(bytearray(prefix)) == order


def test_a_map_without_ring_points_has_no_owner():
    for empty in (ShardMap(version=1, replicas=()),
                  ShardMap(version=1, replicas=((0, 100),), vnodes=0)):
        with pytest.raises(ValueError):
            empty.owner_of(b"p")
        assert empty.replicas_for(b"p") == []
