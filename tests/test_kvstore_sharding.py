"""Tests for the consistent-hash shard map and multiplexed group servers."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError
from repro.core.timestamps import Tag
from repro.kvstore.engine import (
    STALE_SHARD_KIND,
    BatchStats,
    GroupServerEngine,
    SendFrame,
)
from repro.kvstore.sharding import HashRing, ShardMap, stable_hash
from repro.protocols.codec import encode_tag
from repro.protocols.registry import build_protocol
from repro.messages import (
    BATCH_ACK_KIND,
    Message,
    SubRequest,
    make_batch,
    unpack_batch_ack,
)


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("user:7") == stable_hash("user:7")

    def test_spreads(self):
        hashes = {stable_hash(f"k{i}") for i in range(100)}
        assert len(hashes) == 100


class TestHashRing:
    def test_same_key_same_owner(self):
        ring = HashRing(["sh1", "sh2", "sh3"])
        assert ring.owner_of("alpha") == ring.owner_of("alpha")

    def test_all_shards_get_keys(self):
        ring = HashRing(["sh1", "sh2", "sh3", "sh4"])
        owners = {ring.owner_of(f"k{i}") for i in range(200)}
        assert owners == {"sh1", "sh2", "sh3", "sh4"}

    def test_adding_a_shard_moves_few_keys(self):
        keys = [f"k{i}" for i in range(300)]
        before = HashRing(["sh1", "sh2", "sh3"])
        after = HashRing(["sh1", "sh2", "sh3", "sh4"])
        moved = sum(1 for k in keys if before.owner_of(k) != after.owner_of(k))
        # Consistent hashing moves roughly 1/4 of the keys, never most of them.
        assert moved < len(keys) // 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            HashRing([])

    def test_owner_lookup_is_memoized(self):
        ring = HashRing(["sh1", "sh2"])
        for _ in range(5):
            ring.owner_of("hot-key")
        info = ring.cache_info()
        assert info.hits == 4 and info.misses == 1

    def test_memoized_lookup_matches_uncached(self):
        ring = HashRing(["sh1", "sh2", "sh3"])
        for i in range(100):
            key = f"k{i}"
            assert ring.owner_of(key) == ring._resolve(key)

    def test_full_memo_resets_and_stays_correct(self):
        ring = HashRing(["sh1", "sh2"], owner_cache_size=8)
        owners = {f"k{i}": ring.owner_of(f"k{i}") for i in range(30)}
        assert ring.cache_info().currsize <= 8
        for key, owner in owners.items():
            assert ring.owner_of(key) == owner

    def test_ring_is_freed_on_refcount_without_gc(self):
        # The old lru_cache-over-a-bound-method memo closed over the ring
        # and was stored on it: a reference cycle that pinned superseded
        # rings until a gc pass.  A plain dict memo must not -- the weakref
        # dies the moment the last reference does, no collector involved.
        import weakref

        ring = HashRing(["sh1", "sh2"])
        ring.owner_of("hot-key")
        ref = weakref.ref(ring)
        del ring
        assert ref() is None

    def test_resize_clears_the_superseded_rings_memo(self):
        shard_map = ShardMap(2)
        old_ring = shard_map.ring
        old_ring.owner_of("k1")
        assert old_ring.cache_info().currsize == 1
        plan = shard_map.resize(4)
        assert old_ring.cache_info().currsize == 0
        # The plan's retained old ring still resolves (memo refills lazily).
        assert plan.moved_fraction([f"k{i}" for i in range(50)]) < 1.0

    def test_move_shard_clears_the_memo(self):
        shard_map = ShardMap(2, num_groups=2)
        shard_map.ring.owner_of("k1")
        shard_map.move_shard("sh1", "g2")
        assert shard_map.ring.cache_info().currsize == 0
        assert shard_map.shards["sh1"].group.group_id == "g2"


class TestShardMap:
    def test_builds_disjoint_replica_groups(self):
        shard_map = ShardMap(3, servers_per_shard=3)
        assert len(shard_map) == 3
        servers = shard_map.all_servers
        assert len(servers) == 9
        assert len(set(servers)) == 9

    def test_shard_for_is_stable(self):
        shard_map = ShardMap(4)
        spec = shard_map.shard_for("user:42")
        assert shard_map.shard_for("user:42") is spec
        assert "user:42" in shard_map.assignments(["user:42"])[spec.shard_id]

    def test_assignments_cover_all_keys(self):
        shard_map = ShardMap(2)
        keys = [f"k{i}" for i in range(50)]
        grouped = shard_map.assignments(keys)
        assert sorted(k for ks in grouped.values() for k in ks) == sorted(keys)

    def test_rejects_single_writer_protocol_with_many_clients(self):
        with pytest.raises(ConfigurationError):
            ShardMap(2, protocol_key="abd-swmr", servers_per_shard=3, writers=3)

    def test_describe(self):
        info = ShardMap(2, servers_per_shard=3).describe()
        assert info["shards"] == 2 and info["total_servers"] == 6
        assert info["groups"] == 2 and info["ring_epoch"] == 1

    def test_many_shards_on_few_groups(self):
        # The decoupling: shard count exceeds server capacity for disjoint
        # groups, because groups are shared.
        shard_map = ShardMap(8, num_groups=2, servers_per_shard=3)
        assert len(shard_map) == 8
        assert len(shard_map.groups) == 2
        assert len(shard_map.all_servers) == 6
        counts = shard_map.shard_counts()
        assert sum(counts.values()) == 8
        assert all(count == 4 for count in counts.values())  # round robin


def _tagged(server: GroupServerEngine, shard: str, key: str, message: Message,
            epoch=None) -> SubRequest:
    resolved = epoch if epoch is not None else server.hosted_epoch(shard)
    return SubRequest(key=key, message=message, shard=shard, epoch=resolved)


def _serve(server: GroupServerEngine, frame: Message) -> Message:
    """Run ``frame`` through ``on_frame``: its one effect, a reply frame."""
    (effect,) = server.on_frame(frame)
    assert isinstance(effect, SendFrame) and effect.destination == frame.sender
    return effect.frame


class TestGroupServerEngine:
    def _server(self, shards=("sha", "shb")):
        protocol = build_protocol("abd-mwmr", ["s1", "s2", "s3"], 1)
        return GroupServerEngine("s1", protocol, {shard: 1 for shard in shards})

    def test_routes_sub_requests_per_key_across_shards(self):
        server = self._server()
        update_a = Message("w1", "s1", "update",
                           {"tag": encode_tag(Tag(1, "w1")), "value": "A"},
                           op_id="op-1", round_trip=2)
        update_b = Message("w1", "s1", "update",
                           {"tag": encode_tag(Tag(1, "w1")), "value": "B"},
                           op_id="op-2", round_trip=2)
        batch = make_batch("w1", "s1", [
            _tagged(server, "sha", "ka", update_a),
            _tagged(server, "shb", "kb", update_b),
        ])
        ack = _serve(server, batch)
        assert ack.kind == BATCH_ACK_KIND
        assert server.keys_hosted == 2
        assert server.keys_for("sha") == ["ka"]

        query_a = Message("r1", "s1", "query", op_id="op-3", round_trip=1)
        ack = _serve(
            server, make_batch("r1", "s1", [_tagged(server, "sha", "ka", query_a)])
        )
        reply, = unpack_batch_ack(ack)
        assert reply.payload["value"] == "A"
        assert reply.op_id == "op-3" and reply.round_trip == 1

    def test_same_key_different_shards_are_independent_registers(self):
        server = self._server()
        update = Message("w1", "s1", "update",
                         {"tag": encode_tag(Tag(5, "w1")), "value": "only-sha"})
        _serve(server, make_batch("w1", "s1", [_tagged(server, "sha", "ka", update)]))
        query = Message("r1", "s1", "query")
        ack = _serve(server, make_batch("r1", "s1", [_tagged(server, "shb", "ka", query)]))
        reply, = unpack_batch_ack(ack)
        assert reply.payload["value"] is None  # shb's "ka" never written

    def test_stale_epoch_bounces_without_touching_registers(self):
        server = self._server()
        server.set_epoch("sha", 3)
        update = Message("w1", "s1", "update",
                         {"tag": encode_tag(Tag(1, "w1")), "value": "A"},
                         op_id="op-1", round_trip=2)
        ack = _serve(server, make_batch(
            "w1", "s1", [_tagged(server, "sha", "ka", update, epoch=2)]
        ))
        reply, = unpack_batch_ack(ack)
        assert reply.kind == STALE_SHARD_KIND
        assert reply.payload["epoch"] == 3 and reply.payload["sent_epoch"] == 2
        assert reply.op_id == "op-1" and reply.round_trip == 2
        assert server.keys_hosted == 0
        assert server.stale_bounces == 1

    def test_unhosted_and_untagged_shards_bounce(self):
        server = self._server(shards=("sha",))
        query = Message("r1", "s1", "query")
        ack = _serve(server, make_batch("r1", "s1", [
            SubRequest("k", query, shard="nope", epoch=1),
            SubRequest("k", query),  # legacy untagged form
        ]))
        for reply in unpack_batch_ack(ack):
            assert reply.kind == STALE_SHARD_KIND
            assert reply.payload["epoch"] is None

    def test_evict_and_install_move_state(self):
        source = self._server()
        dest = self._server(shards=())
        update = Message("w1", "s1", "update",
                         {"tag": encode_tag(Tag(7, "w1")), "value": "moved"})
        _serve(source, make_batch("w1", "s1", [_tagged(source, "sha", "ka", update)]))
        registers = source.evict_shard("sha")
        assert source.hosted_epoch("sha") is None
        dest.host_shard("sha", 2, registers)
        query = Message("r1", "s1", "query")
        ack = _serve(dest, make_batch("r1", "s1", [_tagged(dest, "sha", "ka", query)]))
        reply, = unpack_batch_ack(ack)
        assert reply.payload["value"] == "moved"
        assert reply.sender == "s1"

    def test_rejects_non_batch_messages(self):
        server = self._server()
        with pytest.raises(ValueError):
            _serve(server, Message("r1", "s1", "query"))

    def test_counts_batches(self):
        server = self._server()
        query = Message("r1", "s1", "query")
        _serve(server, make_batch("r1", "s1", [
            _tagged(server, "sha", "ka", query),
            _tagged(server, "sha", "kb", query),
        ]))
        assert server.batches_served == 1
        assert server.sub_ops_served == 2
        assert server.largest_batch == 2


class TestBatchStats:
    def test_mean_and_merge(self):
        first = BatchStats()
        first.record(2)
        first.record(4)
        second = BatchStats()
        second.record(6)
        first.merge(second)
        assert first.rounds == 3
        assert first.sub_operations == 12
        assert first.mean_batch_size == pytest.approx(4.0)
        assert first.largest == 6
        assert "3 batch rounds" in first.summary()

    def test_empty_mean(self):
        assert BatchStats().mean_batch_size == 0.0
