"""Tests for the proxy read cache and its server-assisted leases.

Three layers of scrutiny:

* **Unit** -- scripted runs on the in-memory engine fabric pin the cache
  state machine: hits serve locally, concurrent readers share one fill,
  writes behind held leases defer until every holder acks the
  invalidation, lease expiry evicts on both sides, and the LRU bound holds.
* **Simulation** -- full zipf workloads check the headline perf claim
  (hot-key reads cut replica read sub-ops several-fold) and that
  atomicity survives the cache under writes, proxy kills, and concurrent
  shard drains.
* **Crash** -- a proxy crash while it holds leases must not wedge
  writers: server-side lease timers expire the dead holder and release
  the deferred write acks within the lease TTL, and the writer's watchdog
  waits that long (simulator and asyncio).
"""

from __future__ import annotations

import asyncio
import json
import time

from hypothesis import example, given, strategies as st
from test_kvstore_engine import build_memory_stack, run_script, tap

from repro.consistency import measure_staleness
from repro.core.operations import OpKind
from repro.kvstore import (
    AsyncKVCluster,
    KVRunConfig,
    KVStore,
    ShardMap,
    SimKVCluster,
    check_per_key_atomicity,
    generate_workload,
    run,
)
from repro.kvstore.engine import (
    SIM_RETRY_POLICY,
    CachedShardView,
    ClientSessionEngine,
    GroupServerEngine,
    ProxyEngine,
    SendFrame,
    StartTimer,
    payload_fingerprint,
)
from repro.core.timestamps import Tag
from repro.messages import (
    BATCH_ACK_KIND,
    BATCH_KIND,
    LEASE_INVALIDATE_KIND,
    LEASE_RELEASE_KIND,
    Message,
    ProxySubRequest,
    SubRequest,
    make_batch,
    make_batch_ack,
    make_lease_release,
    make_proxy_request,
    unpack_batch,
    unpack_batch_ack,
    unpack_lease_release,
)
from repro.protocols.codec import encode_tagged


def add_proxy_stack(fabric, shard_map, recorder, proxy_id, client_id):
    """A second proxy with its own client on an existing memory stack."""
    proxy = ProxyEngine(
        proxy_id, CachedShardView(shard_map), policy=SIM_RETRY_POLICY,
        read_cache=8, lease_ttl=1000.0,
    )
    fabric.register(proxy_id, proxy)
    client = ClientSessionEngine(
        client_id, shard_map, recorder, policy=SIM_RETRY_POLICY,
        proxy_candidates=[proxy_id],
    )
    fabric.register(client_id, client)
    fabric.execute(client_id, client.on_connected(proxy_id))
    return proxy, client


def group_servers(fabric, shard_map, group_id="g1"):
    return [fabric.engines[sid] for sid in shard_map.groups[group_id].servers]


def issue(fabric, client, kind, key, value, sink):
    """Fire one op and record its outcome value under the client's id."""
    op_id, effects = client.invoke(kind, key, value)
    fabric.callbacks[op_id] = lambda outcome: sink.setdefault(
        client.client_id, outcome.value
    )
    fabric.execute(client.client_id, effects)


#: JSON objects as frames carry them: string keys, nested lists and objects.
JSON_DICTS = st.dictionaries(
    st.text(max_size=4),
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=8,
    ),
    max_size=4,
)


@given(JSON_DICTS)
@example({})
def test_payload_fingerprint_is_canonical_json_empty_payloads_included(payload):
    assert payload_fingerprint(payload) == json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    )


class TestCacheUnit:
    def test_repeat_read_is_served_from_cache(self):
        _, fabric, client, proxy, recorder = build_memory_stack(
            use_proxy=True, read_cache=8
        )
        outcomes = run_script(fabric, client, [
            (OpKind.WRITE, "k", "v1"),
            (OpKind.READ, "k", None),
            (OpKind.READ, "k", None),
        ])
        assert [o.value for o in outcomes] == ["v1", "v1", "v1"]
        assert proxy.cache_misses == 1
        assert proxy.cache_hits == 1
        # The miss paid one quorum-first query round (2 of the 3 replicas in
        # the default map; they agreed, so the fill never wrote back); the hit
        # paid nothing.
        assert proxy.read_subs_sent == 2
        assert check_per_key_atomicity(recorder.histories()).all_atomic
        _, reads = recorder.histories()["k"].round_trip_counts()
        assert reads == [1, 1]  # one client<->proxy round for fill and hit

    def test_concurrent_readers_share_one_fill(self):
        _, fabric, client, proxy, recorder = build_memory_stack(
            use_proxy=True, read_cache=8, num_clients=2
        )
        run_script(fabric, client, [(OpKind.WRITE, "k", "v0")])
        other = fabric.engines["c2"]
        seen = {}
        issue(fabric, client, OpKind.READ, "k", None, seen)
        issue(fabric, other, OpKind.READ, "k", None, seen)
        subs_before = proxy.read_subs_sent
        fabric.run()
        assert seen == {"c1": "v0", "c2": "v0"}
        # Single-flight: the second read joined the first's fill instead of
        # starting its own -- exactly one query round's worth of sub-ops.
        one_round = 1 * 2  # a unanimous fill x a quorum of the default map
        assert proxy.read_subs_sent - subs_before == one_round
        assert check_per_key_atomicity(recorder.histories()).all_atomic

    def test_write_invalidates_cached_entry(self):
        _, fabric, client, proxy, recorder = build_memory_stack(
            use_proxy=True, read_cache=8
        )
        outcomes = run_script(fabric, client, [
            (OpKind.WRITE, "k", "v1"),
            (OpKind.READ, "k", None),
            (OpKind.WRITE, "k", "v2"),
            (OpKind.READ, "k", None),
        ])
        assert [o.value for o in outcomes] == ["v1", "v1", "v2", "v2"]
        assert proxy.cache_invalidations >= 1
        assert proxy.cache_misses == 2  # the post-write read refilled
        assert check_per_key_atomicity(recorder.histories()).all_atomic

    def test_direct_writer_defers_until_invalidation(self):
        shard_map, fabric, client, proxy, recorder = build_memory_stack(
            use_proxy=True, read_cache=8
        )
        # A second client that talks to the replicas directly, bypassing
        # the proxy -- the path that *must* observe the leases.
        direct = ClientSessionEngine(
            "d1", shard_map, recorder, policy=SIM_RETRY_POLICY
        )
        fabric.register("d1", direct)
        seen = {}
        issue(fabric, client, OpKind.WRITE, "k", "v1", seen)
        fabric.run(until=50.0)
        issue(fabric, client, OpKind.READ, "k", None, seen)
        fabric.run(until=100.0)
        servers = [
            fabric.engines[sid]
            for sid in shard_map.groups["g1"].servers
        ]
        assert any(s.lease_holders("k") for s in servers)
        issue(fabric, direct, OpKind.WRITE, "k", "v2", seen)
        fabric.run(until=200.0)
        # The write completed -- but only after the replicas chased the
        # proxy's lease with invalidations and the proxy dropped its entry.
        assert seen["d1"] == "v2"
        assert sum(s.write_deferrals for s in servers) >= 1
        assert proxy.cache_invalidations >= 1
        assert not any(s.lease_holders("k") for s in servers)
        fabric.run()
        assert check_per_key_atomicity(recorder.histories()).all_atomic

    def test_lease_expiry_evicts_and_releases(self):
        shard_map, fabric, client, proxy, _ = build_memory_stack(
            use_proxy=True, read_cache=8, lease_ttl=40.0
        )
        seen = {}
        issue(fabric, client, OpKind.WRITE, "k", "v1", seen)
        fabric.run(until=10.0)
        issue(fabric, client, OpKind.READ, "k", None, seen)
        fabric.run(until=20.0)
        assert proxy._cache is not None and proxy._cache.peek("k") is not None
        # The proxy self-expires at ttl/2 past the fill; give the release
        # frames a hop to reach the replicas.
        fabric.run(until=100.0)
        assert proxy.leases_expired >= 1
        assert proxy._cache.peek("k") is None
        servers = [
            fabric.engines[sid] for sid in shard_map.groups["g1"].servers
        ]
        assert not any(s.lease_holders("k") for s in servers)

    def test_a_direct_write_after_expiry_is_what_the_next_proxied_read_sees(self):
        # Past the proxy-side expiry the entry is gone and its leases are
        # released, so a direct write goes through without deferring, and
        # the next proxied read must fetch it: an expired entry never serves.
        shard_map, fabric, client, proxy, recorder = build_memory_stack(
            use_proxy=True, read_cache=8, lease_ttl=100.0,
        )
        direct = ClientSessionEngine(
            "d1", shard_map, recorder, policy=SIM_RETRY_POLICY
        )
        fabric.register("d1", direct)
        servers = group_servers(fabric, shard_map)
        seen = {}
        issue(fabric, client, OpKind.WRITE, "k", "v1", seen)
        fabric.run(until=10.0)
        issue(fabric, client, OpKind.READ, "k", None, seen)
        fabric.run(until=20.0)
        hits = proxy.cache_hits
        fabric.run(until=80.0)  # past the proxy-side expiry (ttl/2)
        assert proxy._cache.peek("k") is None
        issue(fabric, direct, OpKind.WRITE, "k", "v2", seen)
        fabric.run(until=90.0)
        assert seen["d1"] == "v2"
        assert sum(s.write_deferrals for s in servers) == 0
        after = {}
        issue(fabric, client, OpKind.READ, "k", None, after)
        fabric.run()
        assert after == {"c1": "v2"}
        assert proxy.cache_hits == hits
        report = measure_staleness(recorder.histories()["k"])
        assert report.max_version_lag == 0
        assert check_per_key_atomicity(recorder.histories()).all_atomic

    def test_an_expired_one_round_fill_is_refetched_and_leased_again(self):
        # A unanimous fill records round 1 only.  At ttl/2 it is evicted like
        # any other entry, and the next read is a miss that pays a fresh
        # query round and takes a fresh grant quorum.
        _, fabric, client, proxy, recorder = build_memory_stack(
            use_proxy=True, read_cache=8, lease_ttl=100.0,
        )
        seen = {}
        issue(fabric, client, OpKind.WRITE, "k", "v1", seen)
        fabric.run(until=10.0)
        issue(fabric, client, OpKind.READ, "k", None, seen)
        fabric.run(until=20.0)
        first = proxy._cache.peek("k")
        assert first.rounds.keys() == {1} and first.granted
        fabric.run(until=80.0)
        assert proxy._cache.peek("k") is None
        # The expiry is the entry's one eviction, counted as an invalidation.
        assert proxy.leases_expired == 1 and proxy.cache_invalidations == 1
        subs_before = proxy.read_subs_sent
        again = {}
        issue(fabric, client, OpKind.READ, "k", None, again)
        fabric.run(until=90.0)
        assert again == {"c1": "v1"}
        assert proxy.cache_misses == 2
        assert proxy.read_subs_sent - subs_before == 2  # one quorum's round
        second = proxy._cache.peek("k")
        assert second is not None and second is not first and second.granted
        _, reads = recorder.histories()["k"].round_trip_counts()
        assert reads == [1, 1]

    def test_entry_serves_through_a_local_writes_query_round(self):
        # A write's query round changes nothing, so the proxy's own entry
        # keeps serving hits through it; the entry goes when the *update*
        # round arrives, its lease releases riding the update's own frames
        # ahead of the update, so the write never defers against this
        # proxy's own lease.
        shard_map, fabric, client, proxy, recorder = build_memory_stack(
            use_proxy=True, read_cache=8, num_clients=2
        )
        writer = fabric.engines["c2"]
        servers = group_servers(fabric, shard_map)
        issue(fabric, client, OpKind.WRITE, "k", "v1", {})
        fabric.run(until=10.0)
        issue(fabric, client, OpKind.READ, "k", None, {})
        fabric.run(until=20.0)
        entry = proxy._cache.peek("k")
        assert entry is not None and entry.granted
        proxy_trace = []
        tap(proxy, proxy_trace)
        wrote, hit = {}, {}
        start = fabric.now
        issue(fabric, writer, OpKind.WRITE, "k", "v2", wrote)
        # +1: the query round reaches the proxy; +3: its quorum is back;
        # +5: the update round reaches the proxy.
        fabric.run(until=start + 1.5)
        assert proxy._cache.peek("k") is entry  # the query did not evict
        issue(fabric, client, OpKind.READ, "k", None, hit)
        fabric.run(until=start + 4.5)
        assert hit == {"c1": "v1"} and proxy.cache_hits == 1
        assert proxy._cache.peek("k") is entry and proxy.cache_invalidations == 0
        mark = len(proxy_trace)
        fabric.run(until=start + 5.5)
        assert proxy._cache.peek("k") is None and proxy.cache_invalidations == 1
        sends = [kind for what, _dest, kind in proxy_trace[mark:] if what == "send"]
        # The update goes to everyone, and the two frames to where the fill
        # asked (a quorum) carry the releases: no frame of their own.
        assert sends == [BATCH_KIND] * 3
        assert (proxy.releases_carried, proxy.releases_alone) == (2, 0)
        fabric.run()
        assert wrote == {"c2": "v2"}
        assert sum(s.write_deferrals for s in servers) == 0
        assert check_per_key_atomicity(recorder.histories()).all_atomic

    def test_a_round_the_fill_will_never_send_is_not_parked_behind_it(self):
        # The fill ended after a unanimous first round without a grant quorum
        # (its replicas had writes queued behind another proxy's lease), so a
        # concurrent read went to the replicas for round 1, saw a split
        # quorum, and asks for round 2: it must get it from the replicas, not
        # wait for a write-back this fill will never send.
        _, fabric, client, proxy, _ = build_memory_stack(use_proxy=True, read_cache=8)
        issue(fabric, client, OpKind.WRITE, "k", "v1", {})
        fabric.run(until=50.0)
        issue(fabric, client, OpKind.READ, "k", None, {})
        fabric.run(until=100.0)
        entry = proxy._cache.peek("k")
        assert entry.rounds.keys() == {1} and not entry.inflight
        entry.grants.clear()
        write_back = ProxySubRequest(
            "k", "read", "update", encode_tagged(Tag(1, "c9"), "v1"), "c9-read-1", 2,
        )
        effects = proxy.on_frame(make_proxy_request("c9", "p1", [write_back]))
        assert entry.followers == {}
        assert ("flush", "g1") in [e.timer_id for e in effects if isinstance(e, StartTimer)]

    def test_lru_bound_holds_under_more_keys_than_slots(self):
        _, fabric, client, proxy, _ = build_memory_stack(
            use_proxy=True, read_cache=2
        )
        seen = {}
        for index, key in enumerate(["a", "b", "c"]):
            issue(fabric, client, OpKind.WRITE, key, f"v{index}", seen)
            fabric.run(until=fabric.now + 30.0)
            issue(fabric, client, OpKind.READ, key, None, seen)
            fabric.run(until=fabric.now + 30.0)
        assert len(proxy._cache) <= 2
        assert proxy._cache.peek("a") is None  # least recently used, evicted


def lease_server(lease_ttl=500.0):
    """One GroupServerEngine hosting the default map's single shard."""
    shard_map = ShardMap(1, num_groups=1)
    group = shard_map.groups["g1"]
    spec = shard_map.shards_on("g1")[0]
    sid = group.servers[0]
    engine = GroupServerEngine(
        sid, group.protocol, {spec.shard_id: spec.epoch}, lease_ttl=lease_ttl
    )
    return engine, sid, spec.shard_id, spec.epoch


def lease_sub(sender, sid, shard, epoch, kind, key, payload, op_id, rt,
              nonce=None):
    return SubRequest(
        key=key,
        message=Message(sender=sender, receiver=sid, kind=kind,
                        payload=payload, op_id=op_id, round_trip=rt),
        shard=shard, epoch=epoch, lease=nonce,
    )


def sent(effects, kind):
    return [e for e in effects
            if isinstance(e, SendFrame) and e.frame.kind == kind]


class TestLeaseProtocolServer:
    """Direct frame-level pins on the server half of the lease protocol."""

    def test_grant_rides_the_batch_ack_and_echoes_the_fill_nonce(self):
        engine, sid, shard, epoch = lease_server()
        effects = engine.on_frame(make_batch("p1", sid, [
            lease_sub("c1", sid, shard, epoch, "query", "j", {}, "r0", 1),
            lease_sub("c1", sid, shard, epoch, "query", "k", {}, "r1", 1,
                      nonce="r1/7"),
        ]))
        (ack,) = [e for e in effects if isinstance(e, SendFrame)]
        assert ack.destination == "p1" and ack.frame.kind == BATCH_ACK_KIND
        assert ack.frame.payload["grants"] == [("k", "r1/7")]
        # No lease-marked sub, no grants.
        effects = engine.on_frame(make_batch("p1", sid, [
            lease_sub("c1", sid, shard, epoch, "query", "j", {}, "r2", 1),
        ]))
        assert "grants" not in sent(effects, BATCH_ACK_KIND)[0].frame.payload

    def test_a_frames_releases_apply_before_its_subs(self):
        engine, sid, shard, epoch = lease_server()
        engine.on_frame(make_batch("p1", sid, [
            lease_sub("c1", sid, shard, epoch, "query", "k", {}, "r1", 1,
                      nonce="r1/1"),
        ]))
        assert engine.lease_holders("k") == {"p1"}
        # A release and a later fill of the same key in one frame: the
        # fill's fresh lease stands.
        effects = engine.on_frame(make_batch("p1", sid, [
            lease_sub("c1", sid, shard, epoch, "query", "k", {}, "r2", 1,
                      nonce="r2/2"),
        ], releases=["k"]))
        assert engine.lease_holders("k") == {"p1"}
        assert sent(effects, BATCH_ACK_KIND)[0].frame.payload["grants"] == [
            ("k", "r2/2")
        ]
        # A release and a write from another client behind this proxy: the
        # write applies at once, it never defers against the released lease.
        effects = engine.on_frame(make_batch("p1", sid, [
            lease_sub("c2", sid, shard, epoch, "update", "k",
                      encode_tagged(Tag(1, "c2"), "v1"), "w1", 2),
        ], releases=["k"]))
        assert engine.write_deferrals == 0 and not engine.lease_holders("k")
        assert [reply.op_id for reply in unpack_batch_ack(
            sent(effects, BATCH_ACK_KIND)[0].frame)] == ["w1"]

    def test_fill_writeback_exempt_from_own_lease_only(self):
        engine, sid, shard, epoch = lease_server()
        engine.on_frame(make_batch("p1", sid, [
            lease_sub("c1", sid, shard, epoch, "query", "k", {}, "r1", 1,
                      nonce="r1/1"),
        ]))
        assert engine.lease_holders("k") == {"p1"}
        # The sender being the sole holder, its writeback sails through.
        effects = engine.on_frame(make_batch("p1", sid, [
            lease_sub("c1", sid, shard, epoch, "update", "k",
                      encode_tagged(Tag(1, "c1"), "v1"), "r1", 2,
                      nonce="r1/1"),
        ]))
        assert engine.write_deferrals == 0
        assert len(sent(effects, BATCH_ACK_KIND)) == 1

    def test_fill_writeback_defers_against_other_holders(self):
        engine, sid, shard, epoch = lease_server()
        # p2 caches the key first: p2 is a lease holder here.
        engine.on_frame(make_batch("p2", sid, [
            lease_sub("c2", sid, shard, epoch, "query", "k", {}, "r2", 1,
                      nonce="r2/1"),
        ]))
        assert engine.lease_holders("k") == {"p2"}
        # p1's lease-marked writeback must NOT slip past p2's lease: while
        # p2's granted entry stands, completing this write's read would let
        # two cache-served reads invert in real time.
        effects = engine.on_frame(make_batch("p1", sid, [
            lease_sub("c1", sid, shard, epoch, "update", "k",
                      encode_tagged(Tag(2, "c1"), "v2"), "w1", 2,
                      nonce="w1/1"),
        ]))
        assert engine.write_deferrals == 1
        assert engine.deferred_subs == 1
        assert not sent(effects, BATCH_ACK_KIND)
        chases = sent(effects, LEASE_INVALIDATE_KIND)
        assert [c.destination for c in chases] == ["p2"]
        # p2 releasing unblocks the writeback: it applies and acks to p1.
        effects = engine.on_frame(make_lease_release("p2", sid, ["k"]))
        acks = sent(effects, BATCH_ACK_KIND)
        assert len(acks) == 1 and acks[0].destination == "p1"
        assert engine.deferred_subs == 0

    def test_deferral_acks_served_subs_immediately(self):
        engine, sid, shard, epoch = lease_server()
        engine.on_frame(make_batch("p2", sid, [
            lease_sub("c2", sid, shard, epoch, "query", "k", {}, "r2", 1,
                      nonce="r2/1"),
        ]))
        # One frame carrying an innocent read of "j" and a write against
        # the leased "k": the read's reply must not wait out k's lease.
        effects = engine.on_frame(make_batch("p1", sid, [
            lease_sub("c1", sid, shard, epoch, "query", "j", {}, "r3", 1),
            lease_sub("c3", sid, shard, epoch, "update", "k",
                      encode_tagged(Tag(3, "c3"), "v3"), "w2", 2),
        ]))
        acks = sent(effects, BATCH_ACK_KIND)
        assert len(acks) == 1
        assert [reply.op_id for reply in unpack_batch_ack(acks[0].frame)] == ["r3"]
        # The deferred slot follows in its own ack once the holder clears.
        effects = engine.on_frame(make_lease_release("p2", sid, ["k"]))
        acks = sent(effects, BATCH_ACK_KIND)
        assert len(acks) == 1
        assert [reply.op_id for reply in unpack_batch_ack(acks[0].frame)] == ["w2"]


def grant_ack(server, proxy_id, key, nonce):
    """A reply-less batch-ack from ``server`` carrying one grant."""
    return make_batch_ack(Message(proxy_id, server, BATCH_KIND), [], [(key, nonce)])


class TestGrantAttribution:
    def test_stale_nonce_grant_is_dropped_not_credited(self):
        _, fabric, client, proxy, _ = build_memory_stack(
            use_proxy=True, read_cache=8
        )
        seen = {}
        issue(fabric, client, OpKind.WRITE, "k", "v1", seen)
        fabric.run(until=50.0)
        issue(fabric, client, OpKind.READ, "k", None, seen)
        fabric.run(until=100.0)
        entry = proxy._cache.peek("k")
        assert entry is not None and entry.nonce
        server, _ = sorted(entry.asked)
        (unasked,) = set(entry.route.servers) - entry.asked
        entry.grants.discard(server)
        # A grant for a *previous* fill of the key (wrong nonce) is neither
        # credited nor answered with a release -- the predecessor entry's
        # own eviction release retires that lease, and releasing again here
        # could clear the live fill's fresh lease at the replica.
        effects = proxy.on_frame(grant_ack(server, "p1", "k", "ghost/0"))
        assert server not in entry.grants
        assert effects == [] and proxy._releases == {}
        # The same grant with the live entry's nonce is credited.
        effects = proxy.on_frame(grant_ack(server, "p1", "k", entry.nonce))
        assert server in entry.grants
        # Not so from a replica the fill never asked: no lease can stand there.
        proxy.on_frame(grant_ack(unasked, "p1", "k", entry.nonce))
        assert unasked not in entry.grants
        # A grant for a key with no entry at all hands the lease back: it
        # joins the queue of the replica's group, and that flush -- with no
        # batch frame for the replica -- sends it in a frame of its own.
        effects = proxy.on_frame(grant_ack(server, "p1", "zzz", "ghost/1"))
        assert not sent(effects, LEASE_RELEASE_KIND)
        group_id = entry.route.group_id
        (release,) = proxy.on_timer(("flush", group_id))
        assert release.destination == server
        assert unpack_lease_release(release.frame)["keys"] == ["zzz"]
        assert (proxy.releases_carried, proxy.releases_alone) == (0, 1)

    def test_two_proxies_filling_one_key_stay_atomic(self):
        shard_map, fabric, client, proxy, recorder = build_memory_stack(
            use_proxy=True, read_cache=8
        )
        proxy2, client2 = add_proxy_stack(fabric, shard_map, recorder, "p2", "c2")
        direct = ClientSessionEngine(
            "d1", shard_map, recorder, policy=SIM_RETRY_POLICY
        )
        fabric.register("d1", direct)
        s1, s2, s3 = shard_map.groups["g1"].servers
        servers = group_servers(fabric, shard_map)
        seen = {}
        issue(fabric, client, OpKind.WRITE, "k", "v1", seen)
        fabric.run(until=50.0)
        # A direct write caught mid-flight: its update reaches s1 alone.
        def carries_update(frame):
            return any(sub.message.kind == "update" for sub in unpack_batch(frame))

        release = fabric.hold(
            lambda eff: (
                eff.frame.sender == "d1" and eff.destination in (s2, s3)
                and carries_update(eff.frame)
            ),
        )
        issue(fabric, direct, OpKind.WRITE, "k", "v2", seen)
        fabric.run(until=60.0)
        assert "d1" not in seen  # one update-ack short of a quorum
        # p1's second quorum-first flush asks {s2, s3}: unanimous on v1, so its
        # fill ends after round 1 holding leases on the two replicas it asked.
        issue(fabric, client, OpKind.READ, "k", None, seen)
        fabric.run(until=100.0)
        assert seen["c1"] == "v1"
        assert proxy._cache.peek("k").granted
        assert proxy._cache.peek("k").asked == {s2, s3}
        assert [s.lease_holders("k") for s in servers] == [set(), {"p1"}, {"p1"}]
        assert sum(s.write_deferrals for s in servers) == 0
        # p2's first flush asks {s1, s2} and sees {v2, v1}: a split quorum.
        # Its write-back of v2 is lease-marked, but p1's standing lease defers it like any
        # write -- completing it now would let p1 keep serving v1 *after*
        # c2's read returned v2.
        issue(fabric, client2, OpKind.READ, "k", None, seen)
        fabric.run(until=200.0)
        assert seen["c2"] == "v2"
        assert sum(s.write_deferrals for s in servers) >= 1
        # The invalidation chase tore both cached entries down.
        assert proxy._cache.peek("k") is None
        assert proxy2._cache.peek("k") is None
        release()
        fabric.run()
        assert seen["d1"] == "v2"
        assert not any(s.lease_holders("k") for s in servers)
        _, reads = recorder.histories()["k"].round_trip_counts()
        assert sorted(reads) == [1, 2]  # p1's unanimous fill, p2's split one
        assert check_per_key_atomicity(recorder.histories()).all_atomic

    def test_two_proxies_lease_one_key_at_once_and_one_write_clears_both(self):
        shard_map, fabric, client, proxy, recorder = build_memory_stack(
            use_proxy=True, read_cache=8
        )
        proxy2, client2 = add_proxy_stack(fabric, shard_map, recorder, "p2", "c2")
        servers = group_servers(fabric, shard_map)
        for sink_client, kind, value in [
            (client, OpKind.WRITE, "v1"),
            # Two unanimous fills: neither writes back, so neither defers
            # behind the other's lease and both entries stand side by side.
            (client, OpKind.READ, None),
            (client2, OpKind.READ, None),
        ]:
            issue(fabric, sink_client, kind, "k", value, {})
            fabric.run(until=fabric.now + 50.0)
        # Each lease stands on the quorum its fill asked (p1's second
        # quorum-first flush, p2's first), and any two quorums share a replica.
        assert [s.lease_holders("k") for s in servers] == [
            {"p2"}, {"p1", "p2"}, {"p1"}
        ]
        assert proxy._cache.peek("k").granted and proxy2._cache.peek("k").granted
        assert sum(s.write_deferrals for s in servers) == 0
        hits = {}
        for sink_client in (client, client2):
            issue(fabric, sink_client, OpKind.READ, "k", None, hits)
            fabric.run(until=fabric.now + 50.0)
        assert hits == {"c1": "v1", "c2": "v1"}
        assert (proxy.cache_hits, proxy2.cache_hits) == (1, 1)
        # One write through p2: p2 drops its own entry ahead of the update
        # round; the replicas defer that round behind p1's lease and chase
        # p1, whose eviction releases it.
        wrote = {}
        issue(fabric, client2, OpKind.WRITE, "k", "v2", wrote)
        fabric.run(until=fabric.now + 100.0)
        assert wrote == {"c2": "v2"}
        assert (proxy.cache_invalidations, proxy2.cache_invalidations) == (1, 1)
        assert sum(s.write_deferrals for s in servers) >= 1
        assert not any(s.lease_holders("k") for s in servers)
        after = {}
        for sink_client in (client, client2):
            issue(fabric, sink_client, OpKind.READ, "k", None, after)
        fabric.run()
        assert after == {"c1": "v2", "c2": "v2"}
        assert check_per_key_atomicity(recorder.histories()).all_atomic


class TestCacheSim:
    def test_zipf_hot_reads_cut_replica_read_subs(self):
        workload = generate_workload(
            num_clients=8, ops_per_client=120, num_keys=32,
            read_fraction=0.9, key_skew=1.2, seed=11,
        )
        shape = dict(
            num_shards=4, num_groups=2, proxies=1,
        )
        cold = run(KVRunConfig(**shape), workload)
        warm = run(KVRunConfig(read_cache=128, lease_ttl=480.0, **shape), workload)
        assert cold.check().all_atomic and warm.check().all_atomic
        assert warm.cache is not None and warm.cache["hits"] > 0
        ratio = cold.read_subs_per_op() / warm.read_subs_per_op()
        assert ratio >= 3.0, (
            f"cached reads only cut replica read sub-ops by {ratio:.2f}x "
            f"(hit rate {warm.cache_hit_rate():.1%})"
        )

    def test_cache_stays_atomic_under_kill_and_drain(self):
        workload = generate_workload(
            num_clients=6, ops_per_client=60, num_keys=24,
            read_fraction=0.7, key_skew=1.1, seed=7,
        )
        result = run(KVRunConfig(
            num_shards=4, num_groups=2, proxies=2,
            read_cache=64, lease_ttl=480.0,
            kill_proxy_after_ops=80, resize_to=6,
        ), workload)
        assert result.check().all_atomic
        assert result.completed_ops == 6 * 60
        assert result.cache is not None
        assert result.cache["invalidations"] >= 0

    def test_cached_reads_never_miss_a_completed_write(self):
        # A short lease makes entries expire and refill throughout the run,
        # and with two proxies a write through one must reach the other's
        # entry through the replicas' leases.  Whichever way a read was
        # served, it may not return a value older than a write that
        # completed before the read began.
        workload = generate_workload(
            num_clients=6, ops_per_client=80, num_keys=8,
            read_fraction=0.8, key_skew=1.0, seed=3,
        )
        result = run(KVRunConfig(
            num_shards=2, num_groups=1, proxies=2,
            read_cache=64, lease_ttl=60.0,
        ), workload)
        assert result.completed_ops == 6 * 80
        assert result.cache["hits"] > 0
        for key, history in result.histories.items():
            report = measure_staleness(history)
            assert report.max_version_lag == 0, (key, report.summary())
        assert result.check().all_atomic


class TestLeaseCrashSim:
    def test_a_direct_write_outwaits_a_crashed_proxys_lease(self):
        # A lease longer than max_round_timeouts silence windows: the write's
        # update is deferred behind it for longer than that, and completes
        # once the replicas expire the dead holder.  The writer's patience
        # for a mutating round covers a whole TTL and a window more.
        lease_ttl = 400.0
        shard_map = ShardMap(1, num_groups=1, readers=2, writers=2)
        cluster = SimKVCluster(
            shard_map, ["c1"], KVRunConfig(proxies=1, read_cache=8, lease_ttl=lease_ttl)
        )
        policy = cluster.retry_policy
        assert lease_ttl > policy.max_round_timeouts * policy.silence_window
        # A direct writer on a link of its own (c1's link is on the proxy).
        writer = cluster.client_engine("d1", cluster.recorder, proxy_candidates=[])
        cluster.fabric.register("d1", writer)
        now = lambda: cluster.fabric.now
        done = {}

        def write(_outcome):
            # The fill is granted; its proxy dies holding the leases.
            cluster.crash_proxy("p1")
            done["write-invoked"] = now()
            op_id, effects = writer.invoke(OpKind.WRITE, "k", "v2")
            cluster.fabric.callbacks[op_id] = lambda _: done.setdefault("write", now())
            cluster.fabric.execute("d1", effects)

        cluster.invoke(
            "c1", "put", "k", "v1", lambda _: cluster.invoke("c1", "get", "k", None, write)
        )
        cluster.run(until=10 * lease_ttl)
        logics = list(cluster.server_logics.values())
        assert sum(logic.write_deferrals for logic in logics) >= 1
        assert sum(logic.leases_expired for logic in logics) >= 1
        waited = done["write"] - done["write-invoked"]
        assert policy.max_round_timeouts * policy.silence_window < waited < lease_ttl
        verdict = check_per_key_atomicity(cluster.recorder.histories())
        assert verdict.all_atomic, verdict.summary()


class TestLeaseCrashAsyncio:
    def test_proxy_crash_unblocks_writers_within_lease_ttl(self):
        lease_ttl = 0.5

        async def scenario():
            shard_map = ShardMap(1, num_groups=1, readers=2, writers=2)
            cluster = AsyncKVCluster(shard_map, KVRunConfig(
                backend="asyncio", proxies=1, read_cache=8, lease_ttl=lease_ttl,
            ))
            await cluster.start()
            await cluster.start_proxies(1)
            proxy_id = next(iter(cluster.proxies))
            reader = KVStore(cluster, client_id="c1", use_proxy=proxy_id)
            await reader.connect()
            await reader.put("k", "v1")
            assert await reader.get("k") == "v1"
            logics = list(cluster.server_logics.values())
            holders = sum(bool(l.lease_holders("k")) for l in logics)
            assert holders >= 1
            # Kill the proxy while it holds leases on "k".  Nothing will
            # ever ack an invalidation for those leases; only the replicas'
            # own lease timers can clear them.
            await cluster.kill_proxy(proxy_id)
            writer = KVStore(cluster, client_id="c2")
            await writer.connect()
            start = time.monotonic()
            outcome = await writer.put("k", "v2")
            elapsed = time.monotonic() - start
            assert outcome.value == "v2"
            # The write was deferred behind the dead proxy's leases and
            # released by server-side expiry -- well before the proxy
            # round-timeout machinery would have given up.
            assert elapsed < lease_ttl + 1.5
            assert sum(l.write_deferrals for l in logics) >= 1
            assert sum(l.leases_expired for l in logics) >= 1
            # The write returned on a quorum, which need not include every
            # lease holder: a holder outside it keeps its lease until its
            # own timer fires, armed a moment after the first one's -- or
            # a garbage collection after, if one ran between the two.
            deadline = time.monotonic() + lease_ttl
            while sum(l.leases_expired for l in logics) < holders:
                assert time.monotonic() < deadline
                await asyncio.sleep(0.001)
            assert not any(l.lease_holders("k") for l in logics)
            assert await writer.get("k") == "v2"
            await writer.close()
            await reader.close()
            await cluster.stop()

        asyncio.run(scenario())
