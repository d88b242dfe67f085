"""Tests for the site-local ingress proxy tier (repro.kvstore.engine.proxy)."""

from __future__ import annotations

import asyncio

import pytest

from repro.kvstore import (
    AsyncKVCluster,
    BroadcastReads,
    CachedShardView,
    KVStore,
    BroadcastReads,
    KVRunConfig,
    NearestQuorum,
    ShardMap,
    check_per_key_atomicity,
    generate_workload,
    run,
)
from repro.sim.delays import GeoDelay


class TestCachedShardView:
    def test_resolves_like_the_map(self):
        shard_map = ShardMap(4, num_groups=2)
        view = CachedShardView(shard_map)
        for key in ("a", "b", "user:7", "zz"):
            spec = shard_map.shard_for(key)
            route = view.resolve(key)
            assert route.shard_id == spec.shard_id
            assert route.epoch == spec.epoch
            assert route.group_id == spec.group.group_id
            assert route.servers == tuple(spec.group.servers)
            assert route.quorum_size == spec.quorum_size

    def test_stays_stale_until_refreshed(self):
        shard_map = ShardMap(2, num_groups=2)
        view = CachedShardView(shard_map)
        before = view.ring_epoch
        plan = shard_map.resize(6)
        assert plan.fenced  # the resize really fenced donor shards
        # The authoritative map moved on; the snapshot must not have.
        assert view.ring_epoch == before
        assert shard_map.ring_epoch == before + 1
        stale = {key: view.resolve(key).epoch for key in ("a", "b", "c")}
        view.refresh()
        assert view.refreshes == 1
        assert view.ring_epoch == shard_map.ring_epoch
        for key in ("a", "b", "c"):
            fresh = view.resolve(key)
            assert fresh.epoch == shard_map.shard_for(key).epoch
            assert fresh.epoch >= stale[key]

    def test_apply_push_adopts_the_pushed_view(self):
        shard_map = ShardMap(2, num_groups=2)
        view = CachedShardView(shard_map)
        stale_epoch = view.ring_epoch
        plan = shard_map.resize(6)
        # The push alone (no refresh -- no access to the map) must bring the
        # view fully current: same routes as the authoritative map.
        assert view.apply_push(shard_map.view_delta(plan)) is True
        assert view.pushes_applied == 1
        assert view.refreshes == 0
        assert view.ring_epoch == shard_map.ring_epoch > stale_epoch
        for key in ("a", "b", "user:7", "zz"):
            spec = shard_map.shard_for(key)
            route = view.resolve(key)
            assert route.shard_id == spec.shard_id
            assert route.epoch == spec.epoch
            assert route.servers == tuple(spec.group.servers)

    def test_apply_push_drops_reordered_stale_pushes(self):
        shard_map = ShardMap(2, num_groups=2)
        view = CachedShardView(shard_map)
        old_delta = shard_map.view_delta(shard_map.resize(4))
        fresh_delta = shard_map.view_delta(shard_map.resize(6))
        assert view.apply_push(old_delta) is True
        assert view.apply_push(fresh_delta) is True
        # A delayed duplicate of the first push arriving late must not roll
        # routing back: its ring epoch is behind the view's.
        assert view.apply_push(old_delta) is False
        assert view.ring_epoch == shard_map.ring_epoch
        assert view.pushes_applied == 2
        assert view.deltas_skipped == 0
        for key in ("a", "b", "user:7", "zz"):
            assert view.resolve(key).shard_id == shard_map.shard_for(key).shard_id

    def test_apply_push_keeps_fresher_cached_shard_epochs(self):
        shard_map = ShardMap(2, num_groups=2)
        view = CachedShardView(shard_map)
        # sh1 leaves g1 and comes back.  A move leaves the ring epoch alone,
        # so both deltas apply even when they arrive out of order.
        moved_away = shard_map.view_delta(shard_map.move_shard("sh1", "g2"))
        moved_back = shard_map.view_delta(shard_map.move_shard("sh1", "g1"))
        assert view.apply_push(moved_back) is True
        # The view already knows sh1's later epoch; the older per-shard
        # route in the late push must not win.
        assert view.apply_push(moved_away) is True
        assert view._routes["sh1"].epoch == shard_map.shards["sh1"].epoch
        assert view._routes["sh1"].group_id == "g1"


class TestReadRoutingPolicies:
    def _sites(self, servers):
        # two replicas per site over three sites
        return {server: ("us", "eu", "ap")[i // 2] for i, server in enumerate(servers)}

    def test_broadcast_targets_everyone(self):
        servers = [f"g1-s{i}" for i in range(1, 6)]
        assert BroadcastReads().read_targets("p1", servers, 4) == servers

    def test_nearest_prefers_local_replicas(self):
        servers = [f"g1-s{i}" for i in range(1, 7)]
        sites = self._sites(servers)
        sites["p1"] = "eu"
        policy = NearestQuorum.from_sites(sites)
        targets = policy.read_targets("p1", servers, 4)
        assert len(targets) == 4
        # Both eu replicas come first; the two remote picks fill the quorum.
        assert set(targets[:2]) == {"g1-s3", "g1-s4"}

    def test_nearest_never_under_targets(self):
        servers = [f"g1-s{i}" for i in range(1, 4)]
        policy = NearestQuorum.from_sites({s: "us" for s in servers})
        assert len(policy.read_targets("p1", servers, 3)) == 3
        assert len(policy.read_targets("p1", servers, 5)) == 3  # capped at group

    def test_spare_widens_the_pick(self):
        servers = [f"g1-s{i}" for i in range(1, 7)]
        sites = self._sites(servers)
        sites["p1"] = "us"
        policy = NearestQuorum.from_sites(sites, spare=1)
        assert len(policy.read_targets("p1", servers, 4)) == 5

    def test_origins_spread_their_remote_picks(self):
        # 12 replicas all remote to both proxies: a naive lexicographic
        # tie-break would make every proxy hammer the same quorum.
        servers = [f"g1-s{i}" for i in range(1, 13)]
        policy = NearestQuorum.from_sites({s: "x" for s in servers})
        picks = {
            origin: tuple(policy.read_targets(origin, servers, 4))
            for origin in ("p1", "p2", "p3")
        }
        assert len(set(picks.values())) > 1
        for origin, targets in picks.items():  # deterministic per origin
            assert tuple(policy.read_targets(origin, servers, 4)) == targets

    def test_rejects_negative_spare(self):
        with pytest.raises(ValueError):
            NearestQuorum(lambda a, b: 1.0, spare=-1)


class TestSimProxiedWorkloads:
    def test_proxied_workload_is_atomic_and_cheaper_replica_side(self):
        workload = generate_workload(num_clients=4, ops_per_client=12,
                                     num_keys=16, seed=11, pipeline_depth=4)
        direct = run(KVRunConfig(num_shards=4, num_groups=2), workload)
        proxied = run(KVRunConfig(
            num_shards=4, num_groups=2,
            proxies=1, proxy_flush_delay=0.25,
        ), workload)
        for result in (direct, proxied):
            assert result.completed_ops == workload.total_operations()
            verdict = check_per_key_atomicity(result.histories)
            assert verdict.all_atomic, verdict.summary()
        assert proxied.num_proxies == 1
        assert proxied.proxy_stats is not None
        # Cross-client merging: the proxy's frames per op beat the K clients'
        # direct fan-out decisively.
        assert proxied.replica_frames < direct.replica_frames / 1.5
        # The proxy merged rounds from more than one client into one frame.
        assert proxied.proxy_stats.largest > proxied.batch_stats.largest or \
            proxied.proxy_stats.mean_batch_size > 1.0

    def test_per_key_atomicity_through_proxies_during_resize_with_crashes(self):
        workload = generate_workload(num_clients=4, ops_per_client=15,
                                     num_keys=16, seed=5, pipeline_depth=4)
        # push_views off: this test exercises the *bounce* path (the safety
        # net), so the proxies must discover the cutover the hard way.
        result = run(KVRunConfig(
            num_shards=4, num_groups=2,
            proxies=2, proxy_flush_delay=0.25,
            resize_to=8, crashes_per_group=1, push_views=False,
        ), workload)
        assert result.completed_ops == workload.total_operations()
        assert result.resize is not None and result.resize["to"] == 8
        # The proxies' cached views went stale at the cutover and recovered.
        assert result.stale_replays >= 1
        verdict = check_per_key_atomicity(result.histories)
        assert verdict.all_atomic, verdict.summary()

    def test_nearest_quorum_routing_stays_atomic_under_geo_delays(self):
        workload = generate_workload(num_clients=3, ops_per_client=10,
                                     num_keys=12, seed=7, pipeline_depth=4)
        shard_map = ShardMap(4, num_groups=1, servers_per_shard=6, max_faults=2,
                             readers=3, writers=3)
        sites = {s: ("us", "eu", "ap")[i // 2]
                 for i, s in enumerate(shard_map.all_servers)}
        for i, client in enumerate(workload.clients):
            sites[client] = ("us", "eu", "ap")[i % 3]
        for i in range(1, 4):
            sites[f"p{i}"] = ("us", "eu", "ap")[i - 1]
        result = run(KVRunConfig(
            shard_map=shard_map,
            delay_model=GeoDelay(sites, local_delay=0.5, wan_delay=40.0, seed=1),
            proxies=3,
            read_policy=NearestQuorum.from_sites(sites),
        ), workload)
        assert result.completed_ops == workload.total_operations()
        assert result.check().all_atomic
        # Reads were restricted: the replicas served fewer sub-requests than
        # a broadcast's.  (Frame counts are no measure here: the geo delays
        # are drawn per frame, so the two runs batch on different schedules.)
        broadcast = run(KVRunConfig(
            shard_map=ShardMap(4, num_groups=1, servers_per_shard=6,
                                         max_faults=2, readers=3, writers=3),
            delay_model=GeoDelay(sites, local_delay=0.5, wan_delay=40.0, seed=1),
            proxies=3, read_policy=BroadcastReads(),
        ), workload)
        assert result.replica_sub_ops < broadcast.replica_sub_ops


    def test_broadcast_reads_opts_out_of_quorum_first_entirely(self):
        # With an explicit BroadcastReads() nothing is narrowed: the proxies
        # put on the wire what they did before rounds went quorum-first.  The
        # totals below were measured at that commit (a898a8b, where broadcast
        # was the default), and the proxy -> replica batch frames were compared
        # sub-request by sub-request when this test was written.  The message
        # totals have since lost 47 and 51 frames: the proxy answers all the
        # rounds an input completes for one client in one proxy-ack.  Since
        # then a proxy also sends one query per key per flush: the riders
        # cut the sub-ops (699 -> 537 and 1318 -> 1298), and the replicas,
        # served sooner, shift the ties the merges of the rough run rode.
        # Since the simulator's clients share one link, as a process's stores
        # do on asyncio, the link's proxy leg sends those queries once: the
        # riders are the link's now, not the proxy's, and the client -> proxy
        # frames and proxy-acks they merged went (942 -> 783, 2881 -> 2618;
        # the rough run's replica frames 960 -> 906, sub-ops 1298 -> 1212).
        def run_seed(seed, **extra):
            workload = generate_workload(
                num_clients=8, ops_per_client=25, num_keys=64, read_fraction=0.9,
                key_skew=1.2, pipeline_depth=4, seed=seed,
            )
            return run(KVRunConfig(
                num_shards=4, num_groups=2,
                read_policy=BroadcastReads(), **extra,
            ), workload)

        plain = run_seed(7, proxies=1)
        rough = run_seed(5, proxies=2, resize_to=8, crashes_per_group=1,
                         push_views=False)
        for result, frames, sub_ops, messages in [
            (plain, 303, 537, 783), (rough, 906, 1212, 2618),
        ]:
            assert result.check().all_atomic
            assert result.proxy_stats.rounds_narrow == 0
            assert result.batch_stats.rounds_coalesced > 0
            assert (result.replica_frames, result.replica_sub_ops,
                    result.messages_sent) == (frames, sub_ops, messages)
        # The default asks for less of the replicas on the same workload.
        workload = generate_workload(
            num_clients=8, ops_per_client=25, num_keys=64, read_fraction=0.9,
            key_skew=1.2, pipeline_depth=4, seed=7,
        )
        default = run(KVRunConfig(
            num_shards=4, num_groups=2, proxies=1,
        ), workload)
        assert default.check().all_atomic
        assert default.proxy_stats.rounds_narrow > 0
        assert default.proxy_stats.rounds_widened == 0
        assert default.replica_sub_ops < 0.75 * plain.replica_sub_ops


class TestAsyncioProxiedWorkloads:
    def test_proxied_workload_is_atomic(self):
        workload = generate_workload(num_clients=3, ops_per_client=10,
                                     num_keys=12, seed=3, pipeline_depth=4)
        result = run(KVRunConfig(
            backend="asyncio", num_shards=4, num_groups=2, proxies=2,
        ), workload)
        assert result.completed_ops == workload.total_operations()
        verdict = check_per_key_atomicity(result.histories)
        assert verdict.all_atomic, verdict.summary()
        assert result.num_proxies == 2
        assert result.proxy_stats is not None
        assert result.replica_frames > 0

    def test_proxied_live_resize_replays_transparently(self):
        workload = generate_workload(num_clients=2, ops_per_client=12,
                                     num_keys=10, seed=9, pipeline_depth=4)
        result = run(KVRunConfig(
            backend="asyncio", num_shards=4, num_groups=2,
            proxies=1, resize_to=8,
        ), workload)
        assert result.completed_ops == workload.total_operations()
        assert result.resize is not None and result.resize["to"] == 8
        assert result.check().all_atomic

    def test_store_facade_through_proxy(self):
        async def scenario():
            cluster = AsyncKVCluster(ShardMap(2, num_groups=2))
            await cluster.start()
            await cluster.start_proxies(1)
            store = KVStore(cluster, client_id="c1", use_proxy=True)
            await store.connect()
            try:
                await store.put("user:7", "ada")
                assert await store.get("user:7") == "ada"
                assert await store.get("missing") is None
                await store.multi_put({"a": 1, "b": 2, "c": 3, "d": 4})
                assert await store.multi_get(["a", "b", "c", "d"]) == \
                    {"a": 1, "b": 2, "c": 3, "d": 4}
                verdict = store.check()
                assert verdict.all_atomic, verdict.summary()
                # One connection, no per-replica fan-out client-side: every
                # frame this store sent went to the proxy.
                assert store.frames_sent() < store.frames_total()
            finally:
                await store.close()
                await cluster.stop()

        asyncio.run(scenario())

    def test_use_proxy_requires_started_proxies(self):
        async def scenario():
            cluster = AsyncKVCluster(ShardMap(1))
            await cluster.start()
            store = KVStore(cluster, use_proxy=True)
            try:
                with pytest.raises(RuntimeError, match="no proxies"):
                    await store.connect()
            finally:
                await cluster.stop()

        asyncio.run(scenario())

    def test_unexpected_serve_error_surfaces_instead_of_hanging(self):
        from repro.core.errors import ProtocolError

        async def scenario():
            cluster = AsyncKVCluster(ShardMap(1))
            await cluster.start()
            await cluster.start_proxies(1)
            store = KVStore(cluster, client_id="c1", use_proxy=True)
            await store.connect()
            try:
                # Break the proxy engine's dispatch path with an error
                # outside the retryable classes: the client must get an
                # error ack (and raise), never await a reply that can't
                # come.
                proxy = cluster.proxies["p1"]

                def boom(*args, **kwargs):
                    raise ValueError("codec exploded")

                proxy.view.resolve = boom
                with pytest.raises(ProtocolError, match="ValueError"):
                    await asyncio.wait_for(store.put("k", "v"), timeout=10.0)
            finally:
                await store.close()
                await cluster.stop()

        asyncio.run(scenario())

    def test_proxy_can_be_picked_by_id(self):
        async def scenario():
            cluster = AsyncKVCluster(ShardMap(1))
            await cluster.start()
            ids = await cluster.start_proxies(2)
            assert ids == ["p1", "p2"]
            store = KVStore(cluster, client_id="c1", use_proxy="p2")
            await store.connect()
            try:
                await store.put("k", "v")
                assert await store.get("k") == "v"
                assert list(store._link.endpoint.peers) == ["p2"]
            finally:
                await store.close()
                await cluster.stop()

        asyncio.run(scenario())
