"""Tests for resilient ingress: proxy failover + control-plane view push.

Covers the two halves of the fault-tolerant proxy tier on both backends:

* **Failover** -- a client whose ingress proxy dies mid-round re-dials
  another proxy of the same site (or falls back to direct replica
  connections when the site's list is exhausted) and replays its in-flight
  rounds under a fresh attempt scope, with per-key atomicity intact -- also
  concurrently with a live resize and replica crash injection.
* **View push** -- the control plane pushes ring/epoch deltas to the
  proxies at each rebalance, so a steady-state resize costs zero
  stale-epoch replays (the bounce fence stays on as the safety net).
* **Replica loss** -- a group that loses its quorum for a while (more
  replicas down than the fault budget) costs the rounds caught in it a
  retry-and-replay, not an error, whether the client is direct or proxied;
  a replica that dies with quorum-first reads on the wire costs them a
  silence window and a widening, and more dead replicas than the fault
  budget fail them within a bounded number of windows instead of hanging.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings, strategies as st

from repro.kvstore import (
    AsyncKVCluster,
    KVRunConfig,
    KVStore,
    RetryPolicy,
    ShardMap,
    SimKVCluster,
    attempt_scoped_id,
    check_per_key_atomicity,
    generate_workload,
    parse_attempt_scoped_id,
    run,
)
from repro.core.errors import ProtocolError
from repro.messages import BATCH_KIND, unpack_batch
from repro.observe import TIMER_ARMED

#: Shrinks every reconnect/failover window so kill/restart scenarios settle
#: in well under a second instead of sleeping out the ~5 s default.
FAST_RETRY = RetryPolicy(
    reconnect_interval=0.02,
    max_transient_retries=50,
    max_round_timeouts=3,
    silence_window=0.1,
)


class TestAttemptScopedIds:
    @settings(max_examples=80, deadline=None)
    @given(op_id=st.text(max_size=40), attempt=st.integers(0, 10**9))
    def test_round_trip(self, op_id, attempt):
        scoped = attempt_scoped_id(op_id, attempt)
        assert parse_attempt_scoped_id(scoped) == (op_id, attempt)

    @settings(max_examples=80, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.text(max_size=20), st.integers(0, 999)),
            min_size=2,
            max_size=6,
            unique=True,
        )
    )
    def test_distinct_pairs_never_collide(self, pairs):
        scoped = [attempt_scoped_id(op_id, attempt) for op_id, attempt in pairs]
        assert len(set(scoped)) == len(pairs)

    def test_nested_scoping_parses_level_by_level(self):
        # The client scopes per failover generation, the proxy scopes the
        # result again per replay attempt; each level must peel off exactly.
        once = attempt_scoped_id("c1-read-7", 3)
        twice = attempt_scoped_id(once, 5)
        assert parse_attempt_scoped_id(twice) == (once, 5)
        assert parse_attempt_scoped_id(once) == ("c1-read-7", 3)

    def test_separator_in_op_id_stays_unambiguous(self):
        # An op id that *looks* already scoped must not be confused with a
        # genuinely nested scope of its prefix.
        assert attempt_scoped_id("op@a1", 2) != "op@a1@a2"
        assert parse_attempt_scoped_id(attempt_scoped_id("op@a1", 2)) == ("op@a1", 2)
        assert parse_attempt_scoped_id(attempt_scoped_id("%40@a", 0)) == ("%40@a", 0)

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_attempt_scoped_id("no-separator")
        with pytest.raises(ValueError):
            parse_attempt_scoped_id("op@anan")
        with pytest.raises(ValueError):
            attempt_scoped_id("op", -1)


def _manual_sim_ops(cluster: SimKVCluster, plan):
    """Issue ``(client_id, kind, key, value)`` ops closed-loop per client."""
    by_client = {}
    for client_id, kind, key, value in plan:
        by_client.setdefault(client_id, []).append((kind, key, value))

    def make_issuer(client, remaining):
        def issue_next(_outcome=None):
            if not remaining:
                return
            kind, key, value = remaining.pop(0)
            if kind == "put":
                client.put(key, value, on_complete=issue_next)
            else:
                client.get(key, on_complete=issue_next)

        return issue_next

    for client_id, remaining in by_client.items():
        issuer = make_issuer(cluster.clients[client_id], remaining)
        cluster.events.schedule(0.0, issuer, label=f"start:{client_id}")


class TestSimProxyFailover:
    def test_workload_survives_proxy_kill_mid_run(self):
        workload = generate_workload(num_clients=4, ops_per_client=12,
                                     num_keys=16, seed=3, pipeline_depth=4)
        result = run(KVRunConfig(
            num_shards=4, num_groups=2,
            proxies=2, kill_proxy_after_ops=10,
        ), workload)
        # Zero client-visible errors: every scheduled op completed.
        assert result.completed_ops == workload.total_operations()
        assert result.proxy_kill is not None
        assert result.proxy_kill["killed"] == ["p1"]
        assert result.proxy_failovers >= 1
        verdict = check_per_key_atomicity(result.histories)
        assert verdict.all_atomic, verdict.summary()

    def test_exhausted_proxy_list_falls_back_to_direct(self):
        shard_map = ShardMap(2, num_groups=2, readers=2, writers=2)
        cluster = SimKVCluster(shard_map, ["c1", "c2"], num_proxies=1,
                               proxy_timeout=30.0)
        plan = []
        for i in range(8):
            plan.append(("c1", "put", f"k{i % 3}", f"a{i}"))
            plan.append(("c2", "put", f"k{i % 3}", f"b{i}"))
            plan.append(("c1", "get", f"k{i % 3}", None))
        _manual_sim_ops(cluster, plan)
        cluster.schedule_proxy_crash("p1", at=5.0)
        cluster.run()
        assert cluster.recorder.completed_operations == len(plan)
        # The only proxy of the site is dead: both clients went direct.
        for client in cluster.clients.values():
            assert client.proxy_id is None
            assert client.proxy_failovers >= 1
        verdict = check_per_key_atomicity(cluster.recorder.histories())
        assert verdict.all_atomic, verdict.summary()

    def test_failover_stays_within_the_site(self):
        shard_map = ShardMap(2, num_groups=2, readers=2, writers=2)
        sites = {"c1": "us", "c2": "eu", "p1": "us", "p2": "us", "p3": "eu"}
        cluster = SimKVCluster(shard_map, ["c1", "c2"], num_proxies=3,
                               sites=sites, proxy_timeout=30.0)
        assert cluster.clients["c1"].proxy_id in ("p1", "p2")
        assert cluster.clients["c2"].proxy_id == "p3"
        plan = [("c1", "put", f"u{i}", f"v{i}") for i in range(10)]
        plan += [("c2", "put", f"e{i}", f"w{i}") for i in range(10)]
        _manual_sim_ops(cluster, plan)
        # Kill every client's current proxy mid-run.
        cluster.schedule_proxy_crash(cluster.clients["c1"].proxy_id, at=4.0)
        cluster.schedule_proxy_crash("p3", at=4.0)
        cluster.run()
        assert cluster.recorder.completed_operations == len(plan)
        # c1 re-dialed the us sibling; c2's site was exhausted -> direct.
        assert cluster.clients["c1"].proxy_id in ("p1", "p2")
        assert cluster.clients["c1"].proxy_id not in cluster.crashed_proxies
        assert cluster.clients["c2"].proxy_id is None
        verdict = check_per_key_atomicity(cluster.recorder.histories())
        assert verdict.all_atomic, verdict.summary()

    def test_failover_concurrent_with_resize_and_replica_crashes(self):
        workload = generate_workload(num_clients=4, ops_per_client=15,
                                     num_keys=16, seed=8, pipeline_depth=4)
        result = run(KVRunConfig(
            num_shards=4, num_groups=2,
            proxies=2,
            resize_to=8, crashes_per_group=1,
            kill_proxy_after_ops=20,
        ), workload)
        assert result.completed_ops == workload.total_operations()
        assert result.resize is not None and result.resize["to"] == 8
        assert result.proxy_failovers >= 1
        verdict = check_per_key_atomicity(result.histories)
        assert verdict.all_atomic, verdict.summary()


class TestSimReplicaLoss:
    def test_a_direct_write_with_too_many_replicas_down_fails_in_its_windows(self):
        # More than t replicas of the group crash silently just after the
        # write's update leaves: nothing reports the loss and no quorum can
        # form, so the silence timer gives the update up once its windows
        # are spent instead of leaving the write waiting forever.
        shard_map = ShardMap(1, num_groups=1, readers=1, writers=1)
        cluster = SimKVCluster(shard_map, ["c1"])
        policy = cluster.retry_policy
        victims = shard_map.groups["g1"].servers[1:]
        send = cluster.network.send
        sent_at = []

        def send_then_crash(message):
            send(message)
            if (message.kind == BATCH_KIND and not sent_at and any(
                    sub.message.kind == "update" for sub in unpack_batch(message))):
                sent_at.append(cluster.events.clock.now)
                for victim in victims:
                    cluster.network.crash(victim)

        cluster.network.send = send_then_crash
        cluster.clients["c1"].put("k", "v")
        window = policy.silence_window
        with pytest.raises(ProtocolError, match="no quorum"):
            # A cap on virtual time: a write nothing watches would wait forever.
            cluster.run(until=100 * window)
        waited = cluster.events.clock.now - sent_at[0]
        assert policy.max_round_timeouts * window <= waited
        assert waited <= (policy.max_round_timeouts + 1) * window


class TestSimViewPush:
    def _two_phase(self, push_views: bool):
        """Ops, quiesce, live resize, more ops -- steady-state staleness."""
        shard_map = ShardMap(4, num_groups=2, readers=2, writers=2)
        cluster = SimKVCluster(shard_map, ["c1", "c2"], num_proxies=2,
                               push_views=push_views)
        phase1 = [("c1", "put", f"k{i}", f"v{i}") for i in range(6)]
        phase1 += [("c2", "put", f"q{i}", f"w{i}") for i in range(6)]
        _manual_sim_ops(cluster, phase1)
        cluster.run()
        cluster.resize(8)
        phase2 = [("c1", "get", f"k{i}", None) for i in range(6)]
        phase2 += [("c2", "get", f"q{i}", None) for i in range(6)]
        _manual_sim_ops(cluster, phase2)
        cluster.run()
        assert cluster.recorder.completed_operations == len(phase1) + len(phase2)
        verdict = check_per_key_atomicity(cluster.recorder.histories())
        assert verdict.all_atomic, verdict.summary()
        return cluster

    def test_push_makes_a_steady_state_resize_bounce_free(self):
        cluster = self._two_phase(push_views=True)
        assert cluster.view_pushes_sent == 2
        assert cluster.view_pushes_applied() == 2
        assert cluster.stale_replays() == 0

    def test_without_push_the_bounce_safety_net_pays_per_proxy(self):
        cluster = self._two_phase(push_views=False)
        assert cluster.view_pushes_applied() == 0
        assert cluster.stale_replays() >= 1

    def test_crashed_proxy_misses_the_push_harmlessly(self):
        shard_map = ShardMap(2, num_groups=2, readers=2, writers=2)
        cluster = SimKVCluster(shard_map, ["c1"], num_proxies=2,
                               proxy_timeout=30.0)
        cluster.crash_proxy("p2")
        cluster.resize(4)
        cluster.run()
        assert cluster.proxies["p1"].view.pushes_applied == 1
        assert cluster.proxies["p2"].view.pushes_applied == 0


class TestAsyncioProxyFailover:
    def test_store_fails_over_to_site_sibling_mid_round(self):
        async def scenario():
            shard_map = ShardMap(4, num_groups=2, readers=2, writers=2)
            cluster = AsyncKVCluster(shard_map, retry_policy=FAST_RETRY)
            await cluster.start()
            await cluster.start_proxies(2)
            store = KVStore(cluster, client_id="c1", use_proxy="p1")
            await store.connect()
            try:
                async def hammer(tag: str) -> None:
                    for i in range(6):
                        await store.put(f"k{i % 3}", f"{tag}-{i}")
                        assert await store.get(f"k{i % 3}") == f"{tag}-{i}"

                await hammer("before")
                # Kill the proxy with operations in flight.
                killer = asyncio.create_task(cluster.kill_proxy("p1"))
                await hammer("during")
                await killer
                await hammer("after")
                assert store.proxy_failovers == 1
                assert list(store._link.endpoint.peers) == ["p2"]
                verdict = store.check()
                assert verdict.all_atomic, verdict.summary()
            finally:
                await store.close()
                await cluster.stop()

        asyncio.run(scenario())

    def test_exhausted_site_falls_back_to_direct_connections(self):
        async def scenario():
            cluster = AsyncKVCluster(ShardMap(2, num_groups=2),
                                     retry_policy=FAST_RETRY)
            await cluster.start()
            await cluster.start_proxies(1)
            store = KVStore(cluster, client_id="c1", use_proxy=True)
            await store.connect()
            try:
                await store.put("k", "v1")
                await cluster.kill_proxy("p1")
                await store.put("k", "v2")
                assert await store.get("k") == "v2"
                assert store.proxy_failovers == 1
                # The link's replica connections, and the lost proxy's gone.
                assert set(store._link.endpoint.peers) == set(cluster.replicas)
                verdict = store.check()
                assert verdict.all_atomic, verdict.summary()
            finally:
                await store.close()
                await cluster.stop()

        asyncio.run(scenario())

    def test_direct_fallback_with_a_replica_down_does_not_wedge(self):
        # The nasty coincidence failover exists for: the site's last proxy
        # dies while a replica is ALSO down.  The fallback's direct dials
        # must ride out the dead replica (quorums of S - t survive) instead
        # of erroring the client or wedging the store half-connected.
        async def scenario():
            shard_map = ShardMap(2, num_groups=2, readers=2, writers=2)
            cluster = AsyncKVCluster(shard_map, retry_policy=FAST_RETRY)
            await cluster.start()
            await cluster.start_proxies(1)
            store = KVStore(cluster, client_id="c1", use_proxy=True)
            await store.connect()
            try:
                await store.put("k", "v1")
                victim = shard_map.groups["g1"].servers[0]
                await cluster.kill_server(victim)
                await cluster.kill_proxy("p1")
                for i in range(4):
                    await store.put(f"k{i}", f"v{i}")
                    assert await store.get(f"k{i}") == f"v{i}"
                assert store.proxy_failovers == 1
                # Fully connected direct: every replica but the dead one.
                assert set(store._link.endpoint.peers) == set(cluster.replicas) - {victim}
                verdict = store.check()
                assert verdict.all_atomic, verdict.summary()
            finally:
                await store.close()
                await cluster.stop()

        asyncio.run(scenario())

    def test_kill_and_restart_proxy_rebinds_the_same_endpoint(self):
        async def scenario():
            cluster = AsyncKVCluster(ShardMap(2), retry_policy=FAST_RETRY)
            await cluster.start()
            await cluster.start_proxies(1)
            endpoint = cluster.proxy_endpoint("p1")
            await cluster.kill_proxy("p1")
            assert not cluster.proxies["p1"].running
            await cluster.restart_proxy("p1")
            assert cluster.proxies["p1"].running
            assert cluster.proxy_endpoint("p1") == endpoint
            # A fresh store connects to the restarted proxy and operates.
            store = KVStore(cluster, client_id="c1", use_proxy="p1")
            await store.connect()
            try:
                await store.put("k", "v")
                assert await store.get("k") == "v"
            finally:
                await store.close()
                await cluster.stop()

        asyncio.run(scenario())

    def test_candidates_are_scoped_per_site(self):
        async def scenario():
            cluster = AsyncKVCluster(ShardMap(1))
            await cluster.start()
            us = await cluster.start_proxies(2, site="us")
            eu = await cluster.start_proxies(1, site="eu")
            assert us == ["p1", "p2"] and eu == ["p3"]
            assert cluster.proxy_candidates("p2") == ["p2", "p1"]
            assert cluster.proxy_candidates("p3") == ["p3"]
            await cluster.stop()

        asyncio.run(scenario())

    def test_workload_runner_survives_a_proxy_kill(self):
        workload = generate_workload(num_clients=3, ops_per_client=10,
                                     num_keys=12, seed=6, pipeline_depth=4)
        result = run(KVRunConfig(
            backend="asyncio", num_shards=4, num_groups=2,
            proxies=2,
            kill_proxy_after_ops=10, retry_policy=FAST_RETRY,
        ), workload)
        assert result.completed_ops == workload.total_operations()
        assert result.proxy_kill is not None and result.proxy_kill["killed"]
        assert result.proxy_failovers >= 1
        verdict = check_per_key_atomicity(result.histories)
        assert verdict.all_atomic, verdict.summary()


class _ArmedTimers:
    """A hub sink collecting ``(tier, timer kind)`` of every armed timer."""

    def __init__(self) -> None:
        self.armed = set()

    def handle(self, event) -> None:
        if event.kind == TIMER_ARMED:
            self.armed.add((event.tier, event.attrs["timer"]))


class TestAsyncioReplicaLoss:
    @pytest.mark.parametrize("use_proxy", [False, True], ids=["direct", "proxied"])
    def test_a_lost_quorum_is_ridden_out_inside_the_transient_window(self, use_proxy):
        # The retry path of the replica-round multiplexer on real sockets:
        # two of a group's three replicas die mid-workload and come back
        # inside the window, and no client ever sees an error.
        async def scenario():
            shard_map = ShardMap(1, num_groups=1, readers=1, writers=1)
            cluster = AsyncKVCluster(shard_map, retry_policy=FAST_RETRY)
            timers = cluster.hub.add_sink(_ArmedTimers())
            await cluster.start()
            if use_proxy:
                await cluster.start_proxies(1)
            store = KVStore(cluster, client_id="c1",
                            use_proxy="p1" if use_proxy else None)
            await store.connect()
            try:
                keys = [f"k{i}" for i in range(4)]
                for key in keys:
                    await store.put(key, "before")
                victims = shard_map.groups["g1"].servers[:2]
                for victim in victims:
                    await cluster.kill_server(victim)
                await asyncio.sleep(0.1)  # the connections notice the deaths
                during = [
                    asyncio.create_task(store.put(key, "during")) for key in keys
                ]
                await asyncio.sleep(5 * FAST_RETRY.reconnect_interval)
                # One live replica is no quorum: the rounds are in retry.
                assert not any(task.done() for task in during)
                for victim in victims:
                    await cluster.restart_server(victim)
                await asyncio.wait_for(
                    asyncio.gather(*during), FAST_RETRY.transient_window
                )
                for key in keys:
                    assert await store.get(key) == "during"
                verdict = store.check()
                assert verdict.all_atomic, verdict.summary()
                return timers.armed
            finally:
                await store.close()
                await cluster.stop()

        armed = asyncio.run(scenario())
        assert (("proxy", "pretry") if use_proxy else ("client", "retry")) in armed

    @staticmethod
    async def _reads_in_flight(cluster, store, keys):
        """One read per key, each in its own flush (so the quorums they ask
        rotate over the group), all of them held inside the replicas."""
        reads = []
        for key in keys:
            reads.append(asyncio.create_task(store.get(key)))
            await asyncio.sleep(0.002)
        await asyncio.sleep(0.01)
        assert not any(task.done() for task in reads)
        return reads

    @pytest.mark.parametrize("use_proxy", [False, True], ids=["direct", "proxied"])
    def test_a_replica_killed_under_reads_in_flight_widens_them(self, use_proxy):
        # The frames were on the wire before the replica died, so no send
        # fails and nothing reports the loss: the rounds that asked it sit
        # one reply short until the silence window ends, and then ask the
        # third replica.
        async def scenario():
            shard_map = ShardMap(1, num_groups=1, readers=1, writers=1)
            cluster = AsyncKVCluster(shard_map, retry_policy=FAST_RETRY,
                                     service_overhead=0.05)
            await cluster.start()
            if use_proxy:
                await cluster.start_proxies(1)
            store = KVStore(cluster, client_id="c1",
                            use_proxy="p1" if use_proxy else None)
            await store.connect()
            try:
                keys = [f"k{i}" for i in range(6)]
                for key in keys:
                    await store.put(key, "before")
                reads = await self._reads_in_flight(cluster, store, keys)
                await cluster.kill_server(shard_map.groups["g1"].servers[0])
                values = await asyncio.wait_for(
                    asyncio.gather(*reads), 20 * FAST_RETRY.silence_window
                )
                assert values == ["before"] * len(keys)
                verdict = store.check()
                assert verdict.all_atomic, verdict.summary()
                owner = cluster.proxies["p1"].engine if use_proxy else store.engine.link
                return owner.stats, cluster.metrics.snapshot()
            finally:
                await store.close()
                await cluster.stop()

        stats, metrics = asyncio.run(scenario())
        assert stats.rounds_narrow >= 6 and stats.rounds_widened >= 1
        tier = "proxy" if use_proxy else "client"
        assert metrics[tier]["counters"]["rounds_widened"] == stats.rounds_widened

    def test_more_dead_replicas_than_the_fault_budget_fail_reads_not_hang_them(self):
        async def scenario():
            shard_map = ShardMap(1, num_groups=1, readers=1, writers=1)
            cluster = AsyncKVCluster(shard_map, retry_policy=FAST_RETRY,
                                     service_overhead=0.05)
            await cluster.start()
            store = KVStore(cluster, client_id="c1")
            await store.connect()
            try:
                keys = [f"k{i}" for i in range(6)]
                for key in keys:
                    await store.put(key, "before")
                reads = await self._reads_in_flight(cluster, store, keys)
                for victim in shard_map.groups["g1"].servers[:2]:
                    await cluster.kill_server(victim)
                # Widened after at most two windows, given up on
                # max_round_timeouts windows later (one more of slack).
                windows = 2 + FAST_RETRY.max_round_timeouts + 1
                outcomes = await asyncio.wait_for(
                    asyncio.gather(*reads, return_exceptions=True),
                    windows * FAST_RETRY.silence_window,
                )
                # A read issued now finds the dead connections at once and
                # gives up when the reconnect window is spent.
                with pytest.raises((ConnectionError, ProtocolError)):
                    await asyncio.wait_for(
                        store.get("k0"), 2 * FAST_RETRY.transient_window
                    )
                return outcomes, store.engine.link.stats
            finally:
                await store.close()
                await cluster.stop()

        outcomes, stats = asyncio.run(scenario())
        assert all(isinstance(outcome, ProtocolError) for outcome in outcomes)
        assert all("no quorum" in str(outcome) for outcome in outcomes)
        assert stats.rounds_widened >= len(outcomes)


class TestAsyncioViewPush:
    def _two_phase(self, push_views: bool):
        async def scenario():
            shard_map = ShardMap(4, num_groups=2, readers=2, writers=2)
            cluster = AsyncKVCluster(shard_map, retry_policy=FAST_RETRY,
                                     push_views=push_views)
            await cluster.start()
            await cluster.start_proxies(2)
            stores = []
            try:
                for index in range(2):
                    store = KVStore(cluster, client_id=f"c{index + 1}",
                                    use_proxy=True)
                    await store.connect()
                    stores.append(store)
                for i in range(6):
                    await stores[i % 2].put(f"k{i}", f"v{i}")
                cluster.resize(8)
                await cluster.flush_view_pushes()
                for i in range(6):
                    assert await stores[i % 2].get(f"k{i}") == f"v{i}"
                stale = sum(p.stale_replays for p in cluster.proxies.values())
                pushes = sum(p.view.pushes_applied
                             for p in cluster.proxies.values())
                for store in stores:
                    verdict = store.check()
                    assert verdict.all_atomic, verdict.summary()
                return stale, pushes
            finally:
                for store in stores:
                    await store.close()
                await cluster.stop()

        return asyncio.run(scenario())

    def test_push_makes_a_steady_state_resize_replay_free(self):
        stale, pushes = self._two_phase(push_views=True)
        assert pushes == 2
        assert stale == 0

    def test_without_push_stale_bounces_do_the_refresh(self):
        stale, pushes = self._two_phase(push_views=False)
        assert pushes == 0
        assert stale >= 1
