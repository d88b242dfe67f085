"""One link per process: stores over real loopback TCP, on both ingresses.

Every :class:`KVStore` rides the link of its cluster and event loop -- one
:class:`ClientLink`, one effect runtime, one connection per peer.  Talking to
the replicas directly, rounds of different stores leave in one batch frame
per replica; behind a proxy, in one ``proxy`` frame per flush, answered by one
``proxy-ack`` per proxy input.  The sans-I/O half is pinned by the link rows
of ``test_kvstore_rounds`` and the one-ack row below; this file pins what only
sockets show: who dials whom, what survives a kill, whose futures a close
fails, what an operator sees, and that sharing a socket never merges two
*clients*.
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading
from types import SimpleNamespace

import pytest

from repro.asyncio_net.endpoint import Endpoint
from repro.core import ProtocolError
from repro.core.operations import OpKind
from repro.kvstore import AsyncKVCluster, KVStore, ShardMap, check_per_key_atomicity
from repro.kvstore import net_backend
from repro.kvstore.engine import (
    SIM_RETRY_POLICY,
    CachedShardView,
    ClientLink,
    ClientSessionEngine,
    EffectRuntime,
    GroupServerEngine,
    ProxyEngine,
    SendFrame,
    parse_attempt_scoped_id,
)
from repro.kvstore.engine.fabric import Fabric
from repro.kvstore.perkey import KVHistoryRecorder
from repro.messages import (
    BATCH_ACK_KIND,
    BATCH_KIND,
    PROXY_ACK_KIND,
    PROXY_KIND,
    ProxySubReply,
    unpack_batch,
    unpack_proxy_ack,
    unpack_proxy_request,
)
from repro.observe import TraceCollector, validate_metrics_snapshot

from test_kvstore_failover import FAST_RETRY, fast
from test_transport_endpoints import _other_tasks, _spy_on_loop_errors, _wait_until


async def _started(shard_map, stores=4, proxied=(), **settings):
    """A started cluster with ``stores`` connected stores ``c1..cN`` sharing a
    recorder; the ids in ``proxied`` connect through proxy ``p1``."""
    cluster = AsyncKVCluster(shard_map, fast(**settings))
    await cluster.start()
    if proxied:
        await cluster.start_proxies(1)
    ticks = asyncio.get_running_loop().time
    recorder = KVHistoryRecorder(ticks)
    connected = []
    for index in range(1, stores + 1):
        client_id = f"c{index}"
        store = KVStore(
            cluster, client_id=client_id, recorder=recorder,
            use_proxy="p1" if client_id in proxied else None,
        )
        await store.connect()
        connected.append(store)
    return cluster, connected, recorder


async def _stopped(cluster, stores):
    for store in stores:
        await store.close()
    await cluster.stop()


def _link_of(store):
    return store.engine.link


class TestOneLinkPerProcess:
    def test_four_stores_dial_each_replica_once_and_share_frames(self):
        async def scenario():
            shard_map = ShardMap(4, num_groups=2, readers=4, writers=4)
            cluster, stores, recorder = await _started(shard_map)
            try:
                assert len({id(_link_of(store)) for store in stores}) == 1
                assert len({id(store.engine) for store in stores}) == 4
                for replica in cluster.replicas.values():
                    assert len(replica.endpoint.accepted) == 1
                # One operation per store, all in the same turn of the loop.
                seen = []
                for logic in cluster.server_logics.values():
                    original = logic.on_frame

                    def on_frame(frame, _original=original):
                        if frame.kind == BATCH_KIND:
                            seen.append((frame.sender, unpack_batch(frame)))
                        return _original(frame)

                    logic.on_frame = on_frame
                await asyncio.gather(*(
                    store.put(f"k{index}", index) for index, store in enumerate(stores)
                ))
                link_id = _link_of(stores[0]).link_id
                assert {sender for sender, _ in seen} == {link_id}
                merged = max(seen, key=lambda frame: len(frame[1]))[1]
                # Subs of several clients in one frame, each under its own name.
                assert len({sub.message.sender for sub in merged}) >= 2
                assert {sub.message.sender for _, subs in seen for sub in subs} == {
                    "c1", "c2", "c3", "c4"
                }
                values = await asyncio.gather(*(
                    store.get(f"k{index}") for index, store in enumerate(stores)
                ))
                assert values == [0, 1, 2, 3]
                # Every frame is counted once, at the link; sessions count
                # only a proxy leg, and these have none.
                link_stats = _link_of(stores[0]).stats
                assert link_stats.frames_sent == sum(
                    logic.batches_served for logic in cluster.server_logics.values()
                )
                assert all(store.engine.stats.frames_total == 0 for store in stores)
                assert stores[0].batch_stats().frames_sent == link_stats.frames_sent
                assert check_per_key_atomicity(recorder.histories()).all_atomic
            finally:
                await _stopped(cluster, stores)

        asyncio.run(scenario())

    def test_a_replica_killed_under_load_from_every_store_widens_and_completes(self):
        async def scenario():
            shard_map = ShardMap(2, num_groups=1, readers=4, writers=4)
            cluster, stores, recorder = await _started(
                shard_map, service_overhead=0.01
            )
            try:
                async def load(store, index):
                    for i in range(8):
                        key = f"k{(index + i) % 5}"
                        await store.put(key, f"{store.client_id}-{i}")
                        await store.get(key)

                work = [
                    asyncio.create_task(load(store, index))
                    for index, store in enumerate(stores)
                ]
                await asyncio.sleep(0.03)
                await cluster.kill_server(shard_map.groups["g1"].servers[0])
                await asyncio.wait_for(asyncio.gather(*work), 30.0)
                assert recorder.completed_operations == 4 * 16
                assert _link_of(stores[0]).stats.rounds_widened >= 1
                assert check_per_key_atomicity(recorder.histories()).all_atomic
            finally:
                await _stopped(cluster, stores)

        asyncio.run(scenario())

    def test_more_kills_than_the_fault_budget_fail_every_stores_ops_in_time(self):
        async def scenario():
            shard_map = ShardMap(1, num_groups=1, readers=4, writers=4)
            cluster, stores, _ = await _started(shard_map, service_overhead=0.05)
            try:
                for index, store in enumerate(stores):
                    await store.put(f"k{index}", "before")
                reads = [
                    asyncio.create_task(store.get(f"k{index}"))
                    for index, store in enumerate(stores)
                ]
                await asyncio.sleep(0.01)
                for victim in shard_map.groups["g1"].servers[:2]:
                    await cluster.kill_server(victim)
                windows = 2 + FAST_RETRY.max_round_timeouts + 1
                outcomes = await asyncio.wait_for(
                    asyncio.gather(*reads, return_exceptions=True),
                    windows * FAST_RETRY.silence_window,
                )
                assert all(isinstance(o, ProtocolError) for o in outcomes), outcomes
                assert all("no quorum" in str(o) for o in outcomes)
            finally:
                await _stopped(cluster, stores)

        asyncio.run(scenario())

    def test_live_resize_through_the_link_stays_atomic(self):
        async def scenario():
            shard_map = ShardMap(2, num_groups=2, readers=4, writers=4)
            cluster, stores, recorder = await _started(shard_map)
            try:
                async def load(store, index):
                    for i in range(10):
                        key = f"k{(3 * index + i) % 7}"
                        await store.put(key, f"{store.client_id}-{i}")
                        assert await store.get(key) is not None

                work = [
                    asyncio.create_task(load(store, index))
                    for index, store in enumerate(stores)
                ]
                await asyncio.sleep(0.005)
                cluster.resize(6)
                await asyncio.wait_for(asyncio.gather(*work), 30.0)
                await cluster.flush_migrations()
                assert recorder.completed_operations == 4 * 20
                verdict = check_per_key_atomicity(recorder.histories())
                assert verdict.all_atomic, verdict.summary()
                # What the replicas fenced was replayed, and counted on the
                # sessions whose rounds it hit (the link keeps no such count).
                bounced = sum(l.stale_bounces for l in cluster.server_logics.values())
                replayed = sum(
                    store.engine.stale_replays + store.engine.drain_backoffs
                    for store in stores
                )
                assert (replayed > 0) == (bounced > 0)
            finally:
                await _stopped(cluster, stores)

        asyncio.run(scenario())


class TestIdentitySurvivesTheMerge:
    def test_two_stores_on_one_link_remain_two_readers_at_the_replicas(self):
        # The asyncio twin of test_fast_read_protocol_on_shards: the paper's
        # W2R1 on S = 5, t = 1 admits R = 2 readers, and its servers keep a
        # per-client ``updated`` set.  Sharing a socket must not merge them.
        async def scenario():
            shard_map = ShardMap(
                1, protocol_key="fast-read-mwmr", servers_per_shard=5,
                num_groups=1, readers=2, writers=2,
            )
            cluster, stores, recorder = await _started(shard_map, stores=2)
            first, second = stores
            try:
                await first.put("k", "v1")
                assert await asyncio.gather(first.get("k"), second.get("k")) == ["v1", "v1"]
                await second.put("k", "v2")
                assert await asyncio.gather(first.get("k"), second.get("k")) == ["v2", "v2"]
                link_id = _link_of(first).link_id
                (shard_id,) = shard_map.shards
                recorded = set()
                for logic in cluster.server_logics.values():
                    register = logic.register_for(shard_id, "k")
                    for entry in register.vector.values():
                        recorded |= entry.updated
                assert recorded == {"c1", "c2"} and link_id not in recorded
                for history in recorder.histories().values():
                    assert all(op.round_trips == 1 for op in history.reads)
                assert check_per_key_atomicity(recorder.histories()).all_atomic
            finally:
                await _stopped(cluster, stores)

        asyncio.run(scenario())


class TestLifecycleAndIsolation:
    def test_closing_a_store_fails_its_own_operations_and_only_those(self):
        async def scenario():
            shard_map = ShardMap(1, num_groups=1, readers=2, writers=2)
            cluster, stores, _ = await _started(
                shard_map, stores=2, service_overhead=0.05
            )
            leaving, staying = stores
            try:
                await staying.put("mine", "v")
                doomed = [
                    asyncio.create_task(leaving.put("k", "a")),
                    asyncio.create_task(leaving.put("k", "b")),  # backlogged
                    asyncio.create_task(leaving.get("other")),
                ]
                kept = asyncio.create_task(staying.get("mine"))
                await asyncio.sleep(0.01)
                assert not any(task.done() for task in doomed + [kept])
                link = _link_of(leaving)
                await leaving.close()
                outcomes = await asyncio.wait_for(
                    asyncio.gather(*doomed, return_exceptions=True), 1.0
                )
                assert all(isinstance(o, ConnectionError) for o in outcomes), outcomes
                assert all(round.session is staying.engine
                           for round in link._pending.values())
                assert await asyncio.wait_for(kept, 2.0) == "v"
                await staying.put("mine", "w")
                with pytest.raises(ConnectionError):
                    await leaving.get("k")
                await leaving.close()  # idempotent
            finally:
                await _stopped(cluster, stores)

        asyncio.run(scenario())

    def test_the_last_store_out_closes_the_connections_and_every_timer(self):
        async def scenario():
            shard_map = ShardMap(2, num_groups=1, readers=2, writers=2)
            cluster, stores, _ = await _started(shard_map, stores=2)
            try:
                for store in stores:
                    await store.put("k", store.client_id)
                link = stores[0]._link
                runtime = link.runtime
                connections = list(link.endpoint.peers.values())
                assert len(connections) == len(cluster.replicas)
                await stores[0].close()
                assert cluster._links and not any(c.closing for c in connections)
                assert runtime.timers  # the silence window is still armed
                await stores[1].close()
                assert not cluster._links and all(c.closing for c in connections)
                assert not runtime.timers and not link.endpoint.tasks
                metrics = cluster.metrics
                link_id = link.engine.link_id
                armed, fired, cancelled = (
                    metrics.counter_value("client", name, component=link_id)
                    for name in ("timers_armed", "timers_fired", "timers_cancelled")
                )
                assert armed > 0 and armed == fired + cancelled
                # A store that connects afterwards starts a fresh link.
                late = KVStore(cluster, client_id="c3")
                await late.connect()
                stores.append(late)
                assert late.engine.link.link_id != link_id
                assert await late.get("k") in ("c1", "c2")
            finally:
                await _stopped(cluster, stores)

        asyncio.run(scenario())

    def test_stopping_the_cluster_closes_the_stores_still_connected(self):
        async def scenario():
            loop_errors = _spy_on_loop_errors()
            shard_map = ShardMap(2, num_groups=1, readers=2, writers=2)
            cluster, stores, _ = await _started(
                shard_map, stores=2, proxied=("c2",), service_overhead=0.05
            )
            direct, proxied = stores
            await direct.put("k", "v")
            await proxied.put("j", "w")
            inflight = [
                asyncio.create_task(direct.get("k")),
                asyncio.create_task(proxied.get("j")),
            ]
            await asyncio.sleep(0.01)
            assert not any(task.done() for task in inflight)
            await cluster.stop()  # nobody closed the stores
            outcomes = await asyncio.wait_for(
                asyncio.gather(*inflight, return_exceptions=True), 1.0
            )
            assert all(isinstance(o, ConnectionError) for o in outcomes), outcomes
            for store in stores:
                with pytest.raises(ConnectionError):
                    await asyncio.wait_for(store.get("k"), 1.0)
            assert not cluster._links
            # No redial of the stopped replicas, no failover off the stopped
            # proxy: nothing is left to run, and nothing died unobserved.
            await asyncio.sleep(3 * FAST_RETRY.reconnect_interval)
            assert not _other_tasks()
            assert loop_errors == []
            await _stopped(cluster, stores)  # closing afterwards is harmless

        asyncio.run(scenario())

    def test_stopping_the_cluster_reaches_a_store_on_another_loop(self):
        async def scenario():
            shard_map = ShardMap(2, num_groups=1, readers=2, writers=2)
            cluster, stores, _ = await _started(shard_map, stores=1)
            connected = threading.Event()
            found = {}

            def elsewhere():
                async def visit():
                    there = KVStore(cluster, client_id="c2")
                    await there.connect()
                    await there.put("theirs", "x")
                    found["loop"] = asyncio.get_running_loop()
                    found["stopped"] = asyncio.Event()
                    connected.set()
                    await asyncio.wait_for(found["stopped"].wait(), 10.0)
                    try:
                        await asyncio.wait_for(there.get("theirs"), 1.0)
                    except ConnectionError:
                        found["closed"] = True
                    await asyncio.sleep(3 * FAST_RETRY.reconnect_interval)
                    found["tasks"] = _other_tasks()

                asyncio.run(visit())

            thread = threading.Thread(target=elsewhere)
            thread.start()
            here = asyncio.get_running_loop()
            assert await here.run_in_executor(None, connected.wait, 10.0)
            assert len(cluster._links) == 2
            await cluster.stop()
            assert not cluster._links
            found["loop"].call_soon_threadsafe(found["stopped"].set)
            await here.run_in_executor(None, thread.join, 10.0)
            assert not thread.is_alive()
            assert found.get("closed") and not found["tasks"]
            await _stopped(cluster, stores)

        asyncio.run(scenario())

    def test_stopping_the_cluster_does_not_wait_on_a_blocked_or_dead_loop(self, monkeypatch):
        monkeypatch.setattr(net_backend, "STOP_WAIT", 0.1)

        async def scenario():
            shard_map = ShardMap(2, num_groups=1, readers=2, writers=2)
            cluster, stores, _ = await _started(shard_map, stores=1)
            connected, release = threading.Event(), threading.Event()
            found = {}

            def elsewhere():
                async def visit():
                    there = KVStore(cluster, client_id="c2")
                    await there.connect()
                    connected.set()
                    release.wait(10.0)  # the loop is stuck in its own work
                    await there.close()  # the cluster let go of its link long ago
                    found["tasks"] = _other_tasks()

                asyncio.run(visit())

            thread = threading.Thread(target=elsewhere)
            thread.start()
            here = asyncio.get_running_loop()
            assert await here.run_in_executor(None, connected.wait, 10.0)
            dead = asyncio.new_event_loop()
            dead.close()
            cluster._links[dead] = SimpleNamespace(loop=dead)  # left by a loop that ended
            assert len(cluster._links) == 3
            await asyncio.wait_for(cluster.stop(), 2.0)
            assert not cluster._links
            release.set()
            await here.run_in_executor(None, thread.join, 10.0)
            assert not thread.is_alive() and not found["tasks"]
            await _stopped(cluster, stores)

        asyncio.run(scenario())

    def test_stores_on_different_loops_never_share_a_link(self):
        async def scenario():
            shard_map = ShardMap(2, num_groups=1, readers=2, writers=2)
            cluster, stores, _ = await _started(shard_map, stores=1)
            (here,) = stores
            found = {}

            def elsewhere():
                async def visit():
                    there = KVStore(cluster, client_id="c2")
                    await there.connect()
                    try:
                        await there.put("theirs", "x")
                        found["link_id"] = there.engine.link.link_id
                        found["links"] = len(cluster._links)
                    finally:
                        await there.close()

                asyncio.run(visit())

            try:
                await here.put("ours", "y")
                thread = threading.Thread(target=elsewhere)
                thread.start()
                await asyncio.get_running_loop().run_in_executor(None, thread.join, 10.0)
                assert not thread.is_alive()
                assert found["links"] == 2
                assert found["link_id"] != here.engine.link.link_id
                assert len(cluster._links) == 1
                assert await here.get("theirs") == "x"
            finally:
                await _stopped(cluster, stores)

        asyncio.run(scenario())

    def test_a_store_out_of_proxies_lands_on_the_link_the_direct_stores_ride(self):
        async def scenario():
            shard_map = ShardMap(2, num_groups=2, readers=2, writers=2)
            cluster, stores, recorder = await _started(
                shard_map, stores=2, proxied=("c2",)
            )
            direct, proxied = stores
            try:
                await direct.put("a", "1")
                await proxied.put("b", "2")
                assert proxied.engine.link is direct.engine.link
                await cluster.kill_proxy("p1")
                await proxied.put("b", "3")
                assert await proxied.get("a") == "1"
                assert proxied.proxy_failovers == 1 and proxied.engine.proxy_id is None
                # One connection per replica, still: the link's.
                for replica in cluster.replicas.values():
                    assert len(replica.endpoint.accepted) == 1
                # Both of its legs are the link's books, none its own.
                link = direct.engine.link
                assert link.proxy_stats.frames_sent > 0 and link.stats.frames_sent > 0
                assert proxied.engine.stats.frames_total == 0
                assert direct.engine.stats.frames_total == 0
                # The lost proxy was reported once and forgotten.
                assert set(proxied._link.endpoint.peers) == set(cluster.replicas)
                assert check_per_key_atomicity(recorder.histories()).all_atomic
            finally:
                await _stopped(cluster, stores)

        asyncio.run(scenario())


class TestWhatAnOperatorSees:
    def test_span_trees_and_metrics_of_two_stores_that_shared_a_frame(self):
        async def scenario():
            collector = TraceCollector()
            shard_map = ShardMap(2, num_groups=1, readers=2, writers=2)
            cluster, stores, _ = await _started(
                shard_map, stores=2, trace_collector=collector
            )
            try:
                await asyncio.gather(stores[0].put("k1", "a"), stores[1].put("k2", "b"))
                await asyncio.gather(stores[0].get("k2"), stores[1].get("k1"))
                link = _link_of(stores[0])
                assert link.stats.largest >= 2  # rounds of both rode one frame
                trees = [collector.span_tree(tid) for tid in collector.trace_ids()]
                assert len(trees) == 4
                for tree in trees:
                    root = tree["root"]
                    assert root["tier"] == "client"
                    assert root["component"] in ("c1", "c2")
                    kinds = [event["kind"] for event in root["events"]]
                    assert kinds[0] == "op.invoked" and kinds[-1] == "op.completed"
                    assert "round.opened" in kinds
                    replicas = root["children"]
                    assert replicas and all(c["tier"] == "replica" for c in replicas)
                    assert all(
                        event["kind"] == "sub.served"
                        for child in replicas for event in child["events"]
                    )
                return cluster.metrics, link.link_id
            finally:
                await _stopped(cluster, stores)

        registry, link_id = asyncio.run(scenario())
        validate_metrics_snapshot(registry.snapshot())
        counts = registry.counts()
        # Frames and batches are the link's; ops and rounds each session's.
        assert counts[("client", link_id, "frames_sent")] > 0
        assert counts[("client", link_id, "ops_invoked")] == 0
        for client_id in ("c1", "c2"):
            assert counts[("client", client_id, "ops_completed")] == 2
            assert counts[("client", client_id, "rounds_opened")] >= 2
            assert counts[("client", client_id, "frames_sent")] == 0
        assert registry.histogram("client", link_id, "batch_size").count > 0


# -- the proxy leg ----------------------------------------------------------------


async def _proxied(shard_map, stores=8, proxies=1, **settings):
    """A started cluster with ``proxies`` proxies and ``stores`` stores
    ``c1..cN``, each assigned a proxy round-robin, sharing a recorder."""
    cluster = AsyncKVCluster(shard_map, fast(**settings))
    await cluster.start()
    await cluster.start_proxies(proxies)
    recorder = KVHistoryRecorder(asyncio.get_running_loop().time)
    connected = []
    for index in range(1, stores + 1):
        store = KVStore(
            cluster, client_id=f"c{index}", recorder=recorder, use_proxy=True
        )
        await store.connect()
        connected.append(store)
    return cluster, connected, recorder


def _proxy_frames(proxy):
    """Every ``proxy`` frame ``proxy`` takes in from now on, in order."""
    seen = []
    original = proxy.engine.on_frame

    def on_frame(frame):
        if frame.kind == PROXY_KIND:
            seen.append(frame)
        return original(frame)

    proxy.engine.on_frame = on_frame
    return seen


class TestOneProxyLegPerProcess:
    def test_eight_proxied_stores_share_one_connection_and_their_frames(self):
        async def scenario():
            shard_map = ShardMap(4, num_groups=2, readers=8, writers=8)
            cluster, stores, recorder = await _proxied(shard_map)
            proxy = cluster.proxies["p1"]
            seen = _proxy_frames(proxy)
            try:
                await asyncio.gather(*(
                    store.put(f"k{index}", index) for index, store in enumerate(stores)
                ))
                values = await asyncio.gather(*(
                    store.get(f"k{index}") for index, store in enumerate(stores)
                ))
                assert values == list(range(8))
                link = _link_of(stores[0])
                # One connection for the eight, and nothing but it: no store
                # is direct, so no replica was dialled either.
                assert len(proxy.endpoint.accepted) == 1
                assert list(stores[0]._link.endpoint.peers) == ["p1"]
                # No owner, runtime or endpoint of a store's own.
                for store in stores:
                    assert store._link is stores[0]._link and _link_of(store) is link
                    assert not [
                        value for value in vars(store).values()
                        if isinstance(value, (Endpoint, EffectRuntime))
                    ]
                # Frames go under the link's name, subs under their sessions'.
                assert {frame.sender for frame in seen} == {link.link_id}
                clients = [
                    {sub.client for sub in unpack_proxy_request(frame)} for frame in seen
                ]
                assert max(len(named) for named in clients) >= 2
                assert set().union(*clients) == {f"c{index}" for index in range(1, 9)}
                # Counted once, at the link: fewer acks than rounds came back.
                stats = link.proxy_stats
                assert stats.frames_sent == len(seen)
                assert stats.sub_operations == sum(
                    len(unpack_proxy_request(frame)) for frame in seen
                )
                assert 0 < stats.frames_received < stats.sub_operations
                assert all(store.engine.stats.frames_total == 0 for store in stores)
                assert stores[0].batch_stats().frames_sent == stats.frames_sent
                validate_metrics_snapshot(cluster.metrics.snapshot())
                assert check_per_key_atomicity(recorder.histories()).all_atomic
            finally:
                await _stopped(cluster, stores)

        asyncio.run(scenario())

    def test_sessions_behind_a_proxy_remain_readers_at_the_replicas(self):
        # The proxied twin of the W2R1 test above: S = 5, t = 1 admits R = 2,
        # and the servers keep a per-client ``updated`` set.  One link, one
        # connection and one frame for both must still be two readers.
        async def scenario():
            shard_map = ShardMap(
                1, protocol_key="fast-read-mwmr", servers_per_shard=5,
                num_groups=1, readers=2, writers=2,
            )
            cluster, stores, recorder = await _proxied(shard_map, stores=2)
            first, second = stores
            try:
                await first.put("k", "v1")
                assert await asyncio.gather(first.get("k"), second.get("k")) == ["v1", "v1"]
                await second.put("k", "v2")
                assert await asyncio.gather(first.get("k"), second.get("k")) == ["v2", "v2"]
                link_id = _link_of(first).link_id
                (shard_id,) = shard_map.shards
                recorded = set()
                for logic in cluster.server_logics.values():
                    register = logic.register_for(shard_id, "k")
                    for entry in register.vector.values():
                        recorded |= entry.updated
                assert recorded == {"c1", "c2"}
                assert not recorded & {link_id, "p1"}
                for history in recorder.histories().values():
                    assert all(op.round_trips == 1 for op in history.reads)
                assert check_per_key_atomicity(recorder.histories()).all_atomic
            finally:
                await _stopped(cluster, stores)

        asyncio.run(scenario())

    def test_a_proxy_killed_under_load_fails_each_of_its_sessions_over(self):
        async def scenario():
            shard_map = ShardMap(4, num_groups=2, readers=8, writers=8)
            cluster, stores, recorder = await _proxied(shard_map, proxies=2)
            on_p1 = [store for store in stores if store.engine.proxy_id == "p1"]
            assert 0 < len(on_p1) < len(stores)
            try:
                async def load(store, index):
                    for i in range(10):
                        key = f"k{(index + i) % 6}"
                        await store.put(key, f"{store.client_id}-{i}")
                        await store.get(key)

                work = [
                    asyncio.create_task(load(store, index))
                    for index, store in enumerate(stores)
                ]
                await asyncio.sleep(0.02)
                await cluster.kill_proxy("p1")
                await asyncio.wait_for(asyncio.gather(*work), 30.0)
                assert recorder.completed_operations == len(stores) * 20
                for store in stores:
                    # Each walked its own list: p1's sessions to the next
                    # candidate on theirs, the others stayed where they were.
                    moved = store in on_p1
                    assert store.proxy_failovers == int(moved)
                    assert store.engine.proxy_id == "p2"
                # The lost proxy was reported once and forgotten.
                assert list(stores[0]._link.endpoint.peers) == ["p2"]
                verdict = check_per_key_atomicity(recorder.histories())
                assert verdict.all_atomic, verdict.summary()
            finally:
                await _stopped(cluster, stores)

        asyncio.run(scenario())

    def test_a_proxy_lost_before_anything_was_forwarded_fails_over_once(self):
        # The link has no leg for a proxy nothing was forwarded to, and the
        # session on it has nothing to withdraw: it moves on at the loss.  (It
        # used to raise inside the connection's loss callback -- which the
        # conftest fixture fails under ``python -X dev`` -- stay on the dead
        # proxy, and fail over a second time at its first operation.)
        async def scenario():
            cluster = AsyncKVCluster(ShardMap(2, num_groups=1), fast())
            await cluster.start()
            await cluster.start_proxies(2)
            store = KVStore(cluster, client_id="c1", use_proxy="p1")
            await store.connect()
            try:
                await cluster.kill_proxy("p1")
                await _wait_until(lambda: "p1" not in store._link.endpoint.peers)
                await store.put("k", "v")
                assert store.proxy_failovers == 1
                assert store.engine.proxy_id == "p2"
                assert await store.get("k") == "v"
                assert list(store._link.endpoint.peers) == ["p2"]
            finally:
                await _stopped(cluster, [store])

        asyncio.run(scenario())

    def test_closing_a_proxied_store_fails_its_own_operations_and_only_those(self):
        async def scenario():
            shard_map = ShardMap(1, num_groups=1, readers=2, writers=2)
            cluster, stores, _ = await _started(
                shard_map, stores=2, proxied=("c1", "c2"), service_overhead=0.05
            )
            leaving, staying = stores
            try:
                await staying.put("mine", "v")
                doomed = [
                    asyncio.create_task(leaving.put("k", "a")),
                    asyncio.create_task(leaving.put("k", "b")),  # backlogged
                    asyncio.create_task(leaving.get("other")),
                ]
                kept = asyncio.create_task(staying.get("mine"))
                await asyncio.sleep(0.01)
                assert not any(task.done() for task in doomed + [kept])
                link = _link_of(leaving)
                await leaving.close()
                outcomes = await asyncio.wait_for(
                    asyncio.gather(*doomed, return_exceptions=True), 1.0
                )
                assert all(isinstance(o, ConnectionError) for o in outcomes), outcomes
                (leg,) = link._legs.values()
                assert leg.rounds and all(
                    round.session is staying.engine for round in leg.rounds.values()
                )
                assert await asyncio.wait_for(kept, 2.0) == "v"
                await staying.put("mine", "w")
                with pytest.raises(ConnectionError):
                    await leaving.get("k")
            finally:
                await _stopped(cluster, stores)

        asyncio.run(scenario())

    def test_the_last_store_out_closes_the_proxy_connection_and_every_timer(self):
        async def scenario():
            shard_map = ShardMap(2, num_groups=1, readers=2, writers=2)
            cluster, stores, _ = await _started(
                shard_map, stores=2, proxied=("c1", "c2"), service_overhead=0.02
            )
            proxy = cluster.proxies["p1"]
            try:
                for store in stores:
                    await store.put("k", store.client_id)
                link = stores[0]._link
                runtime = link.runtime
                (connection,) = link.endpoint.peers.values()
                await stores[0].close()
                assert not connection.closing and len(proxy.endpoint.accepted) == 1
                inflight = asyncio.create_task(stores[1].put("k", "late"))
                await asyncio.sleep(0.005)
                await stores[1].close()
                with pytest.raises(ConnectionError):
                    await inflight
                assert not cluster._links and connection.closing
                assert not runtime.timers and not link.endpoint.tasks
                await _wait_until(lambda: not proxy.endpoint.accepted)
                metrics = cluster.metrics
                link_id = link.engine.link_id
                armed, fired, cancelled = (
                    metrics.counter_value("client", name, component=link_id)
                    for name in ("timers_armed", "timers_fired", "timers_cancelled")
                )
                assert armed > 0 and armed == fired + cancelled
            finally:
                await _stopped(cluster, stores)
            assert not _other_tasks()

        asyncio.run(scenario())

    def test_connecting_a_connected_proxied_store_again_changes_nothing(self):
        # A second connect() must not build a second session behind a second
        # connection: the first would be left to fail over into a store that
        # holds no link once the cluster stops.  (Run under ``python -X dev``,
        # the conftest fixture fails a test on a task exception nobody
        # retrieved.)
        async def scenario():
            cluster = AsyncKVCluster(ShardMap(2, num_groups=1), fast())
            await cluster.start()
            await cluster.start_proxies(1)
            proxy = cluster.proxies["p1"]
            store = KVStore(cluster, client_id="c1", use_proxy="p1")
            await store.connect()
            engine = store.engine
            await store.connect()
            accepted = len(proxy.endpoint.accepted)
            await store.put("k", "v")
            await store.close()
            await cluster.stop()
            await asyncio.sleep(3 * FAST_RETRY.reconnect_interval)
            return store.engine is engine, accepted

        same_engine, accepted = asyncio.run(scenario())
        assert accepted == 1
        assert same_engine


def _one_proxy_on_the_fabric():
    """One group of replicas, proxy ``p1`` and a link ``L`` connected to it,
    carrying the sessions ``c1`` and ``c2``, on an engine fabric."""
    shard_map = ShardMap(1, num_groups=1, readers=2, writers=2)
    fabric = Fabric()
    for group in shard_map.groups.values():
        hosted = {spec.shard_id: spec.epoch for spec in shard_map.shards_on(group.group_id)}
        for server_id in group.servers:
            fabric.register(
                server_id, GroupServerEngine(server_id, group.protocol, dict(hosted))
            )
    proxy = ProxyEngine("p1", CachedShardView(shard_map), policy=SIM_RETRY_POLICY)
    fabric.register("p1", proxy)
    link = ClientLink("L", policy=SIM_RETRY_POLICY)
    fabric.register("L", link)
    recorder = KVHistoryRecorder(lambda: fabric.now)
    sessions = [
        ClientSessionEngine(
            client_id, shard_map, recorder, policy=SIM_RETRY_POLICY,
            proxy_candidates=["p1"], link=link,
        )
        for client_id in ("c1", "c2")
    ]
    fabric.execute("L", link.on_connected("p1"))
    return fabric, proxy, link, recorder, sessions


class TestOneAckPerInput:
    def test_a_batch_ack_completing_two_sessions_rounds_is_one_proxy_ack(self):
        fabric, proxy, link, recorder, sessions = _one_proxy_on_the_fabric()
        acks_per_batch_ack = []
        original = proxy.on_frame

        def on_frame(frame):
            effects = original(frame)
            if frame.kind == BATCH_ACK_KIND:
                acks_per_batch_ack.append([
                    effect for effect in effects
                    if isinstance(effect, SendFrame) and effect.frame.kind == PROXY_ACK_KIND
                ])
            return effects

        proxy.on_frame = on_frame
        op_ids = []
        for session, key in zip(sessions, ("a", "b")):
            op_id, effects = session.invoke(OpKind.READ, key)
            op_ids.append(op_id)
            fabric.execute("L", effects)
        fabric.run()
        assert recorder.completed_operations == 2 and not fabric.failures
        # Two replicas answered the one merged batch; the second completed
        # both rounds, and both went back in one frame, to the link.
        assert [len(acks) for acks in acks_per_batch_ack] == [0, 1]
        (ack,) = acks_per_batch_ack[1]
        assert ack.destination == "L"
        answered = [parse_attempt_scoped_id(reply.op_id)[0]
                    for reply in unpack_proxy_ack(ack.frame)]
        assert sorted(answered) == sorted(op_ids)
        assert link.proxy_stats.frames_received == 1
        assert link.proxy_stats.sub_operations == 2


class TestProxyAckRouting:
    def test_rounds_complete_by_their_sub_reply_whatever_the_inner_ids_say(self):
        # The link routes a proxy-ack by each ProxySubReply's own (op_id,
        # round_trip) and reads only (sender, kind, payload) of its replies:
        # here every inner reply names another round of the same frame (or a
        # foreign op), and each read still gets its own key's value.
        fabric, proxy, link, recorder, sessions = _one_proxy_on_the_fabric()
        shared = []
        original = proxy.on_frame

        def crossed(sub_replies):
            ids = [sub.op_id for sub in sub_replies]
            for index, sub in enumerate(sub_replies):
                other = ids[(index + 1) % len(ids)] if len(ids) > 1 else "foreign-op"
                yield ProxySubReply(sub.op_id, sub.round_trip, tuple(
                    dataclasses.replace(
                        reply, receiver="nobody", op_id=other,
                        round_trip=reply.round_trip + 7,
                    )
                    for reply in sub.replies
                ), sub.error)

        def on_frame(frame):
            effects = original(frame)
            for effect in effects:
                if isinstance(effect, SendFrame) and effect.frame.kind == PROXY_ACK_KIND:
                    acks = effect.frame.payload["acks"]
                    if len(acks) > 1:
                        shared.append(len(acks))
                    acks[:] = crossed(list(acks))
            return effects

        proxy.on_frame = on_frame
        outcomes = {}

        def invoke(session, kind, key, value=None):
            op_id, effects = session.invoke(kind, key, value)
            fabric.callbacks[op_id] = lambda outcome: outcomes.update(
                {(kind, key): outcome.value})
            fabric.execute("L", effects)

        invoke(sessions[0], OpKind.WRITE, "a", "va")
        invoke(sessions[1], OpKind.WRITE, "b", "vb")
        fabric.run()
        invoke(sessions[0], OpKind.READ, "a")
        invoke(sessions[1], OpKind.READ, "b")
        fabric.run()
        assert not fabric.failures
        assert recorder.completed_operations == 4
        # Every round completed through the proxy, none by failing over to
        # the replicas, and some proxy-ack carried both sessions' rounds.
        assert all(session.proxy_failovers == 0 for session in sessions)
        assert link.stats.frames_total == 0
        assert shared
        assert outcomes[OpKind.READ, "a"] == "va"
        assert outcomes[OpKind.READ, "b"] == "vb"
