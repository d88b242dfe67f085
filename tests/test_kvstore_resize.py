"""Live rebalancing end to end: resize/move under load, on both backends.

The acceptance property of the placement refactor: a ``ShardMap.resize()``
(or ``move_shard``) fired while clients are mid-operation completes with
every per-key sub-history still atomic -- the epoch fence bounces in-flight
rounds to the new owners, and the migration preserves quorum intersection.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.kvstore import (
    AsyncKVCluster,
    KVHistoryRecorder,
    KVOp,
    KVRunConfig,
    KVStore,
    KVWorkload,
    ShardMap,
    SimKVCluster,
    SyncKVStore,
    check_per_key_atomicity,
    generate_workload,
    run,
)
from repro.sim.delays import ConstantDelay, UniformDelay
from repro.util.rng import SeededRng


class TestSimLiveResize:
    def test_grow_under_concurrent_load_stays_atomic(self):
        # Shards-per-group > 1 end to end: 4 shards on 2 groups, growing to
        # 8 shards mid-run while 4 clients keep a pipeline of ops in flight.
        workload = generate_workload(num_clients=4, ops_per_client=25,
                                     num_keys=40, seed=13, pipeline_depth=5)
        result = run(KVRunConfig(
            num_shards=4,
            num_groups=2,
            resize_to=8,
            delay_model=UniformDelay(0.5, 1.5, seed=13),
        ), workload)
        assert result.completed_ops == workload.total_operations()
        assert result.resize is not None and result.resize["to"] == 8
        assert result.num_shards == 8 and result.num_groups == 2
        verdict = result.check()
        assert verdict.all_atomic, verdict.summary()

    def test_shrink_under_load_stays_atomic_and_keeps_data(self):
        workload = generate_workload(num_clients=3, ops_per_client=20,
                                     num_keys=24, seed=5, pipeline_depth=4)
        result = run(KVRunConfig(
            num_shards=6,
            num_groups=2,
            resize_to=2,
            delay_model=UniformDelay(0.5, 1.5, seed=5),
        ), workload)
        assert result.completed_ops == workload.total_operations()
        assert result.check().all_atomic
        assert result.num_shards == 2

    def test_resize_moves_about_one_over_n_of_live_keys(self):
        # Every key is materialized first, so the migration report's moved
        # count is the real ~1/N fraction, not an undercount.
        keys = [f"k{i}" for i in range(120)]
        ops = [KVOp("put", key, f"v-{key}") for key in keys]
        workload = KVWorkload(sequences={"c1": ops}, pipeline_depth=6)
        shard_map = ShardMap(8, num_groups=2, readers=1, writers=1)
        cluster = SimKVCluster(shard_map, ["c1"], delay_model=ConstantDelay(1.0))
        client = cluster.clients["c1"]
        for op in ops:
            client.put(op.key, op.value)
        cluster.run()
        report = cluster.resize(9)
        expected = len(keys) / 9
        assert 0 < report.keys_moved <= 3.0 * expected
        # The moved keys are still readable at their new owners.
        seen = {}
        for key in keys[:20]:
            client.get(
                key,
                on_complete=lambda o, key=key: seen.__setitem__(key, o.value),
            )
        cluster.run()
        assert seen == {k: f"v-{k}" for k in keys[:20]}
        assert check_per_key_atomicity(cluster.recorder.histories()).all_atomic

    def test_move_shard_under_load_stays_atomic(self):
        workload = generate_workload(num_clients=3, ops_per_client=18,
                                     num_keys=20, seed=21, pipeline_depth=4)
        shard_map = ShardMap(4, num_groups=2, readers=3, writers=3)
        cluster = SimKVCluster(
            shard_map, workload.clients, delay_model=ConstantDelay(1.0)
        )
        moved = {"done": False}

        def move_midway() -> None:
            if moved["done"] or cluster.recorder.completed_operations < 20:
                return
            moved["done"] = True
            spec = shard_map.shards["sh1"]
            target = "g2" if spec.group.group_id == "g1" else "g1"
            cluster.move_shard("sh1", target)

        cluster.add_completion_watcher(move_midway)
        from collections import deque

        def make_issuer(client, remaining):
            def issue(_o=None):
                if remaining:
                    op = remaining.popleft()
                    if op.kind == "put":
                        client.put(op.key, op.value, on_complete=issue)
                    else:
                        client.get(op.key, on_complete=issue)

            return issue

        for client_id in workload.clients:
            issue = make_issuer(
                cluster.clients[client_id], deque(workload.sequences[client_id])
            )
            for _ in range(workload.pipeline_depth):
                cluster.events.schedule(0.0, issue, label=f"start:{client_id}")
        cluster.run()
        assert moved["done"]
        assert cluster.recorder.completed_operations == workload.total_operations()
        assert check_per_key_atomicity(cluster.recorder.histories()).all_atomic

    def test_resize_with_crashed_replicas_stays_atomic(self):
        # One replica per group crashes (within each group's fault budget)
        # early, then the ring is resized live: quorums of S - t keep every
        # key readable and migration carries the surviving state over.
        workload = generate_workload(num_clients=3, ops_per_client=20,
                                     num_keys=24, seed=8, pipeline_depth=4)
        result = run(KVRunConfig(
            num_shards=4,
            num_groups=2,
            resize_to=6,
            delay_model=ConstantDelay(1.0),
            crashes_per_group=1,
            crash_horizon=10.0,
            crash_seed=8,
        ), workload)
        assert result.completed_ops == workload.total_operations()
        assert result.check().all_atomic
        assert result.resize is not None

    def test_failure_injector_enforces_group_budgets(self):
        from repro.core.errors import ConfigurationError

        shard_map = ShardMap(4, num_groups=2)
        cluster = SimKVCluster(shard_map, ["c1"])
        injector = cluster.failure_injector()
        first = shard_map.groups["g1"].servers[0]
        second = shard_map.groups["g1"].servers[1]
        injector.schedule_crash(first, 1.0)
        with pytest.raises(ConfigurationError):
            injector.schedule_crash(second, 2.0)  # t=1 per group
        plans = injector.schedule_random_crashes(1, 5.0, SeededRng(3))
        # g1's budget is exhausted by the explicit crash; only g2 crashes.
        assert len(plans) == 1
        cluster.run()
        assert injector.crashed_servers == {first} | {p.process_id for p in plans}


class TestAsyncioLiveResize:
    def test_grow_under_concurrent_load_stays_atomic(self):
        workload = generate_workload(num_clients=3, ops_per_client=14,
                                     num_keys=18, seed=17, pipeline_depth=4)
        result = run(KVRunConfig(
            backend="asyncio",
            num_shards=4,
            num_groups=2,
            resize_to=8,
        ), workload)
        assert result.completed_ops == workload.total_operations()
        assert result.resize is not None and result.resize["to"] == 8
        assert result.num_shards == 8 and result.num_groups == 2
        verdict = result.check()
        assert verdict.all_atomic, verdict.summary()

    def test_values_survive_resize_and_move(self):
        async def scenario():
            shard_map = ShardMap(4, num_groups=2)
            cluster = AsyncKVCluster(shard_map)
            await cluster.start()
            store = KVStore(cluster, client_id="c1")
            await store.connect()
            try:
                items = {f"user:{i}": f"v{i}" for i in range(30)}
                await store.multi_put(items)
                report = cluster.resize(9)
                assert report.shards_added == [f"sh{i}" for i in range(5, 10)]
                values = await store.multi_get(list(items))
                assert values == items
                spec = shard_map.shards["sh1"]
                target = "g2" if spec.group.group_id == "g1" else "g1"
                cluster.move_shard("sh1", target)
                values = await store.multi_get(list(items))
                assert values == items
                verdict = store.check()
                assert verdict.all_atomic, verdict.summary()
            finally:
                await store.close()
                await cluster.stop()

        asyncio.run(scenario())

    def test_a_rebalance_without_a_running_loop_refuses_before_the_map_changes(self):
        # The control plane needs the loop to send anything: flipping the ring
        # and then dropping the drain would strand every key of the shard.
        loop = asyncio.new_event_loop()
        shard_map = ShardMap(2, num_groups=1)
        cluster = AsyncKVCluster(shard_map)
        store = KVStore(cluster, client_id="c1")
        try:
            loop.run_until_complete(cluster.start())
            loop.run_until_complete(store.connect())
            for i in range(8):
                loop.run_until_complete(store.put(f"k{i}", f"v{i}"))
            ring_epoch = shard_map.ring_epoch
            with pytest.raises(RuntimeError, match=r"resize\(\) needs a running"):
                cluster.resize(4)
            with pytest.raises(RuntimeError, match=r"move_shard\(\) needs a running"):
                cluster.move_shard("sh1", "g1")
            assert (len(shard_map), shard_map.ring_epoch) == (2, ring_epoch)
            assert cluster.migrations == []
            loop.run_until_complete(cluster.flush_migrations(timeout=1.0))
            for i in range(8):
                value = loop.run_until_complete(
                    asyncio.wait_for(store.get(f"k{i}"), timeout=2.0)
                )
                assert value == f"v{i}"
        finally:
            loop.run_until_complete(store.close())
            loop.run_until_complete(cluster.stop())
            loop.close()

    def test_concurrent_hammer_during_resize_stays_atomic(self):
        async def scenario():
            shard_map = ShardMap(4, num_groups=2, readers=3, writers=3)
            cluster = AsyncKVCluster(shard_map)
            await cluster.start()
            base = time.monotonic()
            recorder = KVHistoryRecorder(lambda: time.monotonic() - base)
            stores = []
            try:
                for index in range(3):
                    store = KVStore(cluster, client_id=f"c{index + 1}",
                                    recorder=recorder)
                    await store.connect()
                    stores.append(store)

                async def hammer(store: KVStore, index: int) -> None:
                    for i in range(8):
                        await store.put(f"key-{i % 4}", f"v-{index}-{i}")
                        await store.get(f"key-{i % 4}")

                async def resizer() -> None:
                    await asyncio.sleep(0.01)
                    cluster.resize(10)
                    await asyncio.sleep(0.01)
                    cluster.resize(6)

                await asyncio.gather(
                    *(hammer(s, i) for i, s in enumerate(stores)), resizer()
                )
                verdict = check_per_key_atomicity(recorder.histories())
                assert verdict.all_atomic, verdict.summary()
                assert len(shard_map) == 6
            finally:
                for store in stores:
                    await store.close()
                await cluster.stop()

        asyncio.run(scenario())


class TestSyncStoreResize:
    def test_sync_facade_resizes_live(self):
        with SyncKVStore(num_shards=4, num_groups=2) as store:
            store.multi_put({f"k{i}": str(i) for i in range(12)})
            report = store.resize(8)
            assert report.shards_added
            assert store.multi_get([f"k{i}" for i in range(12)]) == {
                f"k{i}": str(i) for i in range(12)
            }
            assert store.check().all_atomic
