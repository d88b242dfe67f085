"""Tests for the kv store on the asyncio TCP backend (facade + sync wrapper)."""

from __future__ import annotations

import asyncio

import pytest

from repro.kvstore import (
    AsyncKVCluster,
    KVRunConfig,
    KVStore,
    ShardMap,
    SyncKVStore,
    generate_workload,
    run,
)
from repro.kvstore._sync import LoopThread, run_sync


class TestRunSync:
    def test_returns_value(self):
        async def compute():
            await asyncio.sleep(0)
            return 42

        assert run_sync(compute()) == 42

    def test_propagates_exception(self):
        async def fail():
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            run_sync(fail())

    def test_never_builds_the_results_repr(self):
        # A run's result is large: asyncio.run shutting down builds the repr
        # of its main task, result included, unless the result goes around it.
        class Counted:
            reprs = 0

            def __repr__(self):
                Counted.reprs += 1
                return "Counted()"

        async def compute():
            return Counted()

        assert isinstance(run_sync(compute()), Counted)
        assert Counted.reprs == 0

    def test_refuses_inside_running_loop(self):
        async def outer():
            async def inner():
                return 1

            with pytest.raises(RuntimeError, match="running event loop"):
                run_sync(inner())

        asyncio.run(outer())


class TestLoopThread:
    def test_call_and_stop(self):
        loop = LoopThread()

        async def compute():
            return "done"

        assert loop.call(compute()) == "done"
        loop.stop()
        assert not loop.running

        async def late():
            return None  # pragma: no cover - never runs

        with pytest.raises(RuntimeError):
            loop.call(late())

    def test_stop_is_idempotent(self):
        loop = LoopThread()
        loop.stop()
        loop.stop()


class TestKVStoreFacade:
    def test_put_get_multi(self):
        async def scenario():
            cluster = AsyncKVCluster(ShardMap(2))
            await cluster.start()
            store = KVStore(cluster, client_id="c1")
            await store.connect()
            try:
                await store.put("user:7", "ada")
                assert await store.get("user:7") == "ada"
                assert await store.get("missing") is None
                await store.multi_put({"a": 1, "b": 2, "c": 3, "d": 4})
                values = await store.multi_get(["a", "b", "c", "d"])
                assert values == {"a": 1, "b": 2, "c": 3, "d": 4}
                verdict = store.check()
                assert verdict.all_atomic, verdict.summary()
                # multi-ops submitted in one tick coalesce into shared rounds.
                assert store.batch_stats().largest >= 2
            finally:
                await store.close()
                await cluster.stop()

        asyncio.run(scenario())

    def test_concurrent_clients_stay_atomic_per_key(self):
        import time

        from repro.kvstore import KVHistoryRecorder, check_per_key_atomicity

        async def scenario():
            shard_map = ShardMap(2, readers=3, writers=3)
            cluster = AsyncKVCluster(shard_map)
            await cluster.start()
            base = time.monotonic()
            # One recorder shared by all stores: contention on "shared" is
            # only checkable over the combined history of all clients.
            recorder = KVHistoryRecorder(lambda: time.monotonic() - base)
            stores = []
            try:
                for index in range(3):
                    store = KVStore(cluster, client_id=f"c{index + 1}",
                                    recorder=recorder)
                    await store.connect()
                    stores.append(store)

                async def hammer(store: KVStore, index: int) -> None:
                    for i in range(6):
                        await store.put("shared", f"v-{index}-{i}")
                        await store.get("shared")

                await asyncio.gather(*(hammer(s, i) for i, s in enumerate(stores)))
                verdict = check_per_key_atomicity(recorder.histories())
                assert verdict.all_atomic, verdict.summary()
            finally:
                for store in stores:
                    await store.close()
                await cluster.stop()

        asyncio.run(scenario())

    def test_oversized_value_raises_instead_of_hanging(self):
        from repro.asyncio_net.codec import MAX_FRAME_BYTES, FrameError

        async def scenario():
            cluster = AsyncKVCluster(ShardMap(1))
            await cluster.start()
            store = KVStore(cluster, client_id="c1")
            await store.connect()
            try:
                huge = "x" * (MAX_FRAME_BYTES + 1)
                with pytest.raises(FrameError):
                    await asyncio.wait_for(store.put("k", huge), timeout=5.0)
            finally:
                await store.close()
                await cluster.stop()

        asyncio.run(scenario())

    def test_misshapen_typed_frame_takes_the_undeliverable_exit(self):
        # A typed kind whose payload is not its typed records cannot be
        # encoded; like an oversized frame it is reported to the engine as
        # permanently undeliverable and the connection stays usable.
        from repro.asyncio_net.codec import FrameError
        from repro.kvstore.engine import SendFrame
        from repro.messages import Message

        async def scenario():
            cluster = AsyncKVCluster(ShardMap(1))
            await cluster.start()
            store = KVStore(cluster, client_id="c1")
            await store.connect()
            try:
                server_id = next(iter(cluster.shard_map.groups.values())).servers[0]
                frame = Message("c1", server_id, kind="batch-ack", payload={})
                reported = []
                link = store._link  # whose connections a direct store sends on
                engine = link.engine
                engine.on_frame_undeliverable = (
                    lambda frame, error, retryable=True:
                    reported.append((frame, error, retryable)) or []
                )
                assert link._send(SendFrame(server_id, frame)) == []
                (seen, error, retryable), = reported
                assert seen is frame and retryable is False
                assert isinstance(error, FrameError) and "batch-ack" in str(error)
                del engine.on_frame_undeliverable
                await store.put("k", "v")
                assert await store.get("k") == "v"
            finally:
                await store.close()
                await cluster.stop()

        asyncio.run(scenario())

    def test_requires_connect(self):
        async def scenario():
            cluster = AsyncKVCluster(ShardMap(1))
            await cluster.start()
            store = KVStore(cluster)
            try:
                with pytest.raises(RuntimeError, match="not connected"):
                    await store.put("k", "v")
            finally:
                await cluster.stop()

        asyncio.run(scenario())


class TestSyncKVStore:
    def test_sync_wrapper_round_trip(self):
        with SyncKVStore(KVRunConfig(backend="asyncio", num_shards=2)) as store:
            store.put("k1", "hello")
            assert store.get("k1") == "hello"
            store.multi_put({"x": "1", "y": "2"})
            assert store.multi_get(["x", "y"]) == {"x": "1", "y": "2"}
            verdict = store.check()
            assert verdict.all_atomic
        # close() is idempotent and the context manager already closed it.
        store.close()

    def test_sync_methods_are_plain_callables(self):
        assert not asyncio.iscoroutinefunction(SyncKVStore.put)
        assert not asyncio.iscoroutinefunction(SyncKVStore.get)
        assert not asyncio.iscoroutinefunction(SyncKVStore.multi_get)
        assert not asyncio.iscoroutinefunction(SyncKVStore.multi_put)


class TestKillRestart:
    def test_workload_survives_one_replica_kill_per_group(self):
        """A read/write workload keeps completing (and stays atomic) across a
        kill of one replica in every group, and the restarted replicas are
        folded back in by the clients' reconnect loops."""

        async def scenario():
            shard_map = ShardMap(4, num_groups=2, servers_per_shard=3,
                                 max_faults=1, readers=2, writers=2)
            cluster = AsyncKVCluster(shard_map)
            await cluster.start()
            stores = []
            try:
                for index in range(2):
                    store = KVStore(cluster, client_id=f"c{index + 1}")
                    await store.connect()
                    stores.append(store)

                async def phase(tag: str) -> None:
                    async def hammer(store: KVStore, index: int) -> None:
                        for i in range(5):
                            await store.put(f"k{index}-{i}", f"{tag}-{i}")
                            assert await store.get(f"k{index}-{i}") == f"{tag}-{i}"

                    await asyncio.gather(*(hammer(s, i) for i, s in enumerate(stores)))

                await phase("before")
                victims = [group.servers[0]
                           for group in shard_map.groups.values()]
                for victim in victims:
                    await cluster.kill_server(victim)
                served_at_kill = {
                    v: cluster.replicas[v].requests_served for v in victims
                }
                await phase("during")  # quorums of S - t carry the load
                for victim in victims:
                    await cluster.restart_server(victim)
                await asyncio.sleep(0.2)  # let the redial loops land
                await phase("after")
                # The restarted replicas are serving traffic again.
                for victim in victims:
                    assert cluster.replicas[victim].requests_served > \
                        served_at_kill[victim]
                for store in stores:
                    verdict = store.check()
                    assert verdict.all_atomic, verdict.summary()
            finally:
                for store in stores:
                    await store.close()
                await cluster.stop()

        asyncio.run(scenario())

    def test_restart_is_a_no_op_for_a_running_replica(self):
        async def scenario():
            cluster = AsyncKVCluster(ShardMap(1))
            await cluster.start()
            try:
                server_id = next(iter(cluster.replicas))
                address = cluster.replicas[server_id].address
                await cluster.restart_server(server_id)
                assert cluster.replicas[server_id].address == address
                assert cluster.replicas[server_id].running
            finally:
                await cluster.stop()

        asyncio.run(scenario())


class TestWorkloadRunner:
    def test_closed_loop_run_is_atomic_and_batched(self):
        workload = generate_workload(num_clients=2, ops_per_client=10, num_keys=8,
                                     seed=4, pipeline_depth=4)
        result = run(KVRunConfig(backend="asyncio", num_shards=2, max_batch=8), workload)
        assert result.backend == "asyncio"
        assert result.completed_ops == workload.total_operations()
        assert result.check().all_atomic
        assert result.messages_sent > 0
        assert result.batch_stats.rounds > 0
        assert result.duration > 0
