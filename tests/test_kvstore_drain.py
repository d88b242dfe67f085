"""Adversity tests for the incremental key-range drain protocol.

The control plane's five-stage drain (fence -> host -> transfer/install per
range -> complete) must survive the failure modes a real migration sees:

* **replica crash mid-transfer** -- the control plane retries, gives the
  replica up for dead, and routes the dead donor's state to its paired
  receiver as the merged blobs of the surviving donors;
* **duplicated and reordered drain frames** -- every handler is idempotent
  and acks are matched by token, so a retried frame that raced its ack (or
  a transport that duplicates) changes nothing;
* **client ops racing a fenced range** -- ops on keys mid-drain bounce off
  the fence, back off (they are not *stale*, the view is fresh), and
  complete after the range installs, with per-key atomicity intact.

A final cross-backend check scripts one identical drain through the
in-memory engine fabric, the simulator adapter, and the asyncio adapter and
asserts the control engines emitted the same drain-frame multiset -- the
no-drift-by-construction property extended to the control plane.
"""

from __future__ import annotations

import itertools

from test_kvstore_engine import build_memory_stack, run_script

from repro.core.operations import OpKind
from repro.kvstore import (
    AsyncKVCluster,
    KVRunConfig,
    KVStore,
    ShardMap,
    SimKVCluster,
    check_per_key_atomicity,
)
from repro.kvstore.engine import (
    CONTROL_PLANE,
    ControlPlaneEngine,
    SendFrame,
)

#: Above the memory fabric's 2.0-unit round trip, so resends only happen
#: for frames that were really lost (a crashed replica), never for slow acks.
FABRIC_RETRY_DELAY = 10.0


def _tap_drain_sends(engine: ControlPlaneEngine, trace: list) -> None:
    """Record every drain frame the control engine emits, at the boundary."""

    def record(effects):
        for effect in effects:
            if isinstance(effect, SendFrame) and \
                    effect.frame.kind.startswith("drain-"):
                trace.append((effect.frame.kind, effect.destination,
                              effect.frame.payload.get("shard")))

    def wrap_returning_effects(name):
        original = getattr(engine, name)

        def wrapper(*args, **kwargs):
            effects = original(*args, **kwargs)
            record(effects)
            return effects

        setattr(engine, name, wrapper)

    def wrap_returning_pair(name):
        original = getattr(engine, name)

        def wrapper(*args, **kwargs):
            result, effects = original(*args, **kwargs)
            record(effects)
            return result, effects

        setattr(engine, name, wrapper)

    wrap_returning_effects("on_frame")
    wrap_returning_effects("on_timer")
    wrap_returning_pair("start_resize")
    wrap_returning_pair("start_move")


class TestDrainAdversity:
    def _stack_with_data(self, num_keys=16):
        shard_map, fabric, client, _proxy, recorder = build_memory_stack(
            num_shards=4, num_groups=2
        )
        run_script(fabric, client,
                   [(OpKind.WRITE, f"k{i}", f"v{i}") for i in range(num_keys)])
        return shard_map, fabric, client, recorder

    def test_replica_crash_mid_transfer_completes_with_merged_donors(self):
        shard_map, fabric, client, recorder = self._stack_with_data()
        control = ControlPlaneEngine(
            shard_map, retry_delay=FABRIC_RETRY_DELAY, drain_range_size=2
        )
        fabric.register(CONTROL_PLANE, control)
        report, effects = control.start_resize(8)
        donors = {server
                  for shard in report.shards_fenced
                  for server in shard_map.groups[
                      # the donor group as it was fenced: every fenced shard
                      # still routes to its (new) spec's group servers
                      shard_map.shards[shard].group.group_id].servers
                  if shard in shard_map.shards}
        victim = sorted(donors)[0]
        # Crash the donor replica right after the fence round lands (fence
        # acks return at t=2.0) but before any transfer frame reaches it.
        fabric.schedule(3.0, lambda: fabric.engines.pop(victim, None))
        fabric.execute(CONTROL_PLANE, effects)
        fabric.run()
        assert report.done
        assert control.drains_completed == 1
        # The victim was given up on, not waited for forever.
        assert report.keys_moved > 0
        # Every key still reads back its last written value: the dead
        # donor's blobs were absorbed from the surviving replicas.
        run_script(fabric, client,
                   [(OpKind.READ, f"k{i}", None) for i in range(16)])
        verdict = check_per_key_atomicity(recorder.histories())
        assert verdict.all_atomic, verdict.summary()

    def test_duplicated_and_reordered_drain_frames_are_harmless(self):
        shard_map, fabric, client, recorder = self._stack_with_data()
        control = ControlPlaneEngine(
            shard_map, retry_delay=FABRIC_RETRY_DELAY, drain_range_size=2
        )
        fabric.register(CONTROL_PLANE, control)

        # A hostile transport: every drain frame is delivered twice, the
        # duplicate arriving 5 units late -- after later-stage frames, so
        # dupes are also *reordered* against the protocol's stage sequence.
        deliver = fabric.deliver

        def duplicating_deliver(effect):
            deliver(effect)
            if effect.frame.kind.startswith("drain-"):
                fabric.schedule(4.0, lambda: deliver(effect))

        fabric.deliver = duplicating_deliver
        report, effects = control.start_resize(8)
        fabric.execute(CONTROL_PLANE, effects)
        fabric.run()
        fabric.deliver = deliver
        assert report.done
        assert control.drains_completed == 1
        run_script(fabric, client,
                   [(OpKind.READ, f"k{i}", None) for i in range(16)])
        verdict = check_per_key_atomicity(recorder.histories())
        assert verdict.all_atomic, verdict.summary()

    def test_client_ops_racing_a_fenced_range_back_off_and_complete(self):
        shard_map, fabric, client, recorder = self._stack_with_data()
        control = ControlPlaneEngine(
            shard_map, retry_delay=FABRIC_RETRY_DELAY, drain_range_size=1
        )
        fabric.register(CONTROL_PLANE, control)
        report, effects = control.start_resize(8)
        fabric.execute(CONTROL_PLANE, effects)
        # While ranges drain one key at a time, keep writing the same keys:
        # issues staggered across the whole drain window so some rounds are
        # guaranteed to land on fenced donors and pending receivers.
        counter = itertools.count()

        def issue(i):
            op_id, client_effects = client.invoke(
                OpKind.WRITE, f"k{i % 16}", f"w{next(counter)}")
            fabric.callbacks[op_id] = lambda outcome: None
            fabric.execute("c1", client_effects)

        for i in range(48):
            fabric.schedule(0.5 + i * 1.0, lambda i=i: issue(i))
        fabric.run()
        assert report.done
        assert control.drains_completed == 1
        # The race really happened, and was classified as a drain bounce
        # (fresh view, fenced range), not as view staleness.
        assert client.drain_backoffs >= 1
        assert not fabric.failures
        run_script(fabric, client,
                   [(OpKind.READ, f"k{i}", None) for i in range(16)])
        verdict = check_per_key_atomicity(recorder.histories())
        assert verdict.all_atomic, verdict.summary()


class TestCrossBackendDrainEquivalence:
    """One scripted drain emits the same drain-frame multiset everywhere."""

    KEYS = [f"k{i}" for i in range(12)]

    def _memory_trace(self):
        shard_map, fabric, client, _proxy, recorder = build_memory_stack(
            num_shards=4, num_groups=2
        )
        run_script(fabric, client,
                   [(OpKind.WRITE, key, f"v-{key}") for key in self.KEYS])
        control = ControlPlaneEngine(
            shard_map, retry_delay=FABRIC_RETRY_DELAY, drain_range_size=2
        )
        trace: list = []
        _tap_drain_sends(control, trace)
        fabric.register(CONTROL_PLANE, control)
        report, effects = control.start_resize(8)
        fabric.execute(CONTROL_PLANE, effects)
        fabric.run()
        assert report.done
        verdict = check_per_key_atomicity(recorder.histories())
        assert verdict.all_atomic, verdict.summary()
        return sorted(trace)

    def _sim_trace(self):
        shard_map = ShardMap(4, num_groups=2, readers=1, writers=1)
        cluster = SimKVCluster(shard_map, ["c1"], KVRunConfig(drain_range_size=2))
        for key in self.KEYS:
            cluster.invoke("c1", "put", key, f"v-{key}")
        cluster.run()
        trace: list = []
        _tap_drain_sends(cluster.control_engine, trace)
        report = cluster.resize(8)
        assert report.done
        return sorted(trace)

    def _asyncio_trace(self):
        import asyncio

        async def scenario():
            shard_map = ShardMap(4, num_groups=2, readers=1, writers=1)
            cluster = AsyncKVCluster(shard_map, KVRunConfig(backend="asyncio", drain_range_size=2))
            # Loopback acks land in milliseconds; a generous retry delay
            # keeps slow-CI runs from resending frames the sim never resends.
            cluster.control.retry_delay = 5.0
            await cluster.start()
            store = KVStore(cluster, client_id="c1")
            await store.connect()
            trace: list = []
            try:
                for key in self.KEYS:
                    await store.put(key, f"v-{key}")
                _tap_drain_sends(cluster.control, trace)
                report = cluster.resize(8)
                await cluster.flush_migrations()
                assert report.done
            finally:
                await store.close()
                await cluster.stop()
            return sorted(trace)

        return asyncio.run(scenario())

    def test_drain_frame_streams_are_identical(self):
        memory = self._memory_trace()
        sim = self._sim_trace()
        net = self._asyncio_trace()
        assert memory == sim == net
        # Sanity: the drain really ran in stages -- fences, per-range
        # transfers and installs, and completions all present.
        kinds = {kind for kind, _dest, _shard in memory}
        assert {"drain-fence", "drain-transfer",
                "drain-install", "drain-complete"} <= kinds
