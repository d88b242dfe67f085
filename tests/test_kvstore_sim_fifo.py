"""The simulated store's connections are FIFO per ``(sender, receiver)``.

``repro.sim.Network`` draws each message's delay on its own, which models the
paper's asynchronous, non-FIFO channels.  The store's frames travel over TCP
on asyncio, and its lease protocol relies on that order: a replica's
``batch-ack`` carrying a lease grant for a key, overtaken by the same
replica's ``lease-invalidate`` for that key, reaches the proxy after the
invalidation was dropped as "not held" -- and the proxy then serves the key
from a lease the replica already chased.  ``SimKVCluster`` therefore runs
on the engine :class:`~repro.kvstore.engine.fabric.Fabric`, whose
connections keep the rule ``due = max(now + draw, due of the connection's
tail)`` over the delay model's draws.

The nightly workflow runs the property below on hypothesis seeds 1-10.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operations import OpKind
from repro.kvstore import (
    KVRunConfig,
    ShardMap,
    SimKVCluster,
    check_per_key_atomicity,
    generate_workload,
    run,
)
from repro.kvstore.engine import SendFrame
from repro.kvstore.engine.fabric import Fabric
from repro.messages import BATCH_KIND, Message, unpack_batch, unpack_batch_ack
from repro.sim import Simulation
from repro.sim.delays import ConstantDelay, DelayModel, GeoDelay, UniformDelay


def cached_run(delay_model, seed, shard_map=None):
    ops = generate_workload(
        num_clients=4, ops_per_client=40, num_keys=6,
        read_fraction=0.6, key_skew=1.2, seed=seed,
    )
    shape = ({"shard_map": shard_map} if shard_map is not None
             else {"num_shards": 2, "num_groups": 2})
    result = run(KVRunConfig(
        backend="sim", proxies=2, read_cache=64, delay_model=delay_model, **shape,
    ), ops)
    return ops, result


def test_the_jittered_cached_recipe_is_atomic():
    # Reordered without the FIFO rule: key k1 was not atomic.
    ops, result = cached_run(UniformDelay(0.2, 3.0, seed=7), seed=7)
    assert result.completed_ops == ops.total_operations() == 160
    verdict = result.check()
    assert verdict.all_atomic, verdict.violating_keys


def _geo(seed):
    shard_map = ShardMap(2, num_groups=2, readers=4, writers=4)
    nodes = [*shard_map.all_servers, "p1", "p2", "c1", "c2", "c3", "c4"]
    sites = {node: ("east", "west")[index % 2] for index, node in enumerate(nodes)}
    return GeoDelay(sites, local_delay=0.5, wan_delay=8.0, seed=seed), shard_map


@settings(max_examples=50, deadline=None)
@given(
    geo=st.booleans(),
    delay_seed=st.integers(0, 2**16),
    workload_seed=st.integers(0, 2**16),
)
def test_cached_runs_under_jittered_delays_are_atomic_on_every_key(
    geo, delay_seed, workload_seed,
):
    if geo:
        delay_model, shard_map = _geo(delay_seed)
    else:
        delay_model, shard_map = UniformDelay(0.2, 3.0, seed=delay_seed), None
    ops, result = cached_run(delay_model, workload_seed, shard_map=shard_map)
    assert result.completed_ops == ops.total_operations()
    verdict = result.check()
    assert verdict.all_atomic, verdict.violating_keys


class _Draws(DelayModel):
    """Replays a fixed sequence of delays."""

    def __init__(self, *delays):
        self._delays = iter(delays)

    def delay(self, src, dst):
        return next(self._delays)


class _Receiver:
    """Logs each frame it is handed, with the fabric's clock."""

    def __init__(self, fabric):
        self.fabric = fabric
        self.log = []

    def on_frame(self, frame):
        self.log.append((frame.kind, self.fabric.now))
        return []


def _wired(model):
    """A fabric with processes ``a`` and ``b`` over ``model``'s draws."""
    fabric = Fabric(model.delay)
    for process_id in ("a", "b"):
        fabric.register(process_id, _Receiver(fabric))
    return fabric, fabric.engines["b"], fabric.engines["a"]


def _send_at(fabric, at, source, destination, kind):
    frame = SendFrame(destination, Message(source, destination, kind))
    fabric.schedule(at - fabric.now, lambda: fabric.execute(source, [frame]))


class TestFifoConnections:
    def test_a_later_frame_is_never_due_before_an_earlier_one_on_its_connection(self):
        fabric, b, a = _wired(_Draws(5.0, 1.0, 0.5, 1.0))
        _send_at(fabric, 0.0, "a", "b", "first")   # due 5
        _send_at(fabric, 1.0, "a", "b", "second")  # drew 1: due 2 < 5, so 5
        _send_at(fabric, 1.0, "b", "a", "other")   # another connection: its own draw
        _send_at(fabric, 7.0, "a", "b", "third")   # due 8 > 5: the draw stands
        fabric.run()
        assert b.log == [("first", 5.0), ("second", 5.0), ("third", 8.0)]
        assert a.log == [("other", 1.5)]

    def test_rounding_never_lands_a_frame_before_its_predecessor(self):
        # The first pair once came out one ulp early: 1.2358744663346217 +
        # (3.411214385727384 - 1.2358744663346217) < 3.411214385727384.
        cases = [(1.2358744663346217, 3.411214385727384)]
        cases += itertools.product((0.1, 0.3, 7.7, 1e6 / 3), (3.3, 9.9, 2e6 / 7))
        for now, last in cases:
            fabric, b, _ = _wired(_Draws(last, 0.0))
            _send_at(fabric, 0.0, "a", "b", "first")
            _send_at(fabric, now, "a", "b", "second")
            fabric.run()
            assert [kind for kind, _ in b.log] == ["first", "second"]
            assert b.log[1][1] >= b.log[0][1] == last

    def test_a_constant_delay_schedules_every_frame_its_draw_later(self):
        fabric, b, a = _wired(ConstantDelay(2.0))
        for at, source, destination in ((0.0, "a", "b"), (0.5, "a", "b"),
                                        (0.5, "b", "a"), (3.0, "a", "b")):
            _send_at(fabric, at, source, destination, f"{source}@{at}")
        fabric.run()
        assert b.log == [("a@0.0", 2.0), ("a@0.5", 2.5), ("a@3.0", 5.0)]
        assert a.log == [("b@0.5", 2.5)]

    def test_the_register_level_simulator_keeps_its_non_fifo_channels(self, make_simulation):
        simulation = make_simulation("abd-mwmr")
        assert isinstance(simulation, Simulation)
        assert isinstance(simulation.network.delay_model, UniformDelay)


class TestTimerFramesAndTheServiceQueue:
    """A replica's connection is FIFO from the moment a frame is *produced*:
    what a lease-expiry timer sends while the replica is still serving waits
    for the service queue, so it cannot pass a reply the replica produced
    earlier and still holds."""

    TTL = 100.0

    def test_a_lease_expiry_ack_waits_behind_a_reply_held_in_service(self):
        shard_map = ShardMap(1, num_groups=1, readers=2, writers=2)
        cluster = SimKVCluster(shard_map, ["c1"], KVRunConfig(
            proxies=1, read_cache=8, lease_ttl=self.TTL,
            delay_model=ConstantDelay(1.0), service_overhead=5.0, service_per_op=0.0,
        ))
        fabric = cluster.fabric
        # A direct client on a link of its own (c1's link is on the proxy).
        writer = cluster.client_engine("d1", cluster.recorder, proxy_candidates=[])
        fabric.register("d1", writer)

        def invoke_d1(kind, key, value=None):
            fabric.execute("d1", writer.invoke(kind, key, value)[1])

        emitted, arrived = [], []
        #: (op id, round trip) -> key of every sub the replica was sent: a
        #: batch-ack's replies name their round, not their key.
        keys = {}
        replica = "g1-s2"
        engine = cluster.server_logics[replica]
        for name in ("on_frame", "on_timer"):
            def tapped(arg, method=getattr(engine, name), name=name):
                if name == "on_frame" and arg.kind == BATCH_KIND:
                    keys.update(
                        ((sub.message.op_id, sub.message.round_trip), sub.key)
                        for sub in unpack_batch(arg)
                    )
                effects = method(arg)
                emitted.extend(
                    (fabric.now, name, _acked_keys(effect.frame, keys))
                    for effect in effects
                    if isinstance(effect, SendFrame) and effect.destination == "d1"
                )
                return effects

            setattr(engine, name, tapped)  # the runtime looks both up per call
        on_frame = writer.on_frame

        def heard(frame):
            if frame.sender == replica:
                arrived.append((fabric.now, _acked_keys(frame, keys)))
            return on_frame(frame)

        writer.on_frame = heard

        def after_the_fill(_outcome):
            # p1 holds read leases on k and dies without releasing them; a
            # direct write of k is deferred until the replicas expire them.
            cluster.crash_proxy("p1")
            invoke_d1(OpKind.WRITE, "k", "v2")

        cluster.invoke("c1", "put", "k", "v1", lambda _: cluster.invoke(
            "c1", "get", "k", None, after_the_fill))
        cluster.run(until=self.TTL / 2)
        assert engine.deferred_subs == 1 and engine.lease_holders("k") == {"p1"}
        expiry = fabric.runtimes[replica].timers[("lease", "k", "p1")].due
        # A read of another key lands 2 units before the expiry and is held
        # 5 units in service, past it.
        fabric.schedule(expiry - 3.0 - fabric.now,
                        lambda: invoke_d1(OpKind.READ, "k2"))
        cluster.run()
        k2_served, k_released = expiry - 2.0, expiry
        assert emitted[-2:] == [
            (k2_served, "on_frame", [("k2", "query-ack")]),
            (k_released, "on_timer", [("k", "update-ack")]),
        ]
        # The read's reply leaves when its service ends, 3 units after the
        # expiry, and the timer's ack, produced later, leaves behind it.
        left = k2_served + 5.0
        assert arrived[-2:] == [
            (left + 1.0, [("k2", "query-ack")]),
            (left + 1.0, [("k", "update-ack")]),
        ]
        assert check_per_key_atomicity(cluster.recorder.histories()).all_atomic


def _acked_keys(frame, keys):
    return [(keys[reply.op_id, reply.round_trip], reply.kind)
            for reply in unpack_batch_ack(frame)]

