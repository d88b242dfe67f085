"""The simulated store's connections are FIFO per ``(sender, receiver)``.

``repro.sim.Network`` draws each message's delay on its own, which models the
paper's asynchronous, non-FIFO channels.  The store's frames travel over TCP
on asyncio, and its lease protocol relies on that order: a replica's
``batch-ack`` carrying a lease grant for a key, overtaken by the same
replica's ``lease-invalidate`` for that key, reaches the proxy after the
invalidation was dropped as "not held" -- and the proxy then serves the key
from a lease the replica already chased.  ``SimKVCluster`` therefore wraps
its delay model in :class:`~repro.sim.delays.FifoDelay`.

The nightly workflow runs the property below on hypothesis seeds 1-10.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore import KVRunConfig, ShardMap, generate_workload, run
from repro.sim import Simulation
from repro.sim.delays import ConstantDelay, DelayModel, FifoDelay, GeoDelay, UniformDelay, fifo


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


class TestFifoDelay:
    def test_a_later_message_is_never_due_before_an_earlier_one_on_its_pair(self):
        now = [0.0]
        model = FifoDelay(_Draws(5.0, 1.0, 0.5, 1.0), lambda: now[0])
        assert model.delay("a", "b") == 5.0           # due 5
        now[0] = 1.0
        assert model.delay("a", "b") == 4.0           # drew 1: due 2 < 5, so 5
        assert model.delay("b", "a") == 0.5           # another pair: its own draw
        now[0] = 7.0
        assert model.delay("a", "b") == 1.0           # due 8 > 5: the draw stands

    def test_rounding_never_lands_a_message_before_its_predecessor(self):
        for now, last in itertools.product((0.1, 0.3, 7.7, 1e6 / 3), (3.3, 9.9, 2e6 / 7)):
            clock = [0.0]
            model = FifoDelay(_Draws(last, 0.0), lambda: clock[0])
            model.delay("a", "b")
            clock[0] = now
            assert now + model.delay("a", "b") >= last

    def test_a_constant_model_is_already_fifo_and_is_left_alone(self):
        constant = ConstantDelay(2.0)
        assert fifo(constant, lambda: 0.0) is constant
        jittered = UniformDelay(seed=1)
        assert isinstance(fifo(jittered, lambda: 0.0), FifoDelay)

    def test_the_register_level_simulator_keeps_its_non_fifo_channels(self, make_simulation):
        simulation = make_simulation("abd-mwmr")
        assert isinstance(simulation, Simulation)
        assert isinstance(simulation.network.delay_model, UniformDelay)
