"""The autoscaler's input: what the replicas served, per shard.

Each replica tallies the subs it serves per shard; at every autoscale tick the
control engine's ``AutoscaleFeed`` hands those tallies to ``record_op`` and
resets them.  The first test pins the move a skewed simulated run triggers --
it reads no move at all when the counts never arrive -- and the second
checks the harvest itself.
"""

from __future__ import annotations

from collections import Counter

from repro.kvstore import KVRunConfig, ShardMap, SimKVCluster, run
from repro.kvstore.workload import generate_workload
from repro.sim.delays import ConstantDelay


def test_a_skewed_run_moves_the_hot_groups_hottest_shard():
    workload = generate_workload(
        num_clients=2, ops_per_client=24, num_keys=16, key_skew=1.6,
        read_fraction=0.5, seed=1,
    )
    result = run(KVRunConfig(
        num_shards=8, num_groups=2, delay_model=ConstantDelay(1.0),
        service_overhead=0.3, service_per_op=0.3, autoscale=True,
        autoscale_interval=30.0, drain_range_size=8,
    ), workload)
    assert result.completed_ops == 48 and result.check().all_atomic
    actions = [
        (action["shard"], action["from"], action["to"],
         action["window_ops"], action["group_load"])
        for action in result.autoscale["actions"]
    ]
    assert actions == [("sh6", "g2", "g1", 87, 67)]


def test_a_tick_harvests_the_replica_tallies_and_resets_them():
    cluster = SimKVCluster(ShardMap(4, num_groups=2, readers=1, writers=1), ["c1"])
    for index in range(6):
        cluster.invoke("c1", "put", f"k{index}", "v")
    cluster.run()
    servers = cluster.server_logics
    tallied = Counter()
    for engine in servers.values():
        tallied.update(engine.served)
    assert sum(tallied.values()) >= 6 * 2  # each put is two rounds

    control = cluster.control_engine
    recorded = Counter()

    def record_op(shard_id, count):
        recorded[shard_id] += count

    control.record_op = record_op
    control.start_autoscaler()
    control.on_timer(("autoscale",))
    assert recorded == tallied
    assert not any(engine.served for engine in servers.values())

    recorded.clear()
    control.on_timer(("autoscale",))
    assert not recorded
