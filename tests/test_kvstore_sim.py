"""Tests for the kv store on the discrete-event simulator backend."""

from __future__ import annotations

from collections.abc import Sized

import pytest

from repro.kvstore import (
    KVOp,
    KVRunConfig,
    KVWorkload,
    ShardMap,
    SimKVCluster,
    generate_workload,
    run,
)
from repro.sim.delays import ConstantDelay, UniformDelay


class TestWorkloadGeneration:
    def test_shapes(self):
        workload = generate_workload(num_clients=3, ops_per_client=10, num_keys=8, seed=1)
        assert workload.clients == ["c1", "c2", "c3"]
        assert workload.total_operations() == 30
        assert workload.keys <= {f"k{i}" for i in range(1, 9)}

    def test_first_op_per_client_is_a_put(self):
        workload = generate_workload(num_clients=2, ops_per_client=5, num_keys=4,
                                     read_fraction=1.0, seed=3)
        for ops in workload.sequences.values():
            assert ops[0].kind == "put"

    def test_kvop_validation(self):
        with pytest.raises(ValueError):
            KVOp("put", "k1")
        with pytest.raises(ValueError):
            KVOp("delete", "k1")
        assert KVOp("get", "k1").value is None

    def test_deterministic_for_seed(self):
        a = generate_workload(seed=9)
        b = generate_workload(seed=9)
        assert a.sequences == b.sequences


class TestSimBackend:
    def test_run_completes_and_is_atomic_per_key(self):
        workload = generate_workload(num_clients=3, ops_per_client=12, num_keys=10,
                                     seed=2, pipeline_depth=4)
        result = run(KVRunConfig(num_shards=2, max_batch=8), workload)
        assert result.backend == "sim"
        assert result.completed_ops == workload.total_operations()
        verdict = result.check()
        assert verdict.all_atomic, verdict.summary()
        assert set(result.histories) == workload.keys

    def test_reads_return_latest_written_value(self):
        # One client, one key, sequential ops: the read must see the put.
        workload = KVWorkload(
            sequences={"c1": [KVOp("put", "k1", "v0"), KVOp("put", "k1", "v1"),
                              KVOp("get", "k1")]},
            pipeline_depth=1,
        )
        result = run(KVRunConfig(num_shards=2), workload)
        history = result.histories["k1"]
        read = history.reads[-1]
        assert read.value == "v1"

    def test_per_key_serialization_same_client(self):
        # Pipelined ops on the SAME key by one client must stay sequential,
        # giving a well-formed per-key history.
        ops = [KVOp("put", "hot", f"v{i}") for i in range(5)] + [KVOp("get", "hot")]
        workload = KVWorkload(sequences={"c1": ops}, pipeline_depth=6)
        result = run(KVRunConfig(num_shards=1), workload)
        history = result.histories["hot"]
        assert history.is_well_formed()
        assert result.check().all_atomic

    def test_batching_reduces_messages(self):
        workload = generate_workload(num_clients=4, ops_per_client=15, num_keys=12,
                                     seed=5, pipeline_depth=6)
        unbatched = run(KVRunConfig(num_shards=1, max_batch=1), workload)
        batched = run(KVRunConfig(num_shards=1, max_batch=8), workload)
        assert batched.messages_sent < unbatched.messages_sent
        assert batched.batch_stats.mean_batch_size > 1.0
        assert batched.check().all_atomic and unbatched.check().all_atomic

    def test_throughput_rises_with_shards_under_load(self):
        workload = generate_workload(num_clients=5, ops_per_client=20, num_keys=32,
                                     seed=7, pipeline_depth=5)
        few = run(KVRunConfig(
            num_shards=1, delay_model=ConstantDelay(1.0),
            service_overhead=0.3, service_per_op=0.3,
        ), workload)
        many = run(KVRunConfig(
            num_shards=4, delay_model=ConstantDelay(1.0),
            service_overhead=0.3, service_per_op=0.3,
        ), workload)
        assert many.throughput() > few.throughput()
        assert many.check().all_atomic and few.check().all_atomic

    def test_fast_read_protocol_on_shards(self):
        workload = generate_workload(num_clients=2, ops_per_client=10, num_keys=6,
                                     seed=11, pipeline_depth=3)
        result = run(KVRunConfig(
            num_shards=2,
            protocol_key="fast-read-mwmr",
            servers_per_shard=5,
            delay_model=UniformDelay(0.5, 1.5, seed=11),
        ), workload)
        assert result.check().all_atomic
        # Fast reads: every read finishes in one round-trip.
        for history in result.histories.values():
            for op in history.reads:
                assert op.round_trips == 1

    def test_run_result_row_and_stats(self):
        workload = generate_workload(num_clients=2, ops_per_client=6, num_keys=4, seed=3)
        result = run(KVRunConfig(num_shards=2), workload)
        row = result.as_row()
        assert row["backend"] == "sim" and row["shards"] == 2
        assert row["atomic"] is True
        assert result.read_stats().p50 > 0
        assert result.throughput() > 0


class TestSimKVClusterDirect:
    def test_interactive_puts_and_gets(self):
        shard_map = ShardMap(2, readers=1, writers=1)
        cluster = SimKVCluster(shard_map, ["c1"])
        client = cluster.clients["c1"]
        outcomes = []
        client.put("a", "x", on_complete=outcomes.append)
        client.put("b", "y", on_complete=outcomes.append)
        cluster.run()
        client.get("a", on_complete=outcomes.append)
        cluster.run()
        assert outcomes[-1].value == "x"
        assert cluster.recorder.completed_operations == 3
        assert cluster.batch_stats().rounds > 0


class TestNetworkFootprint:
    """The simulated network keeps counters, not a per-message log."""

    @staticmethod
    def run_cluster(ops_per_client):
        workload = generate_workload(num_clients=2, ops_per_client=ops_per_client,
                                     num_keys=8, seed=5)
        config = KVRunConfig(proxies=1, read_cache=16)
        cluster = SimKVCluster(
            config.cluster_map(len(workload.clients)), workload.clients, config
        )

        def chain(client, remaining):
            def issue_next(_outcome=None):
                if remaining:
                    op = remaining.pop()
                    if op.kind == "put":
                        client.put(op.key, op.value, on_complete=issue_next)
                    else:
                        client.get(op.key, on_complete=issue_next)

            return issue_next

        for client_id, ops in workload.sequences.items():
            chain(cluster.clients[client_id], list(reversed(ops)))()
        cluster.run()
        assert cluster.recorder.completed_operations == workload.total_operations()
        return cluster.network

    def test_ten_times_the_ops_leave_every_container_the_same_length(self):
        def lengths(network):
            return {
                name: len(value)
                for name, value in vars(network).items()
                if isinstance(value, Sized) and not isinstance(value, str)
            }

        small, large = self.run_cluster(10), self.run_cluster(100)
        assert large.sent_count > 5 * small.sent_count
        assert lengths(small) == lengths(large)
        assert small.pending_messages() == large.pending_messages() == 0
