"""Benchmark — kv-store scaling: shard count x batch size, both backends.

Sweeps the sharded key-value store (:mod:`repro.kvstore`) under a fixed
client load and reports throughput, message cost and per-key atomicity:

* **shards**: per-object independence means more shards = more parallel
  server capacity; throughput rises with shard count at fixed load.
* **batch size**: coalescing same-shard operations into one framed round
  amortizes per-message overhead; fewer frames, higher throughput,
  most visibly when few shards concentrate the load.

The sim sweep uses virtual time with a modeled per-server service cost; the
asyncio sweep exercises the same store over real loopback TCP with a small
service delay per replica connection.  Every recorded run is checked for
per-key atomicity.

Run as a pytest-benchmark test or directly::

    PYTHONPATH=src python -m pytest benchmarks/bench_kv_sharding.py -s
    PYTHONPATH=src python benchmarks/bench_kv_sharding.py [--quick]
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.bench.report import format_rows
from repro.kvstore import KVRunConfig, generate_workload, run
from repro.sim.delays import ConstantDelay

from _bench_utils import (
    bench_json_path,
    print_section,
    rows_for,
    write_bench_json,
    write_metrics_json,
)

SIM_SHARDS = (1, 2, 4, 8)
SIM_BATCHES = (1, 8)
NET_SHARDS = (1, 2, 4)


def _sim_workload(clients=6, ops=30, keys=48):
    return generate_workload(
        num_clients=clients, ops_per_client=ops, num_keys=keys, seed=7,
        pipeline_depth=6,
    )


def _net_workload(clients=3, ops=30, keys=24):
    return generate_workload(
        num_clients=clients, ops_per_client=ops, num_keys=keys, seed=7,
        pipeline_depth=6,
    )


def run_sim_sweep(shard_counts=SIM_SHARDS, batches=SIM_BATCHES, workload=None):
    workload = workload or _sim_workload()
    rows = []
    for batch in batches:
        for shards in shard_counts:
            result = run(KVRunConfig(
                num_shards=shards,
                max_batch=batch,
                delay_model=ConstantDelay(1.0),
                service_overhead=0.3,
                service_per_op=0.3,
            ), workload)
            rows.append(result)
    return rows


def run_net_sweep(shard_counts=NET_SHARDS, workload=None):
    workload = workload or _net_workload()
    rows = []
    for shards in shard_counts:
        result = run(KVRunConfig(
            backend="asyncio",
            num_shards=shards,
            max_batch=6,
            service_overhead=0.001,
            service_per_op=0.001,
        ), workload)
        rows.append(result)
    return rows


def _print_sweep(title, results):
    print_section(title)
    print(format_rows([r.as_row() for r in results],
                      ["backend", "shards", "batch", "ops", "throughput",
                       "mean_batch", "messages", "read_p50", "atomic"]))


def test_kv_sim_sharding_sweep(benchmark):
    results = benchmark.pedantic(run_sim_sweep, rounds=1, iterations=1)
    _print_sweep("KV store scaling — simulator (virtual time)", results)
    for result in results:
        assert result.check().all_atomic
        assert result.completed_ops == _sim_workload().total_operations()
    by_batch = {}
    for result in results:
        by_batch.setdefault(result.max_batch, []).append(result)
    for batch, sweep in by_batch.items():
        ordered = sorted(sweep, key=lambda r: r.num_shards)
        # Fixed client load: throughput rises with shard count.
        assert ordered[-1].throughput() > ordered[0].throughput() * 1.5
    # Batching amortizes frames: at one shard the batched run sends far
    # fewer messages and completes sooner.
    single = {r.max_batch: r for r in results if r.num_shards == 1}
    assert single[8].messages_sent < single[1].messages_sent / 2
    assert single[8].throughput() > single[1].throughput()


def test_kv_asyncio_sharding_sweep(benchmark):
    results = benchmark.pedantic(run_net_sweep, rounds=1, iterations=1)
    _print_sweep("KV store scaling — asyncio loopback TCP (wall clock)", results)
    for result in results:
        assert result.check().all_atomic
        assert result.completed_ops == _net_workload().total_operations()
    ordered = sorted(results, key=lambda r: r.num_shards)
    # Wall-clock throughput should rise with shard count; allow scheduler
    # noise but insist on a real improvement from 1 to max shards.
    assert ordered[-1].throughput() > ordered[0].throughput() * 1.1


if __name__ == "__main__":
    if "--quick" in sys.argv[1:]:
        sim = run_sim_sweep(shard_counts=(1, 2), batches=(8,),
                            workload=_sim_workload(clients=2, ops=8, keys=12))
        net = run_net_sweep(shard_counts=(1, 2),
                            workload=_net_workload(clients=2, ops=6, keys=8))
    else:
        sim = run_sim_sweep()
        net = run_net_sweep()
    _print_sweep("KV store scaling — simulator (virtual time)", sim)
    _print_sweep("KV store scaling — asyncio loopback TCP (wall clock)", net)
    json_path = bench_json_path(sys.argv[1:])
    if json_path:
        write_bench_json(json_path, "kv_sharding",
                         {"sim": rows_for(sim), "asyncio": rows_for(net)})
        write_metrics_json(json_path, "kv_sharding_sim", sim[-1])
        write_metrics_json(json_path, "kv_sharding_asyncio", net[-1])
