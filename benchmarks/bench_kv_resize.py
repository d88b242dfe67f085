"""Benchmark — live rebalancing: bounded key movement and resize-time cost.

Measures the two promises of the placement layer
(:mod:`repro.kvstore.placement` / :meth:`repro.kvstore.ShardMap.resize`):

* **keys moved ~ 1/N**: growing an N-shard ring by one shard re-homes about
  1/(N+1) of the keys -- consistent hashing's bounded-movement guarantee --
  never a wholesale reshuffle.  Measured over a fixed key sample for a sweep
  of N.

* **throughput during a live resize**: a mid-run ``resize`` (registers
  draining to new owners, in-flight rounds bounced by the epoch fence and
  replayed) costs some replayed rounds but does not stall the store or break
  per-key atomicity.  The same workload runs with and without a live resize
  on both backends and reports the throughput ratio.

Run as a pytest-benchmark test or directly::

    PYTHONPATH=src python -m pytest benchmarks/bench_kv_resize.py -s
    PYTHONPATH=src python benchmarks/bench_kv_resize.py [--quick]
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.bench.report import format_rows
from repro.kvstore import (
    KVRunConfig,
    ShardMap,
    generate_workload,
    run,
)
from repro.sim.delays import ConstantDelay

from _bench_utils import (
    bench_json_path,
    print_section,
    rows_for,
    write_bench_json,
    write_metrics_json,
)

MOVE_SWEEP = (2, 4, 8, 16)
MOVE_SAMPLE = 2000
SIM_CLIENTS, SIM_OPS, SIM_KEYS = 5, 30, 48
NET_CLIENTS, NET_OPS, NET_KEYS = 3, 16, 24


def run_move_sweep(shard_counts=MOVE_SWEEP, sample=MOVE_SAMPLE):
    """Grow N -> N+1 on metadata only; report the moved-key fraction."""
    keys = [f"user:{i}" for i in range(sample)]
    rows = []
    for n in shard_counts:
        shard_map = ShardMap(n, num_groups=2, virtual_nodes=128)
        plan = shard_map.resize(n + 1)
        fraction = plan.moved_fraction(keys)
        rows.append(
            {
                "shards": f"{n} -> {n + 1}",
                "expected 1/N": f"{1 / (n + 1):.3f}",
                "moved fraction": f"{fraction:.3f}",
                "moved keys": len(plan.moved_keys(keys)),
                "fenced": len(plan.fenced),
                "_fraction": fraction,
                "_n": n,
            }
        )
    return rows


def _sim_workload(clients=SIM_CLIENTS, ops=SIM_OPS, keys=SIM_KEYS):
    return generate_workload(
        num_clients=clients, ops_per_client=ops, num_keys=keys, seed=11,
        pipeline_depth=5,
    )


def run_sim_resize_comparison(clients=SIM_CLIENTS, ops=SIM_OPS, keys=SIM_KEYS):
    """The same sim workload with and without a mid-run live resize."""
    workload = _sim_workload(clients, ops, keys)
    common = dict(
        num_shards=4,
        num_groups=2,
        delay_model=ConstantDelay(1.0),
        service_overhead=0.3,
        service_per_op=0.3,
    )
    steady = run(KVRunConfig(**common), workload)
    resized = run(KVRunConfig(resize_to=8, **common), workload)
    return steady, resized


def run_net_resize_comparison(clients=NET_CLIENTS, ops=NET_OPS, keys=NET_KEYS):
    """The same loopback-TCP workload with and without a live resize."""
    workload = generate_workload(
        num_clients=clients, ops_per_client=ops, num_keys=keys, seed=11,
        pipeline_depth=4,
    )
    common = dict(backend="asyncio", num_shards=4, num_groups=2,
                  service_overhead=0.0005, service_per_op=0.0005)
    steady = run(KVRunConfig(**common), workload)
    resized = run(KVRunConfig(resize_to=8, **common), workload)
    return steady, resized


def _print_move_sweep(rows):
    print_section("Live resize — keys moved vs the 1/N bound")
    print(format_rows(
        [{k: v for k, v in row.items() if not k.startswith("_")} for row in rows],
        ["shards", "expected 1/N", "moved fraction", "moved keys", "fenced"],
    ))


def _print_comparison(title, steady, resized):
    print_section(title)
    rows = []
    for label, result in (("steady", steady), ("live resize", resized)):
        rows.append(
            {
                "run": label,
                "shards": result.num_shards,
                "groups": result.num_groups,
                "ops": result.completed_ops,
                "throughput": f"{result.throughput():.2f}",
                "replayed rounds": result.stale_replays,
                "keys moved": (result.resize or {}).get("keys_moved", 0),
                "atomic": result.check().all_atomic,
            }
        )
    print(format_rows(rows, ["run", "shards", "groups", "ops", "throughput",
                             "replayed rounds", "keys moved", "atomic"]))


def test_resize_moves_about_one_over_n(benchmark):
    rows = benchmark.pedantic(run_move_sweep, rounds=1, iterations=1)
    _print_move_sweep(rows)
    for row in rows:
        expected = 1 / (row["_n"] + 1)
        assert 0 < row["_fraction"] <= 2.5 * expected


def test_sim_throughput_survives_live_resize(benchmark):
    steady, resized = benchmark.pedantic(
        run_sim_resize_comparison, rounds=1, iterations=1
    )
    _print_comparison("Live resize under load — simulator (virtual time)",
                      steady, resized)
    for result in (steady, resized):
        assert result.completed_ops == _sim_workload().total_operations()
        assert result.check().all_atomic
    assert resized.resize is not None and resized.resize["to"] == 8
    # The cutover costs some replayed rounds, not a stall: the run still
    # clears a solid fraction of the steady-state throughput.
    assert resized.throughput() > 0.3 * steady.throughput()


def test_asyncio_throughput_survives_live_resize(benchmark):
    steady, resized = benchmark.pedantic(
        run_net_resize_comparison, rounds=1, iterations=1
    )
    _print_comparison("Live resize under load — asyncio loopback TCP",
                      steady, resized)
    for result in (steady, resized):
        assert result.check().all_atomic
    assert resized.resize is not None
    # Wall-clock is noisy; insist only that the resize did not stall the run.
    assert resized.throughput() > 0.2 * steady.throughput()


if __name__ == "__main__":
    quick = "--quick" in sys.argv[1:]
    if quick:
        moves = run_move_sweep(shard_counts=(2, 4), sample=400)
        sim_pair = run_sim_resize_comparison(clients=2, ops=10, keys=12)
        net_pair = run_net_resize_comparison(clients=2, ops=8, keys=12)
    else:
        moves = run_move_sweep()
        sim_pair = run_sim_resize_comparison()
        net_pair = run_net_resize_comparison()
    _print_move_sweep(moves)
    _print_comparison(
        "Live resize under load — simulator (virtual time)", *sim_pair
    )
    _print_comparison(
        "Live resize under load — asyncio loopback TCP", *net_pair
    )
    json_path = bench_json_path(sys.argv[1:])
    if json_path:
        labels = ["steady", "live-resize"]
        write_bench_json(json_path, "kv_resize", {
            "moves": [{k: v for k, v in row.items() if not k.startswith("_")}
                      for row in moves],
            "sim": rows_for(sim_pair, labels),
            "asyncio": rows_for(net_pair, labels),
        })
        write_metrics_json(json_path, "kv_resize_sim", sim_pair[1])
        write_metrics_json(json_path, "kv_resize_asyncio", net_pair[1])
