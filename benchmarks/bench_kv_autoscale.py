"""Benchmark — elastic control plane: bounded cutover stalls + the autoscaler.

Measures the two promises of the frame-based incremental drain
(:class:`repro.kvstore.engine.ControlPlaneEngine`):

* **stall bounded by range size, not shard size**: a large shard is moved
  live while every client hammers exactly that shard's keys.  The longest
  cluster-wide gap between consecutive client-op completions tracks
  ``drain_range_size`` -- small ranges install keys incrementally so
  backed-off ops complete range by range, where the emulated one-shot
  drain (one range spanning the whole shard) pauses all progress for the
  full transfer+install.  Same workload, same move, swept range sizes.

* **autoscaler chases a moving hotspot**: a two-phase Zipf workload whose
  hot keys move between phases runs with the metrics-driven autoscaler
  armed; throughput stays within a solid fraction of the no-autoscaler
  baseline while shards migrate under load, with per-key atomicity intact
  on both backends.

Run as a pytest-benchmark test or directly::

    PYTHONPATH=src python -m pytest benchmarks/bench_kv_autoscale.py -s
    PYTHONPATH=src python benchmarks/bench_kv_autoscale.py [--quick]
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.bench.report import format_rows
from repro.kvstore import (
    KVOp,
    KVRunConfig,
    KVWorkload,
    ShardMap,
    generate_workload,
    run,
)
from repro.sim.delays import ConstantDelay

from _bench_utils import (
    bench_json_path,
    print_section,
    result_row,
    write_bench_json,
    write_metrics_json,
)

#: One range per donor->receiver flow: the emulated one-shot drain.
ONE_SHOT = 1_000_000

STALL_SWEEP = (2, 8, ONE_SHOT)
SIM_CLIENTS, SIM_OPS, SIM_KEYS = 4, 60, 160
CHASE_CLIENTS, CHASE_OPS, CHASE_KEYS = 4, 60, 32


def max_completion_gap(result) -> float:
    """The longest cluster-wide gap between consecutive op completions."""
    finishes = sorted(
        op.finish
        for history in result.histories.values()
        for op in history.operations
        if op.finish is not None
    )
    if len(finishes) < 2:
        return 0.0
    return max(b - a for a, b in zip(finishes, finishes[1:]))


def cutover_pause_p99(result) -> float:
    """The control tier's per-range cutover pause p99 (0.0 when no drain)."""
    metrics = result.metrics or {}
    control = metrics.get("control", {})
    hist = control.get("histograms", {}).get("cutover_pause")
    return float(hist["p99"]) if hist else 0.0


def _hot_shard_setup(clients, ops, keys, seed=13):
    """A fresh map plus a workload that hammers exactly one (large) shard.

    Every op targets a key the ring routes to the same shard, so when that
    shard migrates mid-run the whole client population is racing the drain
    -- the cluster-wide completion gap then *is* the cutover pause clients
    see, instead of being hidden by traffic to untouched shards.
    """
    shard_map = ShardMap(4, num_groups=2, readers=clients, writers=clients)
    victim = None
    victim_group = None
    shard_keys = []
    index = 1
    while len(shard_keys) < keys:
        key = f"k{index}"
        index += 1
        spec = shard_map.shard_for(key)
        if victim is None:
            victim = spec.shard_id
            victim_group = spec.group.group_id
        if spec.shard_id == victim:
            shard_keys.append(key)
    target_group = next(g for g in shard_map.groups if g != victim_group)
    base = generate_workload(
        num_clients=clients, ops_per_client=ops, num_keys=len(shard_keys),
        seed=seed, key_skew=0.0, read_fraction=0.3, pipeline_depth=5,
    )
    sequences = {
        client: [KVOp(op.kind, shard_keys[int(op.key[1:]) - 1], op.value)
                 for op in seq]
        for client, seq in base.sequences.items()
    }
    workload = KVWorkload(sequences=sequences,
                          pipeline_depth=base.pipeline_depth)
    return shard_map, workload, victim, target_group


def run_stall_sweep(
    range_sizes=STALL_SWEEP, clients=SIM_CLIENTS, ops=SIM_OPS, keys=SIM_KEYS
):
    """The same single-shard live migration at several drain range sizes.

    The moved shard holds every key the workload touches, so the one-shot
    drain (one range spanning the whole shard) pauses all client progress
    for the full transfer+install -- while small ranges install keys
    incrementally and backed-off ops complete range by range.
    """
    rows = []
    for range_size in range_sizes:
        shard_map, workload, victim, target_group = _hot_shard_setup(
            clients, ops, keys
        )
        result = run(KVRunConfig(
            shard_map=shard_map,
            move_to=(victim, target_group),
            drain_range_size=range_size,
            delay_model=ConstantDelay(1.0),
            service_overhead=0.3,
            service_per_op=0.3,
        ), workload)
        control = (result.metrics or {}).get("control", {}).get("counters", {})
        rows.append(
            {
                "range size": ("one-shot" if range_size >= ONE_SHOT
                               else range_size),
                "ranges drained": int(control.get("ranges_drained", 0)),
                "max stall": f"{max_completion_gap(result):.1f}",
                "cutover p99": f"{cutover_pause_p99(result):.1f}",
                "throughput": f"{result.throughput():.2f}",
                "atomic": result.check().all_atomic,
                "_stall": max_completion_gap(result),
                "_cutover": cutover_pause_p99(result),
                "_result": result,
            }
        )
    return rows


def moving_hotspot_workload(
    clients=CHASE_CLIENTS, ops=CHASE_OPS, keys=CHASE_KEYS, skew=1.6, seed=29
) -> KVWorkload:
    """Two Zipf phases whose popular keys occupy different key-space regions.

    Phase two remaps ``k<i>`` to ``k<N+1-i>``: the Zipf head lands on
    different shards, so a placement tuned for phase one is wrong for phase
    two -- exactly the imbalance the autoscaler exists to chase.
    """
    first = generate_workload(
        num_clients=clients, ops_per_client=ops // 2, num_keys=keys,
        key_skew=skew, read_fraction=0.5, seed=seed,
    )
    second = generate_workload(
        num_clients=clients, ops_per_client=ops - ops // 2, num_keys=keys,
        key_skew=skew, read_fraction=0.5, seed=seed + 1,
    )

    def flip(op):
        index = int(op.key[1:])
        flipped = f"k{keys + 1 - index}"
        return type(op)(op.kind, flipped, op.value)

    sequences = {
        client: first.sequences[client] +
        [flip(op) for op in second.sequences[client]]
        for client in first.sequences
    }
    return KVWorkload(sequences=sequences,
                      pipeline_depth=first.pipeline_depth)


def run_autoscale_chase(
    clients=CHASE_CLIENTS, ops=CHASE_OPS, keys=CHASE_KEYS,
    autoscale_interval=60.0,
):
    """The hotspot workload with and without the autoscaler (simulator)."""
    workload = moving_hotspot_workload(clients, ops, keys)
    common = dict(
        num_shards=8,
        num_groups=2,
        delay_model=ConstantDelay(1.0),
        service_overhead=0.3,
        service_per_op=0.3,
    )
    baseline = run(KVRunConfig(**common), workload)
    scaled = run(KVRunConfig(
        autoscale=True, autoscale_interval=autoscale_interval,
        drain_range_size=8, **common,
    ), workload)
    return baseline, scaled


def run_net_autoscale(clients=3, ops=24, keys=24):
    """The hotspot workload with the autoscaler armed, on loopback TCP."""
    workload = moving_hotspot_workload(clients, ops, keys)
    return run(KVRunConfig(
        backend="asyncio",
        num_shards=8,
        num_groups=2,
        autoscale=True,
        autoscale_interval=0.05,
        drain_range_size=8,
        service_overhead=0.0005,
        service_per_op=0.0005,
    ), workload)


def _print_stall_sweep(rows):
    print_section("Incremental drains — client-op stall vs drain range size")
    print(format_rows(
        [{k: v for k, v in row.items() if not k.startswith("_")}
         for row in rows],
        ["range size", "ranges drained", "max stall", "cutover p99",
         "throughput", "atomic"],
    ))


def _print_chase(baseline, scaled, net=None):
    print_section("Autoscaler — moving Zipf hotspot under live load")
    rows = []
    entries = [("sim baseline", baseline), ("sim autoscaled", scaled)]
    if net is not None:
        entries.append(("asyncio autoscaled", net))
    for label, result in entries:
        record = result.autoscale or {}
        rows.append(
            {
                "run": label,
                "ops": result.completed_ops,
                "throughput": f"{result.throughput():.2f}",
                "autoscale actions": len(record.get("actions", [])),
                "drains": record.get("drains_completed", 0),
                "ranges": record.get("ranges_drained", 0),
                "atomic": result.check().all_atomic,
            }
        )
    print(format_rows(rows, ["run", "ops", "throughput", "autoscale actions",
                             "drains", "ranges", "atomic"]))


def test_stall_is_bounded_by_range_size(benchmark):
    rows = benchmark.pedantic(run_stall_sweep, rounds=1, iterations=1)
    _print_stall_sweep(rows)
    for row in rows:
        assert row["atomic"]
    by_size = {row["range size"]: row for row in rows}
    # The tentpole claim, measured two ways.  (1) The per-range cutover
    # pause -- how long a key range is unavailable between its fence and
    # its install -- orders strictly with the range size:
    assert (by_size[2]["_cutover"]
            < by_size[8]["_cutover"]
            < by_size["one-shot"]["_cutover"])
    # (2) Client-visible: with every client hammering the migrating shard,
    # the longest cluster-wide completion gap under the one-shot drain is
    # strictly worse than with incremental ranges.
    assert by_size[2]["_stall"] < by_size["one-shot"]["_stall"]
    assert by_size[8]["_stall"] <= by_size["one-shot"]["_stall"]


def test_autoscaler_chases_the_hotspot(benchmark):
    baseline, scaled = benchmark.pedantic(
        run_autoscale_chase, rounds=1, iterations=1
    )
    _print_chase(baseline, scaled)
    assert scaled.completed_ops == baseline.completed_ops
    assert scaled.check().all_atomic and baseline.check().all_atomic
    record = scaled.autoscale or {}
    # The imbalance was detected and acted on with incremental drains...
    assert len(record.get("actions", [])) >= 1
    assert record.get("drains_completed", 0) >= 1
    # ...and chasing the hotspot did not stall the workload.
    assert scaled.throughput() > 0.5 * baseline.throughput()


def test_asyncio_autoscaler_stays_atomic(benchmark):
    net = benchmark.pedantic(run_net_autoscale, rounds=1, iterations=1)
    _print_chase(*run_autoscale_chase(clients=2, ops=20, keys=16), net=net)
    assert net.completed_ops > 0
    assert net.check().all_atomic
    assert net.autoscale is not None


if __name__ == "__main__":
    quick = "--quick" in sys.argv[1:]
    if quick:
        stall_rows = run_stall_sweep(clients=2, ops=36, keys=96)
        chase_pair = run_autoscale_chase(clients=3, ops=40, keys=24)
        net_result = run_net_autoscale(clients=2, ops=12, keys=16)
    else:
        stall_rows = run_stall_sweep()
        chase_pair = run_autoscale_chase()
        net_result = run_net_autoscale()
    _print_stall_sweep(stall_rows)
    _print_chase(*chase_pair, net=net_result)
    json_path = bench_json_path(sys.argv[1:])
    if json_path:
        stall_section = []
        for row in stall_rows:
            entry = result_row(row["_result"], scenario="shard-move")
            entry["drain_range_size"] = row["range size"]
            entry["ranges_drained"] = row["ranges drained"]
            entry["max_stall"] = round(row["_stall"], 6)
            entry["cutover_p99"] = round(cutover_pause_p99(row["_result"]), 6)
            stall_section.append(entry)
        baseline, scaled = chase_pair

        def chase_row(result, scenario):
            entry = result_row(result, scenario=scenario)
            record = result.autoscale or {}
            entry["autoscale_actions"] = len(record.get("actions", []))
            entry["drains_completed"] = record.get("drains_completed", 0)
            entry["ranges_drained"] = record.get("ranges_drained", 0)
            return entry

        write_bench_json(json_path, "kv_autoscale", {
            "stall": stall_section,
            "chase": [chase_row(baseline, "baseline"),
                      chase_row(scaled, "autoscaled"),
                      chase_row(net_result, "autoscaled-asyncio")],
        })
        write_metrics_json(json_path, "kv_autoscale_sim", scaled)
        write_metrics_json(json_path, "kv_autoscale_asyncio", net_result)
