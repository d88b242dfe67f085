"""Benchmark — the ingress proxy tier: cross-client batching + read routing.

Two claims, both on the discrete-event simulator (deterministic), plus an
end-to-end atomicity check of proxied workloads on both backends (over
loopback TCP the proxied / direct pair of replica frame counts is reported,
not compared: direct stores of one process merge across clients on their
shared replica link):

* **Fan-in** (cross-client batching): at a fixed total load, replica-side
  request frames per operation *strictly decrease* as more clients share one
  proxy -- rounds arriving in the same merge window coalesce into shared
  frames, so the cluster pays the quorum fan-out once per merged round
  instead of once per client.  Direct (proxy-less) runs hold roughly
  constant frames/op for comparison.

* **Read routing** (nearest quorum): under a :class:`~repro.sim.delays.GeoDelay`
  site model with loaded replicas, routing each read to the closest quorum
  (spread per key over equidistant picks) beats broadcasting it to every
  replica on *mean read latency*: broadcast burns service time at all ``S``
  replicas per read, nearest at ``S - t``, so every read's quorum queues
  behind less work -- and the skipped replicas are the WAN ones, which is
  also where the frame savings land.  The *default* (no policy: every round
  that mutates nothing asks a rotating quorum first, and asks the rest when
  one stays silent for a window) is reported beside them, not asserted on:
  a rotating quorum crosses the WAN, and under this load a WAN round trip
  outlasts the simulator's silence window, so most of its rounds end up
  widened -- broadcast's work, later.  Sites are what ``NearestQuorum`` is
  for; the default's saving is measured where round trips are short
  (``benchmarks/steady/``).

Run as a pytest-benchmark test or directly::

    PYTHONPATH=src python -m pytest benchmarks/bench_kv_proxy.py -s
    PYTHONPATH=src python benchmarks/bench_kv_proxy.py [--quick]
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.bench.report import format_rows
from repro.kvstore import (
    BroadcastReads,
    KVRunConfig,
    NearestQuorum,
    ShardMap,
    generate_workload,
    run,
)
from repro.sim.delays import ConstantDelay, GeoDelay

from _bench_utils import (
    bench_json_path,
    print_section,
    result_row,
    write_bench_json,
    write_metrics_json,
)

TOTAL_OPS = 96
FANIN_CLIENTS = (1, 2, 4, 8)
SITES = ("us", "eu", "ap")


# -- (a) cross-client batching under fan-in ------------------------------------

def run_fanin_sweep(client_counts=FANIN_CLIENTS, total_ops=TOTAL_OPS):
    """Fixed total load spread over K clients, all behind one proxy; plus a
    direct run per K as the baseline."""
    rows = []
    for num_clients in client_counts:
        workload = generate_workload(
            num_clients=num_clients,
            ops_per_client=total_ops // num_clients,
            num_keys=24,
            seed=7,
            pipeline_depth=4,
        )
        common = dict(
            num_shards=4,
            num_groups=2,
            delay_model=ConstantDelay(1.0),
            service_overhead=0.05,
            service_per_op=0.02,
        )
        proxied = run(KVRunConfig(proxies=1, proxy_flush_delay=0.25, **common), workload)
        direct = run(KVRunConfig(**common), workload)
        rows.append((num_clients, proxied, direct))
    return rows


def _fanin_table(rows):
    return [
        {
            "clients/proxy": num_clients,
            "proxy frames/op": f"{proxied.replica_frames_per_op():.2f}",
            "direct frames/op": f"{direct.replica_frames_per_op():.2f}",
            "merge factor": f"{proxied.proxy_stats.mean_batch_size:.2f}",
            "proxy atomic": proxied.check().all_atomic,
        }
        for num_clients, proxied, direct in rows
    ]


# -- (b) nearest-quorum reads under geo delays ---------------------------------

def _geo_setup(num_clients, ops_per_client, pipeline_depth):
    workload = generate_workload(
        num_clients=num_clients,
        ops_per_client=ops_per_client,
        num_keys=24,
        seed=9,
        read_fraction=0.9,
        pipeline_depth=pipeline_depth,
    )
    shard_map = ShardMap(
        6, num_groups=1, servers_per_shard=6, max_faults=2,
        readers=num_clients, writers=num_clients,
    )
    # One replication group spanning three sites, two replicas per site --
    # the spanning layout where read routing has a choice to make.
    sites = {
        server: SITES[index // 2]
        for index, server in enumerate(shard_map.all_servers)
    }
    for index, client in enumerate(workload.clients):
        sites[client] = SITES[index % len(SITES)]
    for index in range(1, 4):
        sites[f"p{index}"] = SITES[index - 1]  # one proxy per site
    return workload, shard_map, sites


def run_geo_comparison(num_clients=9, ops_per_client=16, pipeline_depth=6):
    """The same loaded geo workload under broadcast, default (quorum-first)
    and nearest-quorum reads."""
    results = {}
    for policy_name in ("broadcast", "default", "nearest"):
        workload, shard_map, sites = _geo_setup(
            num_clients, ops_per_client, pipeline_depth
        )
        policy = {
            "broadcast": BroadcastReads(),
            "default": None,
            "nearest": NearestQuorum.from_sites(sites),
        }[policy_name]
        results[policy_name] = run(KVRunConfig(
            shard_map=shard_map,
            delay_model=GeoDelay(
                sites, local_delay=0.5, wan_delay=20.0,
                jitter_fraction=0.05, seed=2,
            ),
            proxies=3,
            proxy_flush_delay=0.25,
            read_policy=policy,
            service_overhead=0.5,
            service_per_op=3.0,
        ), workload)
    return results


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _geo_table(results):
    return [
        {
            "read policy": name,
            "read mean": f"{_mean(result.read_latencies):.1f}",
            "read p50": f"{result.read_stats().p50:.1f}",
            "read p95": f"{result.read_stats().p95:.1f}",
            # Sub-ops, not frames: frame counts shift with how much the
            # merge window coalesces, replica *work* is the honest cost.
            "rep sub-ops/op": f"{result.replica_sub_ops / result.completed_ops:.2f}",
            "atomic": result.check().all_atomic,
        }
        for name, result in results.items()
    ]


# -- proxied atomicity on the real transport -----------------------------------

def run_asyncio_proxied(num_clients=3, ops_per_client=12):
    workload = generate_workload(
        num_clients=num_clients, ops_per_client=ops_per_client,
        num_keys=16, seed=5, pipeline_depth=4,
    )
    proxied = run(KVRunConfig(
        backend="asyncio", num_shards=4, num_groups=2, proxies=1,
    ), workload)
    direct = run(KVRunConfig(backend="asyncio", num_shards=4, num_groups=2), workload)
    return proxied, direct


# -- assertions shared by pytest and __main__ ----------------------------------

def check_fanin(rows):
    per_op = []
    for _num_clients, proxied, direct in rows:
        assert proxied.completed_ops == direct.completed_ops
        assert proxied.check().all_atomic
        assert direct.check().all_atomic
        per_op.append(proxied.replica_frames_per_op())
    # The tentpole claim: replica-side frames per op strictly decrease as
    # clients-per-proxy grows at fixed load.
    for before, after in zip(per_op, per_op[1:]):
        assert after < before, f"frames/op did not decrease: {per_op}"
    # And at the highest fan-in the proxy beats the direct fan-out decisively.
    _, proxied, direct = rows[-1]
    assert proxied.replica_frames < direct.replica_frames / 2


def check_geo(results):
    for result in results.values():
        assert result.check().all_atomic
        assert result.completed_ops > 0
    mean_broadcast = _mean(results["broadcast"].read_latencies)
    mean_nearest = _mean(results["nearest"].read_latencies)
    assert mean_nearest < mean_broadcast, (
        f"nearest-quorum reads ({mean_nearest:.1f}) should beat broadcast "
        f"({mean_broadcast:.1f})"
    )


def check_asyncio(proxied, direct):
    assert proxied.check().all_atomic
    assert direct.check().all_atomic
    assert proxied.completed_ops == direct.completed_ops
    # No fan-in claim here: in one process the direct stores share a replica
    # link that merges across clients as a proxy does, without the hop, so
    # neither side owes the other fewer replica frames.  The claim lives on
    # the simulator rows (``check_fanin``), whose clients are separate
    # processes; this pair is reported.
    print(f"replica frames over loopback TCP: proxied {proxied.replica_frames} "
          f"({proxied.replica_frames_per_op():.2f}/op), direct "
          f"{direct.replica_frames} ({direct.replica_frames_per_op():.2f}/op)")


# -- pytest entry points --------------------------------------------------------

def test_kv_proxy_fanin_sweep(benchmark):
    rows = benchmark.pedantic(run_fanin_sweep, rounds=1, iterations=1)
    print_section("KV proxy — replica frames/op vs clients per proxy (sim)")
    print(format_rows(_fanin_table(rows),
                      ["clients/proxy", "proxy frames/op", "direct frames/op",
                       "merge factor", "proxy atomic"]))
    check_fanin(rows)


def test_kv_proxy_nearest_quorum_geo(benchmark):
    results = benchmark.pedantic(run_geo_comparison, rounds=1, iterations=1)
    print_section("KV proxy — read routing under GeoDelay (sim)")
    print(format_rows(_geo_table(results),
                      ["read policy", "read mean", "read p50", "read p95",
                       "rep sub-ops/op", "atomic"]))
    check_geo(results)


def test_kv_proxy_asyncio_atomicity(benchmark):
    proxied, direct = benchmark.pedantic(run_asyncio_proxied, rounds=1,
                                         iterations=1)
    print_section("KV proxy — proxied workload over loopback TCP")
    print(format_rows([proxied.as_row(), direct.as_row()],
                      ["backend", "proxies", "ops", "rep_frames",
                       "rep_frames/op", "atomic"]))
    check_asyncio(proxied, direct)


if __name__ == "__main__":
    quick = "--quick" in sys.argv[1:]
    if quick:
        fanin = run_fanin_sweep(client_counts=(1, 4), total_ops=32)
        geo = run_geo_comparison(num_clients=6, ops_per_client=6,
                                 pipeline_depth=4)
        net = run_asyncio_proxied(num_clients=2, ops_per_client=6)
    else:
        fanin = run_fanin_sweep()
        geo = run_geo_comparison()
        net = run_asyncio_proxied()
    print_section("KV proxy — replica frames/op vs clients per proxy (sim)")
    print(format_rows(_fanin_table(fanin),
                      ["clients/proxy", "proxy frames/op", "direct frames/op",
                       "merge factor", "proxy atomic"]))
    print_section("KV proxy — read routing under GeoDelay (sim)")
    print(format_rows(_geo_table(geo),
                      ["read policy", "read mean", "read p50", "read p95",
                       "rep sub-ops/op", "atomic"]))
    print_section("KV proxy — proxied workload over loopback TCP")
    print(format_rows([net[0].as_row(), net[1].as_row()],
                      ["backend", "proxies", "ops", "rep_frames",
                       "rep_frames/op", "atomic"]))
    check_fanin(fanin)
    if not quick:
        check_geo(geo)
    else:
        for result in geo.values():
            assert result.check().all_atomic
    check_asyncio(*net)
    json_path = bench_json_path(sys.argv[1:])
    if json_path:
        write_bench_json(json_path, "kv_proxy", {
            "fanin": [
                {"clients_per_proxy": clients,
                 "proxied": result_row(proxied),
                 "direct": result_row(direct)}
                for clients, proxied, direct in fanin
            ],
            "geo": {policy: result_row(result) for policy, result in geo.items()},
            "asyncio": [result_row(net[0], "proxied"), result_row(net[1], "direct")],
        })
        write_metrics_json(json_path, "kv_proxy_sim", next(iter(geo.values())))
        write_metrics_json(json_path, "kv_proxy_asyncio", net[0])
    print("\nall proxy-tier checks passed")
