"""Benchmark — resilient ingress: proxy failover cost + view-push savings.

Two claims, one per half of the fault-tolerant proxy tier:

* **Failover** (asyncio, real sockets): a workload routed through two
  ingress proxies survives a mid-run proxy kill with **zero operations
  lost** and zero client-visible errors -- the orphaned stores re-dial the
  surviving proxy (or go direct) and replay in-flight rounds under fresh
  attempt scopes.  The cost is latency, not correctness: the table reports
  p99 read/write latency across the kill next to an unkilled baseline.

* **View push** (simulator, deterministic): at a live ``resize()`` the
  control plane pushes the fresh shard-map view to every proxy.  In the
  steady state (rounds quiesced at the cutover) a resize then costs **zero
  stale-epoch replays**, where bounce-only discovery pays at least one per
  proxy; under load the push still strictly cuts the replay count, with the
  epoch-fence bounce kept as the safety net for rounds already in flight.

Run as a pytest-benchmark test or directly::

    PYTHONPATH=src python -m pytest benchmarks/bench_kv_failover.py -s
    PYTHONPATH=src python benchmarks/bench_kv_failover.py [--quick]
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.bench.report import format_rows
from repro.kvstore import (
    KVRunConfig,
    RetryPolicy,
    ShardMap,
    SimKVCluster,
    check_per_key_atomicity,
    generate_workload,
    run,
)

from _bench_utils import (
    bench_json_path,
    print_section,
    result_row,
    write_bench_json,
    write_metrics_json,
)

#: Tight windows so the kill scenario settles in milliseconds of wall clock.
FAST_RETRY = RetryPolicy(
    reconnect_interval=0.02,
    max_transient_retries=50,
    max_round_timeouts=3,
)


# -- (a) proxy kill on the real transport ---------------------------------------

def run_failover_comparison(num_clients=4, ops_per_client=24):
    """The same proxied workload unkilled vs with one proxy killed mid-run."""
    workload = generate_workload(
        num_clients=num_clients,
        ops_per_client=ops_per_client,
        num_keys=16,
        seed=13,
        pipeline_depth=4,
    )
    common = dict(
        backend="asyncio",
        num_shards=4,
        num_groups=2,
        proxies=2,
        retry_policy=FAST_RETRY,
    )
    baseline = run(KVRunConfig(**common), workload)
    killed = run(KVRunConfig(
        kill_proxy_after_ops=max(1, workload.total_operations() // 3),
        **common,
    ), workload)
    return workload, baseline, killed


def _failover_table(workload, baseline, killed):
    total = workload.total_operations()
    rows = []
    for name, result in (("baseline", baseline), ("proxy killed", killed)):
        rows.append(
            {
                "scenario": name,
                "ops": f"{result.completed_ops}/{total}",
                "ops lost": total - result.completed_ops,
                "failovers": result.proxy_failovers,
                "read p99": f"{result.read_stats().p99 * 1e3:.1f} ms",
                "write p99": f"{result.write_stats().p99 * 1e3:.1f} ms",
                "atomic": result.check().all_atomic,
            }
        )
    return rows


def check_failover(workload, baseline, killed):
    total = workload.total_operations()
    for result in (baseline, killed):
        # The headline claim: zero ops lost, zero client-visible errors.
        assert result.completed_ops == total
        verdict = check_per_key_atomicity(result.histories)
        assert verdict.all_atomic, verdict.summary()
    assert killed.proxy_kill is not None and killed.proxy_kill["killed"]
    assert killed.proxy_failovers >= 1


# -- (b) view push at a live resize (sim) ---------------------------------------

def _steady_state_resize(push_views: bool):
    """Ops, quiesce, resize, ops -- the steady-state replay count."""
    shard_map = ShardMap(4, num_groups=2, readers=2, writers=2)
    cluster = SimKVCluster(shard_map, ["c1", "c2"],
                           KVRunConfig(proxies=2, push_views=push_views))

    def issue(client_id, ops):
        remaining = list(ops)

        def issue_next(_outcome=None):
            if remaining:
                kind, key, value = remaining.pop(0)
                cluster.invoke(client_id, kind, key, value, issue_next)

        cluster.fabric.schedule(0.0, issue_next)

    for client_id in ("c1", "c2"):
        issue(client_id, [("put", f"{client_id}-k{i}", f"v{i}") for i in range(8)])
    cluster.run()
    cluster.resize(8)
    for client_id in ("c1", "c2"):
        issue(client_id, [("get", f"{client_id}-k{i}", None) for i in range(8)])
    cluster.run()
    verdict = check_per_key_atomicity(cluster.recorder.histories())
    assert verdict.all_atomic, verdict.summary()
    return cluster


def run_view_push_comparison(num_clients=4, ops_per_client=15):
    """Steady-state and loaded mid-run resizes, with and without push."""
    steady = {push: _steady_state_resize(push) for push in (True, False)}
    workload = generate_workload(
        num_clients=num_clients,
        ops_per_client=ops_per_client,
        num_keys=16,
        seed=11,
        pipeline_depth=4,
    )
    loaded = {
        push: run(KVRunConfig(
            num_shards=4, num_groups=2,
            proxies=2, proxy_flush_delay=0.25,
            resize_to=8, push_views=push,
        ), workload)
        for push in (True, False)
    }
    return steady, loaded


def _view_push_table(steady, loaded):
    rows = []
    for push in (True, False):
        cluster = steady[push]
        rows.append(
            {
                "scenario": "steady-state resize",
                "view push": "on" if push else "off",
                "stale replays": cluster.stale_replays(),
                "pushes applied": cluster.view_pushes_applied(),
                "atomic": True,  # asserted in _steady_state_resize
            }
        )
    for push in (True, False):
        result = loaded[push]
        rows.append(
            {
                "scenario": "mid-run resize",
                "view push": "on" if push else "off",
                "stale replays": result.stale_replays,
                "pushes applied": result.view_pushes,
                "atomic": result.check().all_atomic,
            }
        )
    return rows


def check_view_push(steady, loaded):
    # Steady state: the push removes stale replays entirely; bounce-only
    # discovery pays at least one per proxy.
    assert steady[True].stale_replays() == 0
    assert steady[True].view_pushes_applied() == 2
    assert steady[False].stale_replays() >= 1
    # Under load the push can only help (rounds in flight at the cutover
    # still bounce -- that is the safety net working as designed).
    for push in (True, False):
        assert loaded[push].completed_ops > 0
        assert loaded[push].check().all_atomic
    assert loaded[True].stale_replays <= loaded[False].stale_replays


# -- pytest entry points --------------------------------------------------------

def test_kv_proxy_failover(benchmark):
    workload, baseline, killed = benchmark.pedantic(
        run_failover_comparison, rounds=1, iterations=1
    )
    print_section("KV failover — proxy kill over loopback TCP")
    print(format_rows(_failover_table(workload, baseline, killed),
                      ["scenario", "ops", "ops lost", "failovers",
                       "read p99", "write p99", "atomic"]))
    check_failover(workload, baseline, killed)


def test_kv_view_push(benchmark):
    steady, loaded = benchmark.pedantic(
        run_view_push_comparison, rounds=1, iterations=1
    )
    print_section("KV view push — stale replays at a live resize (sim)")
    print(format_rows(_view_push_table(steady, loaded),
                      ["scenario", "view push", "stale replays",
                       "pushes applied", "atomic"]))
    check_view_push(steady, loaded)


if __name__ == "__main__":
    quick = "--quick" in sys.argv[1:]
    if quick:
        failover = run_failover_comparison(num_clients=2, ops_per_client=12)
        pushes = run_view_push_comparison(num_clients=2, ops_per_client=10)
    else:
        failover = run_failover_comparison()
        pushes = run_view_push_comparison()
    print_section("KV failover — proxy kill over loopback TCP")
    print(format_rows(_failover_table(*failover),
                      ["scenario", "ops", "ops lost", "failovers",
                       "read p99", "write p99", "atomic"]))
    print_section("KV view push — stale replays at a live resize (sim)")
    print(format_rows(_view_push_table(*pushes),
                      ["scenario", "view push", "stale replays",
                       "pushes applied", "atomic"]))
    check_failover(*failover)
    check_view_push(*pushes)
    json_path = bench_json_path(sys.argv[1:])
    if json_path:
        steady, loaded = pushes
        write_bench_json(json_path, "kv_failover", {
            "failover": [result_row(failover[1], "baseline"),
                         result_row(failover[2], "proxy-killed")],
            "view_push_steady": {
                "with-push": {"stale_replays": steady[True].stale_replays(),
                              "pushes_applied": steady[True].view_pushes_applied()},
                "no-push": {"stale_replays": steady[False].stale_replays(),
                            "pushes_applied": steady[False].view_pushes_applied()},
            },
            "view_push_loaded": {
                "with-push": result_row(loaded[True]),
                "no-push": result_row(loaded[False]),
            },
        })
        write_metrics_json(json_path, "kv_failover_asyncio", failover[2])
    print("\nall failover/view-push checks passed")
