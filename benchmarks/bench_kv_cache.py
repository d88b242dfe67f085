"""Benchmark — the proxy read cache: hot-key hit rates vs replica read cost.

Three claims, the first two on the discrete-event simulator (deterministic),
the third on the asyncio backend over Unix-domain sockets:

* **Zipf sweep**: at 8 clients behind one proxy, turning the lease-backed
  read cache on cuts *replica read sub-ops per operation* -- at skew 1.2
  (a hot-key-heavy distribution) by >= 3x -- because repeat reads of
  popular keys are answered from the proxy's cache without any replica
  round.  Reads stay atomic: entries are only served while a quorum of
  replicas holds the proxy's lease, and writes invalidate before they ack.
* **Invalidation storm**: a write-heavy workload over few keys forces the
  servers to chase leases with invalidations on nearly every write; the
  cache degrades gracefully (low hit rate, no wedge) and atomicity holds.
* **Asyncio**: the same cache on the real transport -- cached reads cut
  replica read sub-ops per op, the replicas serve no more frames per op
  than with the cache off, and the per-key checker stays green.

Run as a pytest-benchmark test or directly::

    PYTHONPATH=src python -m pytest benchmarks/bench_kv_cache.py -s
    PYTHONPATH=src python benchmarks/bench_kv_cache.py [--quick]
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.bench.report import format_rows
from repro.kvstore import (
    KVRunConfig,
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

SKEWS = (0.6, 1.0, 1.2)
LEASE_TTL = 480.0  # sim virtual units: long enough that expiry is not the story


# -- (a) zipf sweep: cache off vs on -------------------------------------------

def run_zipf_sweep(skews=SKEWS, num_clients=8, ops_per_client=150,
                   num_keys=32):
    """The same zipf workload per skew, proxied, with the cache off and on."""
    rows = []
    for skew in skews:
        workload = generate_workload(
            num_clients=num_clients, ops_per_client=ops_per_client,
            num_keys=num_keys, read_fraction=0.9, key_skew=skew, seed=11,
        )
        common = dict(num_shards=4, num_groups=2, proxies=1)
        cold = run(KVRunConfig(**common), workload)
        warm = run(KVRunConfig(read_cache=128, lease_ttl=LEASE_TTL, **common), workload)
        rows.append((skew, cold, warm))
    return rows


def _sweep_table(rows):
    return [
        {
            "skew": f"{skew:.1f}",
            "hit rate": f"{warm.cache_hit_rate():.1%}",
            "read subs/op off": f"{cold.read_subs_per_op():.2f}",
            "read subs/op on": f"{warm.read_subs_per_op():.2f}",
            "ratio": f"{cold.read_subs_per_op() / warm.read_subs_per_op():.2f}x",
            "read p50 on/off": (
                f"{warm.read_stats().p50:.1f}/{cold.read_stats().p50:.1f}"
            ),
            "read p99 on/off": (
                f"{warm.read_stats().p99:.1f}/{cold.read_stats().p99:.1f}"
            ),
            "atomic": cold.check().all_atomic and warm.check().all_atomic,
        }
        for skew, cold, warm in rows
    ]


# -- (b) invalidation storm ----------------------------------------------------

def run_invalidation_storm(num_clients=6, ops_per_client=80, num_keys=6):
    """Write-heavy traffic over few hot keys: every cached entry is chased."""
    workload = generate_workload(
        num_clients=num_clients, ops_per_client=ops_per_client,
        num_keys=num_keys, read_fraction=0.4, key_skew=1.2, seed=13,
    )
    return run(KVRunConfig(
        num_shards=2, num_groups=1, proxies=1,
        read_cache=64, lease_ttl=LEASE_TTL,
    ), workload)


def _storm_table(result):
    cache = result.cache or {}
    return [{
        "ops": result.completed_ops,
        "hit rate": f"{result.cache_hit_rate():.1%}",
        "invalidations": cache.get("invalidations", 0),
        "write deferrals": cache.get("write_deferrals", 0),
        "leases granted": cache.get("leases_granted", 0),
        "atomic": result.check().all_atomic,
    }]


# -- (c) cached reads over Unix-domain sockets ---------------------------------

def run_asyncio_cached(num_clients=4, ops_per_client=25, num_keys=12):
    workload = generate_workload(
        num_clients=num_clients, ops_per_client=ops_per_client,
        num_keys=num_keys, read_fraction=0.9, key_skew=1.2, seed=5,
    )
    common = dict(backend="asyncio", num_shards=2, num_groups=1, proxies=1)
    cold = run(KVRunConfig(**common), workload)
    warm = run(KVRunConfig(read_cache=64, **common), workload)
    return cold, warm


def _asyncio_table(cold, warm):
    return [
        {
            "cache": name,
            "read subs/op": f"{result.read_subs_per_op():.2f}",
            "hit rate": (
                f"{result.cache_hit_rate():.1%}"
                if result.cache is not None else "-"
            ),
            "rep frames/op": f"{result.replica_frames_per_op():.3f}",
            "read p50": f"{result.read_stats().p50 * 1000:.1f}ms",
            "atomic": result.check().all_atomic,
        }
        for name, result in (("off", cold), ("on", warm))
    ]


# -- assertions shared by pytest and __main__ ----------------------------------

def check_sweep(rows, min_hot_ratio=3.0):
    ratios = {}
    for skew, cold, warm in rows:
        assert cold.check().all_atomic
        assert warm.check().all_atomic
        assert cold.completed_ops == warm.completed_ops
        assert warm.cache is not None and warm.cache["hits"] > 0
        ratios[skew] = cold.read_subs_per_op() / warm.read_subs_per_op()
    hottest = max(ratios)
    assert ratios[hottest] >= min_hot_ratio, (
        f"cache cut read subs/op only {ratios[hottest]:.2f}x at skew "
        f"{hottest} (want >= {min_hot_ratio}x); ratios: "
        + ", ".join(f"{s}: {r:.2f}" for s, r in sorted(ratios.items()))
    )
    # Every skew wins, not just the hot one: with the working set inside
    # the cache, even mild skew repeats keys often enough to pay off.
    # (Low skew can win *more* -- fewer writes land on the cached hot keys,
    # so fewer invalidations -- which is why no monotonicity is asserted.)
    assert all(ratio > 1.5 for ratio in ratios.values()), ratios


def check_storm(result):
    assert result.check().all_atomic
    assert result.cache is not None
    # Write-heavy hot keys means held leases are chased constantly...
    assert result.cache["invalidations"] > 0
    # ...and nothing wedges: every op completes despite the deferrals.
    assert result.completed_ops > 0


def check_asyncio(cold, warm):
    assert cold.check().all_atomic
    assert warm.check().all_atomic
    assert warm.cache is not None and warm.cache["hits"] > 0
    assert warm.read_subs_per_op() < cold.read_subs_per_op()
    # The hits come back in the turn of the misses beside them, so the
    # cache takes rounds out of the replicas' frames instead of splitting
    # one wave of frames into two.
    assert warm.replica_frames_per_op() <= cold.replica_frames_per_op(), (
        f"cache on: {warm.replica_frames_per_op():.3f} replica frames/op, "
        f"off: {cold.replica_frames_per_op():.3f}"
    )


# -- pytest entry points --------------------------------------------------------

def test_kv_cache_zipf_sweep(benchmark):
    rows = benchmark.pedantic(run_zipf_sweep, rounds=1, iterations=1)
    print_section("KV cache — replica read sub-ops/op, cache off vs on (sim)")
    print(format_rows(_sweep_table(rows),
                      ["skew", "hit rate", "read subs/op off",
                       "read subs/op on", "ratio", "read p50 on/off",
                       "read p99 on/off", "atomic"]))
    check_sweep(rows)


def test_kv_cache_invalidation_storm(benchmark):
    result = benchmark.pedantic(run_invalidation_storm, rounds=1, iterations=1)
    print_section("KV cache — invalidation storm (sim)")
    print(format_rows(_storm_table(result),
                      ["ops", "hit rate", "invalidations", "write deferrals",
                       "leases granted", "atomic"]))
    check_storm(result)


def test_kv_cache_asyncio(benchmark):
    cold, warm = benchmark.pedantic(run_asyncio_cached, rounds=1, iterations=1)
    print_section("KV cache — cached reads over Unix-domain sockets")
    print(format_rows(_asyncio_table(cold, warm),
                      ["cache", "read subs/op", "hit rate", "rep frames/op",
                       "read p50", "atomic"]))
    check_asyncio(cold, warm)


if __name__ == "__main__":
    quick = "--quick" in sys.argv[1:]
    if quick:
        sweep = run_zipf_sweep(skews=(1.2,), ops_per_client=80, num_keys=24)
        storm = run_invalidation_storm(num_clients=4, ops_per_client=40)
        net = run_asyncio_cached(num_clients=3, ops_per_client=12)
    else:
        sweep = run_zipf_sweep()
        storm = run_invalidation_storm()
        net = run_asyncio_cached()
    print_section("KV cache — replica read sub-ops/op, cache off vs on (sim)")
    print(format_rows(_sweep_table(sweep),
                      ["skew", "hit rate", "read subs/op off",
                       "read subs/op on", "ratio", "read p50 on/off",
                       "read p99 on/off", "atomic"]))
    print_section("KV cache — invalidation storm (sim)")
    print(format_rows(_storm_table(storm),
                      ["ops", "hit rate", "invalidations", "write deferrals",
                       "leases granted", "atomic"]))
    print_section("KV cache — cached reads over Unix-domain sockets")
    print(format_rows(_asyncio_table(*net),
                      ["cache", "read subs/op", "hit rate", "rep frames/op",
                       "read p50", "atomic"]))
    check_sweep(sweep, min_hot_ratio=3.0 if not quick else 2.0)
    check_storm(storm)
    check_asyncio(*net)
    json_path = bench_json_path(sys.argv[1:])
    if json_path:
        def cache_row(result, scenario):
            row = result_row(result, scenario)
            row["read_subs_per_op"] = round(result.read_subs_per_op(), 3)
            if result.cache is not None:
                row["cache"] = dict(result.cache)
                row["cache_hit_rate"] = round(result.cache_hit_rate(), 4)
            return row

        write_bench_json(json_path, "kv_cache", {
            "zipf": [
                {"skew": skew,
                 "cold": cache_row(cold, "cache-off"),
                 "warm": cache_row(warm, "cache-on"),
                 "read_subs_ratio": round(
                     cold.read_subs_per_op() / warm.read_subs_per_op(), 3)}
                for skew, cold, warm in sweep
            ],
            "storm": cache_row(storm, "invalidation-storm"),
            "asyncio": [cache_row(net[0], "cache-off"),
                        cache_row(net[1], "cache-on")],
        })
        write_metrics_json(json_path, "kv_cache_sim", sweep[-1][2])
        write_metrics_json(json_path, "kv_cache_asyncio", net[1])
    print("\nall read-cache checks passed")
