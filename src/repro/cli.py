"""Command-line interface for the repro library.

Exposes the most common workflows without writing any Python:

* ``python -m repro run`` — run one protocol under a workload on the
  simulator, print the history summary, atomicity verdict and staleness
  metrics.
* ``python -m repro table1`` — regenerate Table 1 (theoretical + measured).
* ``python -m repro prove`` — run the mechanized W1R2 chain argument and the
  refutation of the built-in read rules.
* ``python -m repro boundary`` — sweep the fast-read feasibility boundary
  ``R < S/t − 2`` (Fig. 9).
* ``python -m repro latency`` — compare protocol latencies under a LAN or geo
  delay model.
* ``python -m repro kv`` — run the sharded, batched key-value store
  (:mod:`repro.kvstore`) on the simulator or over Unix-domain sockets and verify
  per-key atomicity.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Optional, Sequence

from .bench.harness import BenchConfig, run_simulated_benchmark
from .bench.report import format_metrics_table, format_rows
from .consistency import check_atomicity, measure_staleness
from .core.conditions import SystemParameters, fast_read_bound
from .kvstore import KVRunConfig, generate_workload, run as run_kv
from .kvstore.engine import DRAIN_RANGE_SIZE
from .observe import TraceCollector
from .protocols.registry import PROTOCOLS, build_protocol
from .sim.delays import GeoDelay, UniformDelay
from .sim.runtime import Simulation
from .theory.design_space import empirical_table, format_table, theoretical_table
from .theory.fast_read_bound import run_fig9_experiment
from .theory.fullinfo import NATURAL_RULES
from .theory.impossibility import refute_all
from .util.ids import client_ids, server_ids
from .workloads.generators import apply_open_loop, uniform_open_loop

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fast implementations of multi-writer atomic registers (PODC 2020 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="run one protocol on the simulator")
    run.add_argument("--protocol", default="fast-read-mwmr", choices=sorted(PROTOCOLS))
    run.add_argument("--servers", type=int, default=5)
    run.add_argument("--faults", type=int, default=1)
    run.add_argument("--readers", type=int, default=2)
    run.add_argument("--writers", type=int, default=2)
    run.add_argument("--writes", type=int, default=4, help="writes per writer")
    run.add_argument("--reads", type=int, default=6, help="reads per reader")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--crash", action="store_true", help="crash one server mid-run")

    table1 = subparsers.add_parser("table1", help="regenerate Table 1")
    table1.add_argument("--servers", type=int, default=5)
    table1.add_argument("--faults", type=int, default=1)
    table1.add_argument("--seeds", type=int, default=2)

    prove = subparsers.add_parser("prove", help="run the W1R2 impossibility argument")
    prove.add_argument("--servers", type=int, default=4)

    boundary = subparsers.add_parser("boundary", help="sweep the fast-read bound R < S/t - 2")
    boundary.add_argument("--max-servers", type=int, default=8)
    boundary.add_argument("--faults", type=int, default=1)
    boundary.add_argument("--readers", type=int, default=2)

    latency = subparsers.add_parser("latency", help="compare protocol latencies")
    latency.add_argument("--delay", choices=("lan", "geo"), default="lan")
    latency.add_argument("--servers", type=int, default=7)
    latency.add_argument(
        "--protocols",
        nargs="+",
        default=["abd-mwmr", "fast-read-mwmr"],
        choices=sorted(PROTOCOLS),
    )

    kv = subparsers.add_parser(
        "kv", help="run the sharded key-value store and verify per-key atomicity"
    )
    kv.add_argument("--backend", choices=("sim", "asyncio"), default="sim")
    kv.add_argument("--shards", type=int, default=4)
    kv.add_argument("--groups", type=int, default=None,
                    help="replica groups hosting the shards (default: one per "
                         "shard); fewer groups than shards multiplexes many "
                         "shards per group")
    kv.add_argument("--protocol", default="abd-mwmr", choices=sorted(PROTOCOLS))
    kv.add_argument("--servers-per-shard", type=int, default=3,
                    help="replica servers per group")
    kv.add_argument("--faults", type=int, default=1)
    kv.add_argument("--resize-to", type=int, default=None, metavar="N",
                    help="live-resize the ring to N shards mid-run (the "
                         "resize action: registers drain to the new owners "
                         "while clients keep operating)")
    kv.add_argument("--resize-after", type=int, default=None, metavar="OPS",
                    help="trigger the live resize after OPS completed "
                         "operations (default: half the workload)")
    kv.add_argument("--kill-proxy-after", type=int, default=None, metavar="OPS",
                    help="kill one ingress proxy per site after OPS completed "
                         "operations (requires --proxies; clients fail over "
                         "to a sibling proxy or to direct connections with "
                         "no client-visible errors)")
    kv.add_argument("--no-view-push", action="store_true",
                    help="disable control-plane view pushes to the proxies "
                         "(live rebalances are then discovered via "
                         "stale-epoch bounces only)")
    kv.add_argument("--proxies", type=int, default=0, metavar="N",
                    help="route clients through N site-local ingress proxies "
                         "(round-robin) that merge quorum rounds across "
                         "clients into shared replica frames; 0 = direct")
    kv.add_argument("--read-cache", type=int, default=0, metavar="N",
                    help="give each ingress proxy an N-entry LRU read cache "
                         "backed by server-granted leases (requires "
                         "--proxies); hot-key reads are served at the proxy "
                         "with no replica round, writes invalidate before "
                         "they ack, so atomicity is preserved")
    kv.add_argument("--lease-ttl", type=float, default=None, metavar="T",
                    help="read-lease duration (sim: virtual time units, "
                         "default 60; asyncio: wall-clock seconds, default "
                         "1.0); longer leases raise the hit rate but extend "
                         "how long a crashed proxy can defer writers")
    kv.add_argument("--autoscale", action="store_true",
                    help="arm the metrics-driven autoscaler: the control "
                         "plane folds per-group served-op counts and moves "
                         "the hottest group's hottest shard to the coldest "
                         "group via incremental drains")
    kv.add_argument("--drain-range-size", type=int, default=DRAIN_RANGE_SIZE, metavar="K",
                    help="keys per drained range during live rebalances; "
                         "bounds the per-range cutover pause (default: "
                         f"{DRAIN_RANGE_SIZE})")
    kv.add_argument("--workload", default="zipf:0.8", metavar="SHAPE",
                    help="key-popularity shape: 'uniform' or 'zipf:<s>' "
                         "with skew exponent s, e.g. zipf:1.2 (default: "
                         "zipf:0.8)")
    kv.add_argument("--clients", type=int, default=4)
    kv.add_argument("--ops", type=int, default=30, help="operations per client")
    kv.add_argument("--keys", type=int, default=32)
    kv.add_argument("--read-fraction", type=float, default=0.7)
    kv.add_argument("--batch", type=int, default=8, help="max sub-ops per batch frame")
    kv.add_argument("--pipeline", type=int, default=4,
                    help="operations in flight per client")
    kv.add_argument("--crashes", type=int, default=0, metavar="N",
                    help="crash N random replicas per group mid-run (capped "
                         "at each group's fault budget, victims drawn from "
                         "the run's --seed)")
    kv.add_argument("--seed", type=int, default=0,
                    help="seed for workload generation and crash-victim "
                         "selection; the same seed reproduces the same run "
                         "on either backend")
    kv.add_argument("--trace-dump", metavar="PATH", default=None,
                    help="write cross-tier span trees (one per operation, "
                         "client -> proxy -> replica) to PATH as JSON")
    kv.add_argument("--metrics-dump", metavar="PATH", default=None,
                    help="write the run's per-tier metrics snapshot "
                         "(counters + latency histograms) to PATH as JSON")
    return parser


def _command_run(args: argparse.Namespace) -> int:
    protocol = build_protocol(
        args.protocol,
        server_ids(args.servers),
        args.faults,
        readers=args.readers,
        writers=args.writers,
    )
    simulation = Simulation(protocol, delay_model=UniformDelay(0.5, 1.5, seed=args.seed))
    workload = uniform_open_loop(
        client_ids("w", protocol.writers),
        client_ids("r", args.readers),
        writes_per_writer=args.writes,
        reads_per_reader=args.reads,
        horizon=40.0 * max(args.writes, args.reads),
        seed=args.seed,
    )
    apply_open_loop(simulation, workload)
    if args.crash and args.faults >= 1:
        simulation.crash_server(f"s{args.servers}", at=20.0)
    result = simulation.run()
    verdict = check_atomicity(result.history)
    staleness = measure_staleness(result.history)
    writes, reads = result.history.round_trip_counts()

    print(f"protocol           : {protocol.name}")
    print(f"configuration      : S={args.servers} t={args.faults} "
          f"W={protocol.writers} R={args.readers} seed={args.seed}")
    print(f"operations         : {len(result.history.complete_operations)} completed "
          f"({len(result.history.pending_operations)} pending)")
    print(f"round-trips (w/r)  : {max(writes, default=0)}/{max(reads, default=0)} worst case")
    print(f"messages sent      : {result.messages_sent}")
    print(f"atomicity          : {verdict.summary()}")
    print(f"staleness          : {staleness.summary()}")
    return 0 if verdict.atomic else 1


def _command_table1(args: argparse.Namespace) -> int:
    params = SystemParameters(args.servers, 2, 2, args.faults)
    print(f"configuration: {params.describe()}  "
          f"(fast-read bound S/t-2 = {fast_read_bound(args.servers, args.faults):.2f})")
    theoretical = theoretical_table(params)
    empirical = empirical_table(params, seeds=tuple(range(args.seeds)), bursts=3)
    print(format_table(theoretical, empirical))
    mismatches = [row for row in empirical if not row.matches_expectation]
    return 1 if mismatches else 0


def _command_prove(args: argparse.Namespace) -> int:
    outcomes = refute_all(NATURAL_RULES, num_servers=args.servers)
    rows = [
        {
            "rule": outcome.rule_name,
            "critical server": f"s{outcome.critical_index}" if outcome.critical_index else "-",
            "violating execution": outcome.witness.execution.name if outcome.witness else "-",
            "links verified": outcome.certificate.all_verified if outcome.certificate else "-",
        }
        for outcome in outcomes
    ]
    print(format_rows(rows, ["rule", "critical server", "violating execution", "links verified"]))
    return 0 if all(outcome.refuted for outcome in outcomes) else 1


def _command_boundary(args: argparse.Namespace) -> int:
    rows = []
    exit_code = 0
    for servers in range(max(3, 2 * args.faults + 1), args.max_servers + 1):
        if 2 * args.faults >= servers:
            continue
        result = run_fig9_experiment(servers, args.faults, args.readers)
        impossible = args.readers >= fast_read_bound(servers, args.faults)
        if impossible != result.violation_found:
            exit_code = 1
        rows.append(
            {
                "S": servers,
                "t": args.faults,
                "R": args.readers,
                "S/t-2": f"{fast_read_bound(servers, args.faults):.2f}",
                "impossible (theory)": impossible,
                "violation observed": result.violation_found,
            }
        )
    print(format_rows(rows, ["S", "t", "R", "S/t-2", "impossible (theory)", "violation observed"]))
    return exit_code


def _command_latency(args: argparse.Namespace) -> int:
    metrics = []
    for key in args.protocols:
        config = BenchConfig(
            protocol_key=key,
            servers=args.servers,
            max_faults=1,
            writes_per_writer=4,
            reads_per_reader=10,
            horizon=2000.0 if args.delay == "geo" else 200.0,
            seed=1,
        )
        if args.delay == "geo":
            sites = {}
            for index, name in enumerate(
                server_ids(args.servers) + client_ids("w", 2) + client_ids("r", 2)
            ):
                sites[name] = ("us", "eu", "ap")[index % 3]
            delay = GeoDelay(sites, local_delay=0.5, wan_delay=40.0, seed=1)
        else:
            delay = UniformDelay(0.5, 1.5, seed=1)
        metrics.append(run_simulated_benchmark(config, delay_model=delay))
    print(format_metrics_table(metrics))
    return 0


def _parse_workload_shape(shape: str) -> float:
    """``uniform`` or ``zipf:<s>`` -> the key-skew exponent."""
    if shape == "uniform":
        return 0.0
    if shape.startswith("zipf:"):
        try:
            skew = float(shape.split(":", 1)[1])
        except ValueError:
            raise SystemExit(f"--workload: bad zipf skew in {shape!r}")
        if skew <= 0:
            raise SystemExit("--workload: zipf skew must be positive "
                             "(use 'uniform' for no skew)")
        return skew
    raise SystemExit(f"--workload must be 'uniform' or 'zipf:<s>', got {shape!r}")


#: The ``repro kv`` flag of each :class:`KVRunConfig` field its checks name.
_KV_FLAGS = {
    "resize_after_ops": "--resize-after", "resize_to": "--resize-to",
    "kill_proxy_after_ops": "--kill-proxy-after", "proxies": "--proxies",
    "read_cache": "--read-cache", "lease_ttl": "--lease-ttl",
}


def _command_kv(args: argparse.Namespace) -> int:
    trace_collector = TraceCollector() if args.trace_dump else None
    try:
        config = KVRunConfig(
            backend=args.backend,
            num_shards=args.shards,
            num_groups=args.groups,
            protocol_key=args.protocol,
            servers_per_shard=args.servers_per_shard,
            max_faults=args.faults,
            max_batch=args.batch,
            trace_collector=trace_collector,
            proxies=args.proxies,
            push_views=not args.no_view_push,
            read_cache=args.read_cache,
            lease_ttl=args.lease_ttl,
            resize_to=args.resize_to,
            resize_after_ops=args.resize_after,
            kill_proxy_after_ops=args.kill_proxy_after,
            crashes_per_group=args.crashes,
            crash_seed=args.seed,
            autoscale=args.autoscale,
            drain_range_size=args.drain_range_size,
        )
    except ValueError as exc:  # say it in flags
        raise SystemExit(re.sub(r"\w+", lambda m: _KV_FLAGS.get(m[0], m[0]), str(exc)))
    # One seed drives every RNG of the run -- the workload shape here and
    # the crash-victim draw -- so a CLI run is reproduced exactly by
    # repeating its --seed, on either backend.
    workload = generate_workload(
        num_clients=args.clients,
        ops_per_client=args.ops,
        num_keys=args.keys,
        read_fraction=args.read_fraction,
        key_skew=_parse_workload_shape(args.workload),
        pipeline_depth=args.pipeline,
        seed=args.seed,
    )
    result = run_kv(config, workload)
    time_unit = "virtual time units" if args.backend == "sim" else "seconds"
    verdict = result.check()

    groups = result.num_groups or args.shards
    print(f"backend            : {result.backend}")
    print(f"configuration      : {args.shards} shards on {groups} groups x "
          f"{args.servers_per_shard} replicas ({args.protocol}, t={args.faults}), "
          f"{args.clients} clients, {args.keys} keys, pipeline {args.pipeline}")
    print(f"operations         : {result.completed_ops} completed "
          f"({workload.total_operations()} scheduled)")
    print(f"duration           : {result.elapsed:.3f} {time_unit}")
    print(f"throughput         : {result.throughput():.2f} ops per time unit")
    print(f"batching           : {result.batch_stats.summary()}")
    print(f"messages sent      : {result.messages_sent} frames")
    print(f"frames             : {result.frames_sent} sent / {result.frames_total} "
          f"total across tiers; {result.replica_frames} served by replicas "
          f"({result.replica_frames_per_op():.2f} per op)")
    if result.direct_link is not None:
        print(f"direct link        : {result.direct_link['stores']} stores, "
              f"mean batch {result.direct_link['mean_batch']:.2f}")
    if result.proxy_leg is not None:
        print(f"proxy leg          : {result.proxy_leg['stores']} stores, "
              f"mean batch {result.proxy_leg['mean_batch']:.2f}")
    if result.num_proxies:
        print(f"proxy tier         : {result.num_proxies} proxies, "
              f"{result.proxy_stats.summary()}")
    print(f"read latency p50   : {result.read_stats().p50:.3f}")
    if result.metrics and "client" in result.metrics:
        latency = result.metrics["client"]["histograms"]["op_latency"]
        print(f"op latency         : p50 {latency['p50']:.3f} / "
              f"p95 {latency['p95']:.3f} / p99 {latency['p99']:.3f}")
        counters = result.metrics["client"]["counters"]
        fast, slow = counters["reads_fast"], counters["reads_slow"]
        print(f"read round trips   : {fast} reads in one round (quorum "
              f"agreed) / {slow} in more (write-back or replay)")
    # Counted by whichever tier talks to the replicas (both, after a failover).
    to_replicas = [result.batch_stats] + (
        [result.proxy_stats] if result.proxy_stats is not None else []
    )
    print(f"replica rounds     : "
          f"{sum(stats.rounds_narrow for stats in to_replicas)} asked a quorum "
          f"first / {sum(stats.rounds_widened for stats in to_replicas)} of "
          f"them widened to the group / "
          f"{sum(stats.rounds_coalesced for stats in to_replicas)} rode "
          f"another's query")
    if result.cache is not None:
        print(f"read cache         : {result.cache_hit_rate():.1%} hit rate "
              f"({result.cache['hits']} hits / {result.cache['misses']} "
              f"misses), {result.cache['invalidations']} invalidations, "
              f"{result.cache['lease_expiries']} lease expiries, "
              f"{result.cache['releases_carried']} releases carried in batch "
              f"frames / {result.cache['releases_alone']} sent alone")
    # Resilience counters print unconditionally (zeroes included) on both
    # backends -- a quiet run should say so, not hide the line.  Drain
    # bounces (rounds parked behind a draining range) and cache
    # invalidations are distinct churn sources and are reported apart.
    print(f"resilience         : {result.stale_replays} stale replays, "
          f"{result.proxy_failovers} proxy failovers, "
          f"{result.stale_bounces} replica bounces, "
          f"{result.drain_backoffs} drain bounces, "
          f"{(result.cache or {}).get('invalidations', 0)} cache invalidations")
    if result.resize:
        print(f"live resize        : -> {result.resize['to']} shards after "
              f"{result.resize['at_ops']} ops; {result.resize['report']}; "
              f"{result.stale_replays} rounds replayed; "
              f"{result.view_pushes} view pushes applied")
    if result.autoscale is not None:
        actions = result.autoscale["actions"]
        moved = ", ".join(
            f"{a['shard']}: {a['from']} -> {a['to']}" for a in actions
        ) or "no moves (load stayed balanced)"
        print(f"autoscaler         : {len(actions)} actions; "
              f"{result.autoscale['drains_completed']} drains / "
              f"{result.autoscale['ranges_drained']} ranges; {moved}")
    if result.proxy_kill:
        print(f"proxy kill         : killed {result.proxy_kill['killed']} after "
              f"{result.proxy_kill['at_ops']} ops; "
              f"{result.proxy_failovers} client failovers; "
              f"{result.completed_ops}/{workload.total_operations()} ops "
              "completed")
    if trace_collector is not None:
        dumped = trace_collector.dump(args.trace_dump)
        print(f"trace dump         : {dumped} span trees -> {args.trace_dump}")
    if args.metrics_dump and result.metrics is not None:
        with open(args.metrics_dump, "w", encoding="utf-8") as handle:
            json.dump(result.metrics, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"metrics dump       : {sorted(result.metrics)} tiers "
              f"-> {args.metrics_dump}")
    print(f"atomicity          : {verdict.summary()}")
    return 0 if verdict.all_atomic else 1


_COMMANDS = {
    "run": _command_run,
    "table1": _command_table1,
    "prove": _command_prove,
    "boundary": _command_boundary,
    "latency": _command_latency,
    "kv": _command_kv,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
