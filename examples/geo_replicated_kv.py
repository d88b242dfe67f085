#!/usr/bin/env python3
"""A geo-replicated key-value store built on ``repro.kvstore``.

This is the deployment the paper's introduction motivates, now served by the
full store stack: a :class:`~repro.kvstore.sharding.ShardMap` spreads the
key space over six shards multiplexed onto three replica groups (one per
site -- the placement layer decouples shard count from cluster size), and
every site's clients enter through a **site-local ingress proxy**
(:mod:`repro.kvstore.engine.proxy`).  Each proxy merges the quorum rounds of its
site's clients into shared replica frames -- the cluster pays the fan-out
once per merged round instead of once per client -- and routes reads through
a :class:`~repro.kvstore.NearestQuorum` policy built from the same site map
the delay model uses, so each read targets a quorum instead of every
replica.  The checker verifies every key's sub-history independently.

The run compares the paper's fast-read register (W2R1) against the MW-ABD
baseline (W2R2) under a geo delay model (local ~0.5 ms, WAN ~40 ms) on a
read-heavy workload: with one WAN round-trip instead of two, the fast-read
protocol roughly halves user-perceived read latency -- now for the whole
sharded store, behind the proxy tier.

Usage::

    python examples/geo_replicated_kv.py [keys] [ops_per_client]
"""

from __future__ import annotations

import sys
from typing import Dict

from repro.kvstore import (
    KVRunConfig,
    NearestQuorum,
    ShardMap,
    generate_workload,
    run,
)
from repro.sim import GeoDelay

SITES = ("us-east", "eu-west", "ap-south")
NUM_SHARDS = 6
NUM_GROUPS = 3  # one replica group per site; each group hosts two shards
SERVERS_PER_GROUP = 9  # fast reads need R < S/t - 2, so 6 clients need S >= 9
NUM_CLIENTS = 6  # two per site, sharing that site's ingress proxy
NUM_PROXIES = 3  # one per site


def _site_map(shard_map: ShardMap, clients) -> Dict[str, str]:
    """Place groups, proxies and clients per site.

    Clients are assigned to proxies round-robin (client ``i`` -> proxy
    ``i % NUM_PROXIES``), so giving client ``i`` and proxy ``i % 3`` the same
    site makes every client enter through its *local* proxy.
    """
    mapping: Dict[str, str] = {}
    for index, group in enumerate(shard_map.groups.values()):
        for server in group.servers:
            mapping[server] = SITES[index % len(SITES)]
    for index, client in enumerate(clients):
        mapping[client] = SITES[index % len(SITES)]
    for index in range(NUM_PROXIES):
        mapping[f"p{index + 1}"] = SITES[index % len(SITES)]
    return mapping


def run_store(protocol_key: str, keys: int, ops_per_client: int, seed: int) -> None:
    shard_map = ShardMap(
        NUM_SHARDS,
        protocol_key=protocol_key,
        servers_per_shard=SERVERS_PER_GROUP,
        max_faults=1,
        readers=NUM_CLIENTS,
        writers=NUM_CLIENTS,
        num_groups=NUM_GROUPS,
    )
    workload = generate_workload(
        num_clients=NUM_CLIENTS,
        ops_per_client=ops_per_client,
        num_keys=keys,
        read_fraction=0.75,
        pipeline_depth=4,
        seed=seed,
    )
    sites = _site_map(shard_map, workload.clients)
    delay = GeoDelay(sites, local_delay=0.5, wan_delay=40.0, seed=seed)
    result = run(KVRunConfig(
        shard_map=shard_map,
        max_batch=8,
        delay_model=delay,
        service_overhead=0.05,
        service_per_op=0.02,
        proxies=NUM_PROXIES,
        proxy_flush_delay=0.25,
        read_policy=NearestQuorum.from_sites(sites),
    ), workload)
    verdict = result.check()
    reads = result.read_stats()
    writes = result.write_stats()
    merged = result.proxy_stats
    print(f"--- {protocol_key} over {keys} keys on {NUM_SHARDS} shards / "
          f"{NUM_GROUPS} groups / {NUM_PROXIES} proxies ---")
    print(f"  operations        : {result.completed_ops} "
          f"({result.batch_stats.summary()})")
    print(f"  proxy merging     : mean {merged.mean_batch_size:.2f} rounds per "
          f"replica frame, largest {merged.largest}; "
          f"{result.replica_frames_per_op():.2f} replica frames per op")
    print(f"  read  latency (ms): p50={reads.p50:.1f}  p95={reads.p95:.1f}  "
          f"p99={reads.p99:.1f}")
    print(f"  write latency (ms): p50={writes.p50:.1f}  p95={writes.p95:.1f}")
    print(f"  atomicity violations across keys: {len(verdict.violating_keys)}")
    print()


def main() -> None:
    keys = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    ops_per_client = int(sys.argv[2]) if len(sys.argv) > 2 else 20
    print(f"geo-replicated KV store: {NUM_SHARDS} shards on {NUM_GROUPS} "
          f"groups x {SERVERS_PER_GROUP} replicas across {', '.join(SITES)},")
    print(f"each site's {NUM_CLIENTS // NUM_PROXIES} clients entering through "
          "a site-local ingress proxy (nearest-quorum reads)")
    print("WAN one-way delay ~40 ms, read-heavy pipelined workload\n")
    run_store("fast-read-mwmr", keys, ops_per_client, seed=100)
    run_store("abd-mwmr", keys, ops_per_client, seed=100)
    print("The fast-read register halves user-perceived read latency (one WAN")
    print("round-trip instead of two) for every key of the sharded store; the")
    print("proxies merge each site's client rounds into shared replica frames")
    print("and the checker confirms per-key atomicity for both protocols.")


if __name__ == "__main__":
    main()
