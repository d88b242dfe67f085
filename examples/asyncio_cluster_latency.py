#!/usr/bin/env python3
"""Wall-clock latency on a real asyncio TCP cluster (loopback).

Starts one TCP replica per server, connects real reader and writer clients,
runs a closed-loop workload for the paper's fast-read protocol, MW-ABD and
the single-writer DGLV register, and reports measured operation latencies.
The absolute numbers are loopback numbers; the *shape* is the paper's: reads
that need one round-trip complete in roughly half the time of reads that need
two.

Usage::

    python examples/asyncio_cluster_latency.py [writes_per_writer] [reads_per_reader]
"""

from __future__ import annotations

import sys

from repro.asyncio_net.cluster import run_closed_loop_workload
from repro.consistency import check_atomicity
from repro.protocols import build_protocol
from repro.util.ids import server_ids


def run_one(protocol_key: str, writes: int, reads: int) -> None:
    protocol = build_protocol(protocol_key, server_ids(5), max_faults=1, readers=2, writers=2)
    result = run_closed_loop_workload(protocol, writes_per_writer=writes, reads_per_reader=reads)
    verdict = check_atomicity(result.history)
    read_stats = result.read_stats()
    write_stats = result.write_stats()
    print(f"--- {protocol.name} ---")
    print(
        f"  reads : {read_stats.count:3d} ops, p50={read_stats.p50 * 1e3:.2f} ms, "
        f"p99={read_stats.p99 * 1e3:.2f} ms, round-trips={max(result.read_round_trips)}"
    )
    print(
        f"  writes: {write_stats.count:3d} ops, p50={write_stats.p50 * 1e3:.2f} ms, "
        f"p99={write_stats.p99 * 1e3:.2f} ms, round-trips={max(result.write_round_trips)}"
    )
    print(f"  atomicity: {verdict.summary()}")
    print()


def main() -> None:
    writes = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    reads = int(sys.argv[2]) if len(sys.argv) > 2 else 15
    print("asyncio loopback cluster, 5 replicas, t=1, 2 writers, 2 readers\n")
    run_one("fast-read-mwmr", writes, reads)
    run_one("abd-mwmr", writes, reads)
    run_one("fast-swmr", writes, reads)


if __name__ == "__main__":
    main()
