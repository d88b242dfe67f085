"""Benchmark X1b — wall-clock latency on the asyncio TCP loopback cluster.

Runs the same closed-loop workload against real TCP replicas for MW-ABD and
the paper's fast-read register and reports measured milliseconds.

Note on the expected shape: on loopback the propagation delay is tens of
microseconds, so serialization cost (the fast-read READACK carries the whole
value vector) can outweigh the saved round-trip; the benchmark therefore
asserts the *round-trip* structure and atomicity here and leaves the latency
ratio assertion to the simulated LAN/geo benchmark
(``bench_latency_simulated.py``), where propagation dominates as it does in
the deployments the paper targets.  The measured numbers are still printed
and recorded in EXPERIMENTS.md.
"""

from __future__ import annotations


from repro.asyncio_net.cluster import run_closed_loop_workload
from repro.bench.report import format_rows
from repro.consistency import check_atomicity
from repro.protocols.registry import build_protocol
from repro.util.ids import server_ids

from _bench_utils import print_section


def _run_cluster(key: str):
    protocol = build_protocol(key, server_ids(5), 1, readers=2, writers=2)
    result = run_closed_loop_workload(protocol, writes_per_writer=5, reads_per_reader=20)
    verdict = check_atomicity(result.history)
    return protocol.name, result, verdict


def test_latency_asyncio_cluster(benchmark):
    def run_both():
        return [_run_cluster("abd-mwmr"), _run_cluster("fast-read-mwmr")]

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)

    rows = []
    for name, result, verdict in results:
        read_stats = result.read_stats()
        write_stats = result.write_stats()
        rows.append(
            {
                "protocol": name,
                "read p50 (ms)": read_stats.p50 * 1e3,
                "read p99 (ms)": read_stats.p99 * 1e3,
                "write p50 (ms)": write_stats.p50 * 1e3,
                "read RTTs": max(result.read_round_trips),
                "atomic": verdict.atomic,
            }
        )
    print_section("X1b — asyncio loopback cluster latency")
    print(format_rows(
        rows,
        ["protocol", "read p50 (ms)", "read p99 (ms)", "write p50 (ms)", "read RTTs", "atomic"],
    ))

    by_name = {name: (result, verdict) for name, result, verdict in results}
    abd_result, abd_verdict = by_name["mw-abd (W2R2)"]
    fast_result, fast_verdict = by_name["fast-read mwmr (W2R1, this paper)"]
    assert abd_verdict.atomic and fast_verdict.atomic
    assert max(fast_result.read_round_trips) == 1
    assert max(abd_result.read_round_trips) == 2
    # Sanity bound only (see the module docstring): loopback serialization
    # cost can mask the saved round-trip, but it must not blow up.
    assert fast_result.read_stats().p50 < 5 * abd_result.read_stats().p50
