"""Shared helpers for the benchmark suite."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence


def print_section(title: str) -> None:
    """Print a visually separated section header around regenerated tables."""
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


def bench_json_path(argv: Sequence[str]) -> Optional[str]:
    """The path following ``--json``, or ``None`` when not requested."""
    args = list(argv)
    if "--json" not in args:
        return None
    index = args.index("--json")
    if index + 1 >= len(args) or args[index + 1].startswith("--"):
        raise SystemExit("--json requires a PATH argument")
    return args[index + 1]


def result_row(result, scenario: Optional[str] = None) -> Dict[str, Any]:
    """One machine-readable summary row for a ``KVRunResult``.

    Everything the perf trajectory needs across PRs: throughput, frame
    amortization, replica-side cost, and the replay/failover counters the
    resilience features are judged by.
    """
    ops = result.completed_ops or 1
    batching = result.batch_stats.as_dict()
    row: Dict[str, Any] = {
        "backend": result.backend,
        "shards": result.num_shards,
        "groups": result.num_groups,
        "proxies": result.num_proxies,
        "batch": result.max_batch,
        "ops": result.completed_ops,
        "duration": round(result.elapsed, 6),
        "ops_per_s": round(result.throughput(), 3),
        "frames_total": result.frames_total,
        "frames_per_op": round(result.frames_total / ops, 3),
        "replica_frames_per_op": round(result.replica_frames_per_op(), 3),
        "replica_sub_ops_per_op": round(result.replica_sub_ops / ops, 3),
        "mean_batch": round(batching["mean_batch"], 3),
        "batching": batching,
        "stale_replays": result.stale_replays,
        "stale_bounces": result.stale_bounces,
        "proxy_failovers": result.proxy_failovers,
        "view_pushes": result.view_pushes,
        "read_p50": round(result.read_stats().p50, 6),
        "read_p99": round(result.read_stats().p99, 6),
        "atomic": bool(result.check().all_atomic),
    }
    if result.proxy_stats is not None:
        row["proxy_batching"] = result.proxy_stats.as_dict()
    if scenario is not None:
        row["scenario"] = scenario
    return row


def metrics_json_path(json_path: Optional[str]) -> Optional[str]:
    """The metrics sidecar path for a ``--json PATH`` (``None`` without one).

    ``BENCH_kv.json`` gets ``BENCH_kv_metrics.json`` next to it, so CI can
    upload both and schema-check the sidecar without parsing the main report.
    """
    if json_path is None:
        return None
    target = Path(json_path)
    return str(target.with_name(target.stem + "_metrics" + target.suffix))


def write_metrics_json(json_path: Optional[str], section: str, result) -> None:
    """Merge one run's per-tier metrics snapshot into the metrics sidecar.

    Mirrors :func:`write_bench_json`'s one-section-per-bench layout; no-op
    when ``--json`` was not requested or the result carries no snapshot.
    """
    sidecar = metrics_json_path(json_path)
    if sidecar is None or result.metrics is None:
        return
    target = Path(sidecar)
    data: Dict[str, Any] = {}
    if target.exists():
        try:
            data = json.loads(target.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            data = {}
    data[section] = result.metrics
    target.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote metrics section {section!r} -> {target}")


def write_bench_json(path: str, section: str, payload: Any) -> None:
    """Merge one bench's summary into the JSON report at ``path``.

    Each bench owns one top-level ``section`` key, so all the ``bench_kv_*``
    scripts can share one ``BENCH_kv.json`` (CI's ``--quick`` runs do) and a
    later PR can diff the perf trajectory file against the previous one.
    """
    target = Path(path)
    data: Dict[str, Any] = {}
    if target.exists():
        try:
            data = json.loads(target.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            data = {}
    data[section] = payload
    target.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"\nwrote section {section!r} -> {target}")


def rows_for(results, scenarios: Optional[List[str]] = None) -> List[Dict[str, Any]]:
    """``result_row`` over a list (optionally zipped with scenario labels)."""
    if scenarios is None:
        return [result_row(result) for result in results]
    return [
        result_row(result, scenario)
        for result, scenario in zip(results, scenarios)
    ]
