"""Schema check for the ``--quick`` benchmark summary and its metrics sidecar.

CI regenerates ``BENCH_kv.json`` (one section per ``bench_kv_*.py`` /
``bench_observe_emit.py`` / ``bench_codec.py`` run) and ``BENCH_kv_metrics.json`` (one per-tier
metrics snapshot per run and backend); this script checks that every
expected section is present and shaped the way its readers expect, and that
every snapshot passes :func:`repro.observe.validate_metrics_snapshot` for
the tiers it exports.  ``check_perf_gate.py`` then judges the numbers.

Usage::

    PYTHONPATH=src python benchmarks/check_bench_schema.py \
        BENCH_kv.json BENCH_kv_metrics.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List

from repro.observe import validate_metrics_snapshot

SUMMARY_SECTIONS = {
    "kv_sharding", "kv_resize", "kv_proxy", "kv_failover",
    "kv_autoscale", "kv_cache", "observe_emit", "codec",
}
ZIPF_ROW_KEYS = {"skew", "cold", "warm", "read_subs_ratio"}
STALL_ROW_KEYS = {"drain_range_size", "ranges_drained", "max_stall", "cutover_p99"}
METRICS_SECTIONS = {
    "kv_sharding_sim", "kv_sharding_asyncio",
    "kv_resize_sim", "kv_resize_asyncio",
    "kv_proxy_sim", "kv_proxy_asyncio",
    "kv_failover_asyncio",
    "kv_autoscale_sim", "kv_autoscale_asyncio",
    "kv_cache_sim", "kv_cache_asyncio",
}
TIERS = ("client", "proxy", "replica", "control")


def check_summary(data: Dict[str, Any]) -> List[str]:
    """Problems with ``BENCH_kv.json`` (empty when it is complete)."""
    missing = SUMMARY_SECTIONS - set(data)
    if missing:
        return [f"BENCH_kv.json is missing sections: {sorted(missing)}"]
    problems = []
    for entry in data["kv_cache"]["zipf"]:
        if not ZIPF_ROW_KEYS <= set(entry):
            problems.append(f"kv_cache.zipf row keys: {sorted(entry)}")
    for entry in data["kv_autoscale"]["stall"]:
        if not STALL_ROW_KEYS <= set(entry):
            problems.append(f"kv_autoscale.stall row keys: {sorted(entry)}")
    return problems


def check_metrics(data: Dict[str, Any]) -> List[str]:
    """Problems with ``BENCH_kv_metrics.json`` (empty when every section
    is present and every snapshot validates for the tiers it exports)."""
    missing = METRICS_SECTIONS - set(data)
    if missing:
        return [f"BENCH_kv_metrics.json is missing sections: {sorted(missing)}"]
    problems = []
    if "control" not in data["kv_autoscale_sim"]:
        problems.append("kv_autoscale_sim must export the control tier")
    for section, snapshot in data.items():
        tiers = tuple(tier for tier in TIERS if tier in snapshot)
        try:
            validate_metrics_snapshot(snapshot, require_tiers=tiers)
        except ValueError as exc:
            problems.append(f"{section}: {exc}")
        else:
            print(f"{section}: tiers {tiers} ok")
    return problems


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("summary", help="BENCH_kv.json")
    parser.add_argument("metrics", help="BENCH_kv_metrics.json")
    args = parser.parse_args(argv)
    summary = json.loads(Path(args.summary).read_text(encoding="utf-8"))
    problems = check_summary(summary)
    if not problems:
        print("BENCH_kv.json sections:", sorted(summary))
    problems += check_metrics(json.loads(Path(args.metrics).read_text(encoding="utf-8")))
    for problem in problems:
        print(f"SCHEMA: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
