"""Perf-regression gate: diff a fresh BENCH_kv.json against the baseline.

CI regenerates ``BENCH_kv.json`` with every ``bench_kv_*.py --quick`` run and
then calls this script to compare it against the checked-in baseline
(``benchmarks/baselines/BENCH_kv.json``).  The gate walks both JSON trees in
lockstep and checks every occurrence of the *efficiency* metrics -- the
numbers the perf-bearing features (batching, proxy fan-in, the read cache)
are judged by:

* lower-is-better: ``frames_per_op``, ``replica_frames_per_op``,
  ``replica_sub_ops_per_op``, ``read_subs_per_op`` -- a fresh value may not
  exceed baseline by more than the tolerance;
* higher-is-better: ``read_subs_ratio``, ``cache_hit_rate`` -- a fresh value
  may not fall short of baseline by more than the tolerance;
* ``atomic`` -- may never go from ``true`` to ``false``, tolerance or not;
* exact: ``trace_events_built`` (``bench_observe_emit.py``) -- a
  deterministic count that must equal the baseline's (zero: the default
  sinks never make the observer hub build a ``TraceEvent``) -- and
  ``wire_bytes_per_frame`` (``bench_codec.py``) -- the encoded size of every
  frame of a fixed corpus, so a wire-format change is a deliberate baseline
  edit;
* ceiling: ``observer_on_off_ratio`` -- emit cost with the default sinks
  over emit cost on ``NULL_OBSERVER`` -- and
  ``frame_round_trip_over_json_floor`` -- a frame's make + encode + decode +
  unpack over the C JSON encoder and parser alone on the same bytes; both are
  measured back to back in one process and may not exceed a fixed ceiling
  whatever the baseline recorded.

Wall-clock numbers (throughput, latencies) are deliberately *not* gated:
quick runs on shared CI runners are too noisy for them, while the gated
metrics are counters fixed by protocol behaviour and the seeded workloads.
The timings that are gated are within-run ratios, which a slow runner
scales on both sides.
The relative tolerance (default 25%) plus a small absolute slack absorbs
merge-window jitter in the asyncio rows; sim rows are deterministic.

Sections present in the fresh report but absent from the baseline are
skipped with a note (a new bench should not fail the gate before its
baseline lands); the reverse -- a baseline section missing from the fresh
report -- fails, because losing a bench silently is itself a regression.

Usage::

    PYTHONPATH=src python benchmarks/check_perf_gate.py BENCH_kv.json \
        [--baseline benchmarks/baselines/BENCH_kv.json] [--tolerance 0.25]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, List

LOWER_IS_BETTER = (
    "frames_per_op",
    "replica_frames_per_op",
    "replica_sub_ops_per_op",
    "read_subs_per_op",
)
HIGHER_IS_BETTER = (
    "read_subs_ratio",
    "cache_hit_rate",
)
#: Deterministic counts: any difference from the baseline is a violation.
EXACT = ("trace_events_built", "wire_bytes_per_frame")
#: Within-run ratios held under a fixed ceiling.  Observer: 1.8-1.9 measured
#: with the routed emit, 8.1-8.7 with a TraceEvent built per emit
#: (docs/pr13-measurements.md).  Codec: 1.70-1.96 measured with rows built
#: straight from the records, 2.52-2.56 with a dict per record built in
#: between on both sides (docs/pr15-measurements.md).
CEILINGS = {
    "observer_on_off_ratio": 4.0,
    "frame_round_trip_over_json_floor": 2.2,
}
#: Absolute slack added on top of the relative tolerance, so near-zero
#: baselines (e.g. 1.1 sub-ops/op) don't turn float jitter into failures.
ABS_SLACK = 0.25

DEFAULT_BASELINE = Path(__file__).resolve().parent / "baselines" / "BENCH_kv.json"


def compare(base: Any, fresh: Any, path: str, tolerance: float,
            violations: List[str], notes: List[str]) -> None:
    """Walk baseline and fresh trees together, checking gated metrics."""
    if isinstance(base, dict):
        if not isinstance(fresh, dict):
            violations.append(f"{path}: baseline has an object, fresh has "
                              f"{type(fresh).__name__}")
            return
        for key, base_value in base.items():
            here = f"{path}.{key}" if path else key
            if key not in fresh:
                violations.append(f"{here}: present in baseline, missing "
                                  f"from fresh report")
                continue
            fresh_value = fresh[key]
            if key == "atomic":
                if bool(base_value) and not bool(fresh_value):
                    violations.append(f"{here}: atomic regressed to false")
            elif key in EXACT:
                if fresh_value != base_value:
                    violations.append(
                        f"{here}: {fresh_value} differs from baseline {base_value}"
                    )
            elif key in CEILINGS:
                if fresh_value > CEILINGS[key]:
                    violations.append(
                        f"{here}: {fresh_value} exceeds the ceiling {CEILINGS[key]}"
                    )
            elif key in LOWER_IS_BETTER and isinstance(base_value, (int, float)):
                limit = base_value * (1 + tolerance) + ABS_SLACK
                if fresh_value > limit:
                    violations.append(
                        f"{here}: {fresh_value} exceeds baseline "
                        f"{base_value} by more than {tolerance:.0%} (+{ABS_SLACK})"
                    )
            elif key in HIGHER_IS_BETTER and isinstance(base_value, (int, float)):
                floor = base_value * (1 - tolerance) - ABS_SLACK
                if fresh_value < floor:
                    violations.append(
                        f"{here}: {fresh_value} falls short of baseline "
                        f"{base_value} by more than {tolerance:.0%} (-{ABS_SLACK})"
                    )
            else:
                compare(base_value, fresh_value, here, tolerance,
                        violations, notes)
        for key in fresh:
            if key not in base and not path:
                notes.append(f"section {key!r} has no baseline yet; skipped")
    elif isinstance(base, list):
        if not isinstance(fresh, list):
            violations.append(f"{path}: baseline has a list, fresh has "
                              f"{type(fresh).__name__}")
            return
        if len(base) != len(fresh):
            notes.append(f"{path}: row count changed "
                         f"({len(base)} -> {len(fresh)}); comparing the "
                         f"shared prefix")
        for index, (base_item, fresh_item) in enumerate(zip(base, fresh)):
            compare(base_item, fresh_item, f"{path}[{index}]", tolerance,
                    violations, notes)
    # Scalars outside the gated keys (labels, counts, timings): not gated.


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", help="freshly generated BENCH_kv.json")
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE),
                        help="checked-in baseline (default: %(default)s)")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="relative tolerance (default: %(default)s)")
    args = parser.parse_args(argv)

    base = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
    fresh = json.loads(Path(args.fresh).read_text(encoding="utf-8"))

    violations: List[str] = []
    notes: List[str] = []
    compare(base, fresh, "", args.tolerance, violations, notes)

    for note in notes:
        print(f"note: {note}")
    if violations:
        print(f"\nPERF GATE FAILED ({len(violations)} violation(s), "
              f"tolerance {args.tolerance:.0%}):")
        for violation in violations:
            print(f"  - {violation}")
        return 1
    print(f"perf gate passed: {args.fresh} within {args.tolerance:.0%} "
          f"of {args.baseline}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
