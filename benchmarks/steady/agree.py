"""Do two sets of runs of the same code agree within the benchmark's own bounds?

    python3 benchmarks/steady/agree.py [--seed N] [--write]

Runs every workload ``RUNS`` times with seeds ``N .. N+RUNS-1`` (set A), then
the same again (set B), and prints each end-to-end metric x workload with both
sets' medians, their relative difference and the metric's bound -- the
comparison the driver makes, on fewer runs.  Exits non-zero when a difference
exceeds its bound or a run is incorrect.  ``--write`` stores the comparison
as ``results/agree.json`` (``agree_seed<N>.json`` for another seed) and set A
as ``results/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List

import run  # puts src/ and this directory on sys.path
import spec

RESULTS = run.HERE / "results"
#: Runs per set; the committed results use this and ``spec.RUN_SECONDS``.
RUNS = 3

Metrics = Dict[str, Dict[str, float]]  # workload -> metric -> value


def one_set(label: str, seed: int) -> List[Dict[str, Dict]]:
    return [
        run.run_all(seed + i, spec.RUN_SECONDS, False, run.HERE / "out" / f"agree_{label}{i}")
        for i in range(RUNS)
    ]


def medians(results: List[Dict[str, Dict]]) -> Metrics:
    return {
        workload.name: {
            metric: statistics.median(r[workload.name]["metrics"][metric] for r in results)
            for metric in spec.END_TO_END
        }
        for workload in spec.WORKLOADS
    }


def compare(first: Metrics, second: Metrics) -> List[Dict]:
    rows = []
    for workload in spec.WORKLOADS:
        for metric, entry in spec.END_TO_END.items():
            a, b = first[workload.name][metric], second[workload.name][metric]
            difference = abs(b - a) / a
            rows.append({
                "workload": workload.name, "metric": metric, "unit": entry["unit"],
                "a": a, "b": b, "difference": difference, "bound": entry["bound"],
                "within": difference <= entry["bound"],
            })
    return rows


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED,
                        help=f"default {spec.DEFAULT_SEED}; {spec.HELD_OUT_SEED} is held out")
    parser.add_argument("--write", action="store_true", help="store under results/")
    args = parser.parse_args(argv)

    sets = [one_set(label, args.seed) for label in ("a", "b")]
    first, second = (medians(results) for results in sets)
    rows = compare(first, second)
    correct = all(
        result["correct"] for results in sets for by_name in results for result in by_name.values()
    )
    print(f"{'workload':<20}{'metric':<22}{'A':>12}{'B':>12}  unit   diff   bound")
    for row in rows:
        print(f"{row['workload']:<20}{row['metric']:<22}{row['a']:>12.4f}{row['b']:>12.4f}  "
              f"{row['unit']:<5}{row['difference']:>6.1%} {row['bound']:>6.0%}"
              f"{'' if row['within'] else '  BEYOND BOUND'}")
    beyond = [row for row in rows if not row["within"]]
    print(f"agree: {len(rows) - len(beyond)}/{len(rows)} within bounds, "
          f"{'all correct' if correct else 'INCORRECT RUNS'} "
          f"(medians of {RUNS} runs, seeds {args.seed}..{args.seed + RUNS - 1})")
    if args.write:
        RESULTS.mkdir(exist_ok=True)
        suffix = "" if args.seed == spec.DEFAULT_SEED else f"_seed{args.seed}"
        shape = {"seed": args.seed, "runs": RUNS, "seconds": spec.RUN_SECONDS}
        (RESULTS / f"agree{suffix}.json").write_text(
            json.dumps({**shape, "rows": rows}, indent=1) + "\n"
        )
        if not suffix:
            (RESULTS / "baseline.json").write_text(
                json.dumps({**shape, "medians": first}, indent=1) + "\n"
            )
    return 0 if correct and not beyond else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
