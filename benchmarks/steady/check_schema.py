"""Shape checks for ``BENCHMARK.json`` and for a run's own result.

``run.py`` calls both on every run; ``python3 check_schema.py`` checks the
repo's ``BENCHMARK.json`` (and any result files named after it) by hand.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path
from typing import Dict, List

import spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: The driver refuses a larger bound.
MAX_BOUND = 0.25


class SchemaError(ValueError):
    """A benchmark description or result that breaks the contract."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def _check_metric(entry: Dict, keys: set) -> None:
    _require(set(entry) == keys, f"metric {entry!r} must have exactly the keys {sorted(keys)}")
    _require(bool(NAME.match(entry["name"])), f"bad metric name {entry['name']!r}")
    _require(bool(UNIT.match(entry["unit"])), f"bad unit {entry['unit']!r} on {entry['name']}")
    _require(entry["better"] in ("lower", "higher"), f"bad direction on {entry['name']}")


def check_benchmark_json() -> None:
    """``BENCHMARK.json`` (as ``spec`` loaded it) has the shape the driver accepts.

    The names, units, bounds and whys live only in that file; what is checked
    against ``spec.py`` is what the file cannot hold: every workload it names
    has parameters, and every per-layer metric names the end-to-end metric
    and workload it should move.
    """
    described = spec.DESCRIBED
    _require(
        set(described)
        == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        "BENCHMARK.json has the wrong top-level keys",
    )
    seconds = described["run_seconds"]
    _require(isinstance(seconds, int) and 1 <= seconds <= 60, "run_seconds out of range")

    names: List[str] = []
    for workload in described["workloads"]:
        _require(set(workload) == {"name", "why"}, f"workload {workload!r} needs name and why")
        _require(bool(NAME.match(workload["name"])), f"bad workload name {workload['name']!r}")
        why = workload["why"]
        _require(
            0 < len(why) <= 200 and "\n" not in why and why.rstrip().endswith("."),
            f"{workload['name']}: why must be one sentence of at most 200 characters",
        )
        names.append(workload["name"])
    _require(
        names == [w.name for w in spec.WORKLOADS],
        "BENCHMARK.json and spec.WORKLOADS name different workloads",
    )

    for entry in described["end_to_end"]:
        _check_metric(entry, {"name", "unit", "better", "bound"})
        bound = entry["bound"]
        _require(
            isinstance(bound, float) and 0 < bound <= MAX_BOUND,
            f"{entry['name']}: bound must be in (0, {MAX_BOUND}]",
        )
        names.append(entry["name"])
    for entry in described["per_layer"]:
        _check_metric(entry, {"name", "unit", "better"})
        names.append(entry["name"])
    _require(len(names) == len(set(names)), "a name is used more than once")

    _require(
        set(spec.MOVES) == set(spec.PER_LAYER),
        f"spec.MOVES and BENCHMARK.json per_layer differ: "
        f"{sorted(set(spec.MOVES) ^ set(spec.PER_LAYER))}",
    )
    for name, (moves, workload) in spec.MOVES.items():
        _require(moves in spec.END_TO_END, f"{name} moves unknown metric {moves!r}")
        _require(workload in spec.WORKLOAD_BY_NAME, f"{name} names unknown workload {workload!r}")


def check_result(result: Dict) -> None:
    """A run reports exactly the metrics of its mode, all finite numbers."""
    expected = spec.PER_LAYER if result["trace"] else spec.END_TO_END
    _require(result["workload"] in spec.WORKLOAD_BY_NAME, "unknown workload in result")
    _require(
        set(result["metrics"]) == set(expected),
        f"{result['workload']}: metrics differ from the spec: "
        f"{sorted(set(result['metrics']) ^ set(expected))}",
    )
    for name, value in result["metrics"].items():
        _require(
            isinstance(value, (int, float)) and math.isfinite(value),
            f"{result['workload']}: {name} is not a finite number",
        )
    _require(
        isinstance(result["attempted"], int) and result["attempted"] >= 1
        and isinstance(result["failed"], int),
        "attempted/failed must be whole numbers, attempted at least 1",
    )


def main(argv: List[str]) -> int:
    try:
        check_benchmark_json()
        for path in argv:
            loaded = json.loads(Path(path).read_text())
            for result in loaded.values() if "metrics" not in loaded else [loaded]:
                check_result(result)
    except SchemaError as exc:
        print(f"schema: {exc}", file=sys.stderr)
        return 1
    print(f"schema: BENCHMARK.json and {len(argv)} result file(s) ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
