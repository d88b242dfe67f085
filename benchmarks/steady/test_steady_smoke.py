"""Smoke test of the steady-state benchmark (tier-1, a few seconds).

``run.py --smoke`` runs one round of 40 ops per workload in one process.
The test checks names and shapes, never speeds: every workload and metric
``BENCHMARK.json`` promises is emitted, results pass ``check_schema``, span
self times are sane, and the simulator workload repeats exactly.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DESCRIBED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in DESCRIBED["workloads"]}


def smoke(out: Path, *extra: str) -> None:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out), *extra],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def check_schema(*paths: Path) -> None:
    done = subprocess.run(
        [sys.executable, str(HERE / "check_schema.py"), *map(str, paths)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_timed_smoke_emits_every_end_to_end_metric(tmp_path):
    smoke(tmp_path)
    results = json.loads((tmp_path / "steady.json").read_text())
    assert set(results) == WORKLOADS
    names = {metric["name"] for metric in DESCRIBED["end_to_end"]}
    for name, result in results.items():
        assert set(result["metrics"]) == names, name
        assert result["correct"] and result["failed"] == 0, name
        assert all(value > 0 for value in result["metrics"].values()), name
    check_schema(tmp_path / "steady.json")


def test_traced_smoke_emits_every_per_layer_metric_and_sane_spans(tmp_path):
    smoke(tmp_path, "--trace", "1")
    results = json.loads((tmp_path / "steady.json").read_text())
    assert set(results) == WORKLOADS
    names = {metric["name"] for metric in DESCRIBED["per_layer"]}
    for name, result in results.items():
        assert set(result["metrics"]) == names, name
        assert result["correct"], name
        trace = json.loads((tmp_path / f"trace_{name}.json").read_text())
        spans = trace["round"]["spans"]
        assert spans, name
        for span in spans + trace["fabric"]["spans"]:
            assert set(span) == {"name", "layer", "start", "end", "parent", "op_id", "self"}
            assert span["self"] >= 0.0, (name, span)
        # Root spans ("op") overlap one another while they wait; everything
        # else is synchronous work on one thread, so it fits in the round.
        busy = sum(span["self"] for span in spans if span["layer"] != "op")
        assert busy <= trace["round"]["wall_s"], name
        if name != "sim_cached_zipf":
            metrics = result["metrics"]
            layers = sum(metrics[f"{layer}.us_per_op"]
                         for layer in ("client_engine", "proxy_engine", "server_engine", "codec"))
            total = layers + metrics["net_backend.residual_us_per_op"]
            assert abs(total - metrics["harness.traced_cpu_us_per_op"]) < 1e-6 * total, name
    check_schema(tmp_path / "steady.json")


def test_simulator_workload_repeats_exactly(tmp_path):
    runs = []
    for attempt in ("a", "b"):
        out = tmp_path / attempt
        smoke(out, "--trace", "1", "--workload", "sim_cached_zipf")
        runs.append(json.loads((out / "sim_cached_zipf.json").read_text()))
    first, second = runs
    assert first["sim_counters"] == second["sim_counters"]
    exact = [name for name, metric in first["metrics"].items()
             if name.endswith("_vt") or name.split(".")[0] in ("cache", "server_engine")]
    assert exact
    for name in exact:
        assert first["metrics"][name] == second["metrics"][name], name
