"""Steady-state KV benchmark: one command, every metric by name.

    python3 benchmarks/steady/run.py                       # all six workloads
    python3 benchmarks/steady/run.py --workload cached_zipf --seed 23
    python3 benchmarks/steady/run.py --workload serial_direct --trace 1

Without ``--workload`` each workload runs in a fresh subprocess of this same
script.  With it, the run happens in this process and the last line of
standard output is the result object the driver reads (``BENCHMARK.json``).
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"steady: no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import check_schema  # noqa: E402
import harness  # noqa: E402
import spec  # noqa: E402


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool, out: Path
) -> Dict:
    """Run one workload in this process and return its result object."""
    workload = spec.WORKLOAD_BY_NAME[name]
    if trace:
        import layers  # the traced run pulls in the fabric and the tracer

        traced = layers.traced_sim if workload.backend == "sim" else layers.traced_asyncio
        result = asyncio.run(traced(workload, seed, seconds, smoke, out))
    else:
        timed = harness.timed_sim if workload.backend == "sim" else harness.timed_asyncio
        result = asyncio.run(timed(workload, seed, seconds, smoke))
    result.update(workload=name, seed=seed, seconds=seconds, trace=trace)
    return result


def units(trace: bool) -> Dict[str, str]:
    table = spec.PER_LAYER if trace else spec.END_TO_END
    return {name: entry["unit"] for name, entry in table.items()}


def print_result(result: Dict) -> None:
    """Every metric by name with its unit; raw companions beside them."""
    unit = units(result["trace"])
    workload = spec.WORKLOAD_BY_NAME[result["workload"]]
    print(f"== {workload.name} (seed {result['seed']}, "
          f"{'traced' if result['trace'] else 'timed'})")
    print(f"  why: {spec.WHY[workload.name]}")
    print(f"  a change to these predicts no move here: {workload.no_move}")
    for name, value in result["metrics"].items():
        print(f"  {name:<40} {value:>14.4f} {unit[name]}")
    for name, value in result.get("raw", {}).items():
        print(f"  ({name:<38} {value:>14.4f})")
    for line in result.get("budget", []):
        print(f"  {line}")
    print(f"  failed_op_ratio {result['failed_op_ratio']:.6f} "
          f"({result['failed']}/{result['attempted']}), "
          f"perkey check {result['perkey']['check_s']:.2f} s over "
          f"{result['perkey']['ops_checked']} ops, "
          f"rounds discarded {result.get('rounds_discarded', 0)}")
    if result["non_atomic_keys"]:
        print(f"  NOT ATOMIC on keys: {', '.join(result['non_atomic_keys'][:8])}")


def driver_line(result: Dict) -> str:
    """The one-line object the driver reads: exactly four keys."""
    unit = units(result["trace"])
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit[name]}
            for name, value in result["metrics"].items()
        },
    })


def run_all(seed: int, seconds: float, trace: bool, out: Path) -> Dict[str, Dict]:
    """Every workload, each in a fresh subprocess; returns name -> result."""
    results: Dict[str, Dict] = {}
    for workload in spec.WORKLOADS:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", workload.name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
            "--out", str(out),
        ]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = done.stdout.rstrip().splitlines()
        print("\n".join(lines[:-1]), flush=True)  # the last line is the driver's
        written = out / f"{workload.name}.json"
        if not lines or not written.exists():
            raise SystemExit(f"steady: {workload.name} exited {done.returncode} with no result")
        results[workload.name] = json.loads(written.read_text())
    return results


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOAD_BY_NAME))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED,
                        help=f"default {spec.DEFAULT_SEED}; {spec.HELD_OUT_SEED} is held out")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="the driver passes BENCHMARK.json's run_seconds, the default; "
                             "results at another length do not compare with the committed ones")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the separate traced run, which reports the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="1 round x 40 ops per workload, in this process")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for result and trace files")
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    out = args.out.resolve()
    check_schema.check_benchmark_json()
    if not trace:
        harness.pin_allocator()  # the traced run measures unpinned rounds first
    if args.smoke:
        harness.REF_SAMPLE_ITERS = harness.SMOKE_REF_SAMPLE_ITERS
    out.mkdir(parents=True, exist_ok=True)

    if args.workload is None and not args.smoke:
        results = run_all(args.seed, args.seconds, trace, out)
    else:
        names = [args.workload] if args.workload else [w.name for w in spec.WORKLOADS]
        results = {}
        for name in names:
            result = run_workload(name, args.seed, args.seconds, trace, args.smoke, out)
            check_schema.check_result(result)
            (out / f"{name}.json").write_text(json.dumps(result, indent=1))
            print_result(result)
            results[name] = result
    correct = all(result["correct"] for result in results.values())
    if args.workload is None:
        (out / "steady.json").write_text(json.dumps(results, indent=1))
        print(f"steady: {len(results)} workloads, "
              f"{'all correct' if correct else 'INCORRECT'}; wrote {out / 'steady.json'}")
    else:
        print(driver_line(results[args.workload]))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
