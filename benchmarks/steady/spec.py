"""The benchmark's fixed definitions: run shape, workloads and metrics.

``BENCHMARK.json`` at the repo root is the one description of the names,
units, directions, bounds, whys and run length; this module loads it.  What
that file cannot hold (its keys are fixed by the driver) lives only here:
each workload's parameters and, for every per-layer metric, the end-to-end
metric and workload it is expected to move (``MOVES``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple

DESCRIBED = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
#: workload name -> the one sentence saying why it is there.
WHY: Dict[str, str] = {w["name"]: w["why"] for w in DESCRIBED["workloads"]}
#: metric name -> its BENCHMARK.json entry (``unit``, ``better`` and, end to end, ``bound``).
END_TO_END: Dict[str, Dict] = {m["name"]: m for m in DESCRIBED["end_to_end"]}
PER_LAYER: Dict[str, Dict] = {m["name"]: m for m in DESCRIBED["per_layer"]}

# -- run shape (all workloads) -------------------------------------------------

NUM_SHARDS = 4
NUM_GROUPS = 2
PROTOCOL = "abd-mwmr"
MAX_BATCH = 8
#: The simulator's lease duration in virtual time units (ISSUE 11).
SIM_LEASE_TTL = 480.0

DEFAULT_SEED = 11
HELD_OUT_SEED = 23
#: How long one run measures; every committed result uses this length.
RUN_SECONDS: int = DESCRIBED["run_seconds"]
#: A run never reports from fewer measured rounds than this.
MIN_ROUNDS = 5
OP_TIMEOUT_S = 10.0


@dataclass(frozen=True)
class Workload:
    """One traffic mix.  ``backend`` is ``"asyncio"`` or ``"sim"``."""

    name: str
    no_move: str  # layers a change to which predicts no move here
    backend: str
    clients: int
    depth: int
    use_proxy: bool
    read_cache: int
    num_keys: int
    key_skew: float
    read_fraction: float
    ops_per_client: int  # per round


WORKLOADS: Tuple[Workload, ...] = (
    Workload("direct_uniform", "proxy_engine, cache, sim_backend",
             "asyncio", 8, 4, False, 0, 64, 0.0, 0.9, 100),
    Workload("proxied_zipf", "cache, sim_backend",
             "asyncio", 8, 4, True, 0, 64, 1.2, 0.9, 100),
    Workload("cached_zipf", "sim_backend",
             "asyncio", 8, 4, True, 64, 64, 1.2, 0.9, 100),
    Workload("cached_write_heavy", "sim_backend",
             "asyncio", 8, 4, True, 64, 16, 1.2, 0.5, 100),
    Workload("serial_direct", "proxy_engine, cache, sim_backend, batching and merge changes",
             "asyncio", 1, 1, False, 0, 64, 0.0, 0.5, 600),
    Workload("sim_cached_zipf", "codec, net_backend",
             "sim", 8, 4, True, 64, 64, 1.2, 0.9, 200),
)

WORKLOAD_BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}

# -- what each per-layer metric should move ---------------------------------------
#
# per-layer metric -> (the end-to-end metric it should move, on which workload).

_CODEC_KINDS = ("batch", "batch-ack", "proxy", "proxy-ack", "lease")

MOVES: Dict[str, Tuple[str, str]] = {
    "codec.encode_us_per_frame": ("norm_cpu_us_per_op", "direct_uniform"),
    "codec.decode_us_per_frame": ("norm_cpu_us_per_op", "direct_uniform"),
    **{
        f"codec.{side}_us_per_frame.{kind}": ("norm_cpu_us_per_op", workload)
        for kind, workload in zip(
            _CODEC_KINDS,
            ("direct_uniform", "direct_uniform", "proxied_zipf", "proxied_zipf",
             "cached_write_heavy"),
        )
        for side in ("encode", "decode")
    },
    "codec.bytes_per_op": ("norm_ops_per_s", "direct_uniform"),
    "codec.frames_per_op": ("norm_ops_per_s", "direct_uniform"),
    "codec.us_per_op": ("norm_cpu_us_per_op", "direct_uniform"),
    "client_engine.us_per_op": ("norm_cpu_us_per_op", "direct_uniform"),
    "client_engine.calls_per_op": ("norm_cpu_us_per_op", "direct_uniform"),
    "client_engine.mean_batch": ("norm_ops_per_s", "direct_uniform"),
    "client_engine.round_trips_per_read": ("norm_read_p50_ms", "serial_direct"),
    "client_engine.round_trips_per_write": ("norm_write_p50_ms", "serial_direct"),
    "client_engine.replays_per_op": ("norm_ops_per_s", "direct_uniform"),
    "proxy_engine.us_per_op": ("norm_ops_per_s", "proxied_zipf"),
    "proxy_engine.calls_per_op": ("norm_ops_per_s", "proxied_zipf"),
    "proxy_engine.merge_factor": ("norm_ops_per_s", "proxied_zipf"),
    "proxy_engine.read_subs_per_op": ("norm_ops_per_s", "cached_zipf"),
    "cache.hit_ratio": ("norm_read_p50_ms", "cached_zipf"),
    "cache.lease_frames_per_op": ("norm_write_p50_ms", "cached_write_heavy"),
    "cache.invalidations_per_write": ("norm_write_p50_ms", "cached_write_heavy"),
    "cache.write_deferrals_per_write": ("norm_write_p99_ms", "cached_write_heavy"),
    "cache.lease_expiries_per_op": ("norm_write_p99_ms", "cached_write_heavy"),
    "server_engine.us_per_op": ("norm_cpu_us_per_op", "direct_uniform"),
    "server_engine.us_per_sub_op": ("norm_cpu_us_per_op", "direct_uniform"),
    "server_engine.sub_ops_per_op": ("norm_cpu_us_per_op", "cached_zipf"),
    "server_engine.frames_per_op": ("norm_ops_per_s", "direct_uniform"),
    "server_engine.stale_bounces_per_op": ("norm_ops_per_s", "direct_uniform"),
    "observe.emits_per_op": ("norm_cpu_us_per_op", "direct_uniform"),
    "observe.us_per_emit": ("norm_cpu_us_per_op", "direct_uniform"),
    "observe.us_per_op": ("norm_cpu_us_per_op", "direct_uniform"),
    "net_backend.residual_us_per_op": ("norm_ops_per_s", "direct_uniform"),
    "net_backend.echo_floor_us_per_frame": ("norm_read_p50_ms", "serial_direct"),
    "net_backend.wire_frames_per_op": ("norm_ops_per_s", "direct_uniform"),
    "sim_backend.wall_us_per_op": ("norm_ops_per_s", "sim_cached_zipf"),
    "sim_backend.frames_per_op": ("norm_ops_per_s", "sim_cached_zipf"),
    "sim_backend.read_p50_vt": ("norm_read_p50_ms", "sim_cached_zipf"),
    "sim_backend.read_p99_vt": ("norm_read_p99_ms", "sim_cached_zipf"),
    "sim_backend.write_p50_vt": ("norm_write_p50_ms", "sim_cached_zipf"),
    "sim_backend.write_p99_vt": ("norm_write_p99_ms", "sim_cached_zipf"),
    # The check runs after timing and moves no end-to-end metric; these bound
    # the run's own cost, which the driver's time cap makes a set-up concern.
    "perkey.check_s": ("setup_s", "cached_write_heavy"),
    "perkey.ops_checked": ("setup_s", "cached_write_heavy"),
    "perkey.max_writes_per_key": ("setup_s", "cached_write_heavy"),
    "harness.traced_cpu_us_per_op": ("norm_cpu_us_per_op", "direct_uniform"),
    "harness.ref_loop_s": ("norm_ops_per_s", "direct_uniform"),
    "harness.ref_loop_spread": ("norm_ops_per_s", "direct_uniform"),
    "harness.rounds_discarded": ("norm_ops_per_s", "direct_uniform"),
    "harness.raw_ops_per_s": ("norm_ops_per_s", "direct_uniform"),
    "harness.trace_overhead_ratio": ("norm_cpu_us_per_op", "direct_uniform"),
    # What the allocator pin hides (README, "Allocator"): both from rounds run before it.
    "harness.unpinned_cpu_ratio": ("norm_cpu_us_per_op", "serial_direct"),
    "harness.minor_faults_per_op": ("norm_cpu_us_per_op", "serial_direct"),
}
