"""A jittered simulated run is a function of its inputs, not of its process.

Python salts ``str`` hashing per process (``PYTHONHASHSEED``), so a set of
process ids iterates in a different order in every interpreter.  A replica
that chased its lease holders in set order sent its ``lease-invalidate``
frames in that order, and under jittered delays the order reached the run:
the cached recipe below ended at virtual time 208.99 under
``PYTHONHASHSEED=1`` and at 212.64 under 0.  The run is made twice here, in
two fresh interpreters under different hash seeds, and everything its
result reports must agree.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: The jittered cached recipe at seed 0; prints one digest of its result.
RECIPE = """
import hashlib, json
from repro.kvstore import KVRunConfig, generate_workload, run
from repro.sim.delays import UniformDelay

ops = generate_workload(
    num_clients=4, ops_per_client=40, num_keys=6,
    read_fraction=0.6, key_skew=1.2, seed=0,
)
result = run(KVRunConfig(
    backend="sim", num_shards=2, num_groups=2, proxies=2, read_cache=64,
    delay_model=UniformDelay(0.2, 3.0, seed=0),
), ops)
assert result.check().all_atomic
digest = json.dumps({
    "duration": result.duration,
    "elapsed": result.elapsed,
    "messages": result.messages_sent,
    "replica": [result.replica_frames, result.replica_sub_ops],
    "latencies": [result.read_latencies, result.write_latencies],
    "batching": [result.batch_stats.as_dict(), result.proxy_stats.as_dict()],
    "cache": result.cache,
    "metrics": result.metrics,
    "histories": {
        key: [repr(op) for op in history.operations]
        for key, history in sorted(result.histories.items())
    },
}, sort_keys=True, default=repr)
print(hashlib.sha256(digest.encode()).hexdigest())
"""


def _digest(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", RECIPE], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    return done.stdout.strip()


def test_the_jittered_cached_recipe_digests_alike_under_two_hash_seeds():
    first, second = _digest("0"), _digest("1")
    assert len(first) == 64
    assert first == second
