"""A jittered simulated run is a function of its inputs, not of its process.

Python salts ``str`` hashing per process (``PYTHONHASHSEED``), so a set of
process ids iterates in a different order in every interpreter.  A replica
that chased its lease holders in set order sent its ``lease-invalidate``
frames in that order, and under jittered delays the order reached the run:
the cached recipe below ended at virtual time 208.99 under
``PYTHONHASHSEED=1`` and at 212.64 under 0.  The simulator also groups its
clients into one link per site; the two-site geo recipe pins that the
grouping, the link ids and what they carry never follow hash order either.
Each recipe is run twice here, in two fresh interpreters under different hash
seeds, and everything its result reports must agree.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: The jittered cached recipe at seed 0.
CACHED = """
from repro.sim.delays import UniformDelay

config = KVRunConfig(
    backend="sim", num_shards=2, num_groups=2, proxies=2, read_cache=64,
    delay_model=UniformDelay(0.2, 3.0, seed=0),
)
"""

#: The same workload with its clients and the proxies on two sites.
TWO_SITES = """
from repro.kvstore import ShardMap, SimKVCluster
from repro.sim.delays import GeoDelay

shard_map = ShardMap(2, num_groups=2, readers=4, writers=4)
nodes = [*shard_map.all_servers, "p1", "p2", *ops.clients]
sites = {node: ("east", "west")[index % 2] for index, node in enumerate(nodes)}
config = KVRunConfig(
    backend="sim", shard_map=shard_map, proxies=2, read_cache=64,
    delay_model=GeoDelay(sites, local_delay=0.5, wan_delay=8.0, seed=0),
)
cluster = SimKVCluster(shard_map, ops.clients, config)
extra["links"] = {
    link_id: [session.client_id for session in link.sessions]
    for link_id, link in cluster.links.items()
}
assert len(extra["links"]) == 2
"""

#: Runs a recipe at seed 0 and prints one digest of its result.
RUN = """
import hashlib, json
from repro.kvstore import KVRunConfig, generate_workload, run

ops = generate_workload(
    num_clients=4, ops_per_client=40, num_keys=6,
    read_fraction=0.6, key_skew=1.2, seed=0,
)
extra = {}
%s
result = run(config, ops)
assert result.check().all_atomic
digest = json.dumps({
    "extra": extra,
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


def _digest(recipe: str, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", RUN % recipe], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    return done.stdout.strip()


def _alike(recipe: str) -> None:
    first, second = _digest(recipe, "0"), _digest(recipe, "1")
    assert len(first) == 64
    assert first == second


def test_the_jittered_cached_recipe_digests_alike_under_two_hash_seeds():
    _alike(CACHED)


def test_the_two_site_recipe_digests_alike_under_two_hash_seeds():
    _alike(TWO_SITES)
