"""``KVRunConfig`` + ``run(config, workload)``: one run's settings as data.

Every field is honoured by the backends its row below names and refused by
the other, and a setting the run would ignore is refused at construction --
so no backend can silently drop a setting.
"""

from __future__ import annotations

import inspect
import re
from dataclasses import fields

import pytest

from repro.kvstore import (
    AsyncKVCluster,
    BroadcastReads,
    KVFailureInjector,
    KVRunConfig,
    RetryPolicy,
    generate_workload,
    run,
)
from repro.kvstore import net_backend, sim_backend, workload as workload_module
from repro.kvstore.workload import BACKEND_DEFAULTS, BACKEND_ONLY
from repro.sim.delays import ConstantDelay

BOTH = ("sim", "asyncio")

#: One row per field: the backends that honour it, and for a field only one
#: backend has, a value to set it to (with the settings it needs).
FIELDS = {
    "backend": BOTH,
    "num_shards": BOTH,
    "num_groups": BOTH,
    "protocol_key": BOTH,
    "servers_per_shard": BOTH,
    "max_faults": BOTH,
    "shard_map": BOTH,
    "max_batch": BOTH,
    "service_overhead": BOTH,
    "service_per_op": BOTH,
    "delay_model": ("sim", dict(delay_model=ConstantDelay(1.0))),
    "retry_policy": ("asyncio", dict(retry_policy=RetryPolicy())),
    "trace_collector": BOTH,
    "proxies": BOTH,
    "read_policy": BOTH,
    "proxy_flush_delay": ("sim", dict(proxies=1, proxy_flush_delay=0.25)),
    "push_views": BOTH,
    "read_cache": BOTH,
    "lease_ttl": BOTH,
    "bounded_staleness": BOTH,
    "resize_to": BOTH,
    "resize_after_ops": BOTH,
    "move_to": ("sim", dict(move_to=("s1", "g2"))),
    "kill_proxy_after_ops": BOTH,
    "crashes_per_group": BOTH,
    "crash_horizon": ("sim", dict(crashes_per_group=1, crash_horizon=5.0)),
    "crash_seed": BOTH,
    "autoscale": BOTH,
    "autoscale_interval": BOTH,
    "drain_range_size": BOTH,
}

#: What each backend's run reads the config through: its body plus the
#: skeleton both share.
READERS = {
    "sim": [sim_backend._run_sim],
    "asyncio": [net_backend._run_asyncio],
}
SHARED = [
    workload_module.KVRunConfig.cluster_map,
    workload_module.arm_triggers,
    workload_module.fold_run_result,
]


class TestFieldCoverage:
    def test_every_field_has_a_row(self):
        assert set(FIELDS) == {field.name for field in fields(KVRunConfig)}
        assert len(FIELDS) <= 30

    def test_backend_only_rows_match_the_config(self):
        assert BACKEND_ONLY == {
            name: row[0] for name, row in FIELDS.items() if row != BOTH
        }

    @pytest.mark.parametrize(
        "name", [name for name, row in FIELDS.items() if row != BOTH]
    )
    def test_a_backend_only_field_is_refused_on_the_other(self, name):
        backend, settings = FIELDS[name]
        (other,) = set(BOTH) - {backend}
        KVRunConfig(backend=backend, **settings)
        with pytest.raises(ValueError, match=f"{name} is a {backend}-only setting"):
            KVRunConfig(backend=other, **settings)

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_each_honouring_backend_reads_the_field(self, name):
        backends = FIELDS[name] if FIELDS[name] == BOTH else (FIELDS[name][0],)
        shared = "".join(inspect.getsource(reader) for reader in SHARED)
        for backend in backends:
            source = shared + "".join(
                inspect.getsource(reader) for reader in READERS[backend]
            )
            read = rf'\b(config|self)\.{name}\b|setting\("{name}"\)'
            assert re.search(read, source), f"{backend} never reads {name}"

    def test_none_takes_the_backends_default(self):
        for backend, defaults in BACKEND_DEFAULTS.items():
            config = KVRunConfig(backend=backend)
            for name, default in defaults.items():
                assert config.setting(name) == default
        assert KVRunConfig(service_overhead=0.5).setting("service_overhead") == 0.5


#: Settings a run would silently ignore, one row each.
REFUSED = [
    (dict(backend="carrier-pigeon"), "backend must be"),
    (dict(proxies=-1), "proxies cannot be negative"),
    (dict(read_cache=64), "read_cache requires proxies"),
    (dict(resize_after_ops=5), "resize_after_ops requires resize_to"),
    (dict(resize_to=6, move_to=("s1", "g2")), "give one"),
    (dict(kill_proxy_after_ops=5), "kill_proxy_after_ops requires proxies"),
    (dict(read_policy=BroadcastReads()), "require proxies"),
    (dict(proxy_flush_delay=0.25), "require proxies"),
    (dict(proxies=1, lease_ttl=5.0), "require read_cache"),
    (dict(proxies=1, bounded_staleness=True), "require read_cache"),
    (dict(crash_horizon=5.0), "crash_horizon requires crashes_per_group"),
    (dict(autoscale_interval=5.0), "autoscale_interval requires autoscale"),
]


@pytest.mark.parametrize(
    "settings,why", REFUSED, ids=[why for _, why in REFUSED]
)
def test_a_setting_the_run_would_ignore_is_refused(settings, why):
    with pytest.raises(ValueError, match=why):
        KVRunConfig(**settings)


def test_cache_is_reported_only_when_a_proxy_had_one():
    workload = generate_workload(num_clients=2, ops_per_client=8, num_keys=6, seed=2)
    uncached = run(KVRunConfig(proxies=1), workload)
    cached = run(KVRunConfig(proxies=1, read_cache=8), workload)
    assert uncached.cache is None
    assert cached.cache is not None and cached.cache["hits"] + cached.cache["misses"] > 0


def test_one_seed_crashes_the_same_replicas_on_both_backends(monkeypatch):
    crashed = {"sim": [], "asyncio": []}
    schedule_crash = KVFailureInjector.schedule_crash
    kill_server = AsyncKVCluster.kill_server

    def record_schedule(self, server_id, time):
        crashed["sim"].append(server_id)
        return schedule_crash(self, server_id, time)

    async def record_kill(self, server_id):
        crashed["asyncio"].append(server_id)
        await kill_server(self, server_id)

    monkeypatch.setattr(KVFailureInjector, "schedule_crash", record_schedule)
    monkeypatch.setattr(AsyncKVCluster, "kill_server", record_kill)
    workload = generate_workload(num_clients=2, ops_per_client=8, num_keys=8, seed=7)
    for backend in BOTH:
        result = run(KVRunConfig(
            backend=backend, num_shards=4, num_groups=2,
            crashes_per_group=1, crash_seed=7,
        ), workload)
        assert result.completed_ops == workload.total_operations()
        assert result.check().all_atomic
    assert sorted(crashed["sim"]) == sorted(crashed["asyncio"]) == ["g1-s2", "g2-s2"]
