"""repro.kvstore: a sharded, batched key-value store over atomic registers.

The paper's protocols emulate one atomic register; this package scales them
to a multi-key store:

* **The sans-I/O engine** (:mod:`~repro.kvstore.engine`): every piece of
  protocol behaviour -- round lifecycle, batching, stale-epoch replay,
  cross-client merging, read routing, proxy failover, view-push adoption,
  epoch fencing -- lives in pure state machines
  (:class:`ClientSessionEngine`, the :class:`ClientLink` that carries the
  rounds of every session of a process, :class:`ProxyEngine`,
  :class:`GroupServerEngine`) that consume decoded frames and emit
  ``(destination, frame)`` effects plus timer requests.  Both backends are
  thin adapters around them, so they cannot drift apart by construction.
* **Placement** (:mod:`~repro.kvstore.placement`): shards are decoupled from
  replica groups -- a :class:`PlacementPolicy` maps N logical shards onto M
  :class:`ReplicaGroup`\\ s (N >> M allowed), so small clusters host many
  shards and groups can be placed per site.
* **Sharding** (:mod:`~repro.kvstore.sharding`): a consistent-hash
  :class:`ShardMap` assigns each key to a shard; every key gets its own
  register emulation, so correctness decomposes key by key.  The map is
  *live*: :meth:`ShardMap.resize` and :meth:`ShardMap.move_shard` rebalance
  under load with bounded key movement (~1/N per added shard), fenced by
  per-shard epochs carried in every batch frame, and announced to the
  ingress tier with O(moved) **delta view pushes**.
* **Migration**: when the ring changes, the
  :class:`~repro.kvstore.engine.control.ControlPlaneEngine` drains per-key
  register state to the new owners *incrementally* -- fence, transfer, and
  install one key range at a time over ``drain-*`` frames -- so the cutover
  pause is bounded by the range size, not the shard size
  (:mod:`~repro.kvstore.migration` keeps the shared
  :class:`MigrationReport`).
* **Ingress proxies**: an optional site-local tier between clients and
  replica groups.  A proxy merges quorum rounds *across client connections*
  into shared replica frames (replica-side frames drop toward 1/K under
  K-client fan-in), asks a quorum first and the rest of the group only when
  a replica stays silent -- or routes reads through an explicit
  :class:`ReadRoutingPolicy` (:class:`NearestQuorum` picks the closest
  quorum from site metadata, :class:`BroadcastReads` asks everyone) -- and
  hides live rebalancing behind a
  :class:`CachedShardView` fed by view pushes and stale-epoch bounces.
* **Two backends**: the discrete-event simulator and real asyncio TCP
  (:class:`KVStore` / :class:`SyncKVStore`).  ``run(KVRunConfig(...),
  workload)`` runs a whole workload on either: the config's ``backend`` field
  picks one, and its other fields are the run's settings, one field each.
* **Per-key checking** (:mod:`~repro.kvstore.perkey`): every run's history is
  split per key and each sub-history is verified with the library's
  atomicity checker.

Exports resolve lazily (PEP 562): importing :mod:`repro.kvstore.engine`
never drags in a transport, which is what lets a unit test *prove* the
engine imports neither :mod:`asyncio` nor :mod:`repro.sim`.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING

#: Public name -> defining submodule; attribute access imports on demand.
_EXPORTS = {
    # the sans-I/O engine: state machines, routing, accounting
    "BatchStats": ".engine",
    "BroadcastReads": ".engine",
    "CachedShardView": ".engine",
    "ClientLink": ".engine",
    "ClientSessionEngine": ".engine",
    "ControlPlaneEngine": ".engine",
    "GroupServerEngine": ".engine",
    "NearestQuorum": ".engine",
    "ProxyEngine": ".engine",
    "ProxyRoute": ".engine",
    "ReadRoutingPolicy": ".engine",
    "StaleShardError": ".engine",
    "attempt_scoped_id": ".engine",
    "parse_attempt_scoped_id": ".engine",
    "view_push_frames": ".engine",
    # migration
    "MigrationReport": ".migration",
    # asyncio backend
    "AsyncKVCluster": ".net_backend",
    "KVStore": ".net_backend",
    "ProxyServer": ".net_backend",
    "RetryPolicy": ".net_backend",
    "SyncKVStore": ".net_backend",
    # per-key checking
    "KVHistoryRecorder": ".perkey",
    "PerKeyAtomicity": ".perkey",
    "check_per_key_atomicity": ".perkey",
    # placement
    "PlacementPolicy": ".placement",
    "ReplicaGroup": ".placement",
    "RoundRobinPlacement": ".placement",
    # sharding
    "HashRing": ".sharding",
    "MovePlan": ".sharding",
    "ResizePlan": ".sharding",
    "ShardMap": ".sharding",
    "ShardSpec": ".sharding",
    "stable_hash": ".sharding",
    # simulator backend
    "KVClientProcess": ".sim_backend",
    "KVFailureInjector": ".sim_backend",
    "ProxyProcess": ".sim_backend",
    "SimKVCluster": ".sim_backend",
    "run_sim_kv_workload": ".sim_backend",
    # workloads
    "KVOp": ".workload",
    "KVRunConfig": ".workload",
    "KVRunResult": ".workload",
    "KVWorkload": ".workload",
    "generate_workload": ".workload",
    "run": ".workload",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is not None:
        value = getattr(import_module(module_name, __name__), name)
        globals()[name] = value  # cache: later lookups skip __getattr__
        return value
    # Submodule access (``import repro.kvstore; repro.kvstore.sharding...``):
    # the eager imports used to bind these as a side effect, so keep them
    # reachable lazily.
    try:
        return import_module(f".{name}", __name__)
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise  # the submodule exists but one of *its* imports is missing
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from .engine import (  # noqa: F401
        BatchStats,
        BroadcastReads,
        CachedShardView,
        ClientLink,
        ClientSessionEngine,
        ControlPlaneEngine,
        GroupServerEngine,
        NearestQuorum,
        ProxyEngine,
        ProxyRoute,
        ReadRoutingPolicy,
        StaleShardError,
        attempt_scoped_id,
        parse_attempt_scoped_id,
        view_push_frames,
    )
    from .migration import MigrationReport  # noqa: F401
    from .net_backend import (  # noqa: F401
        AsyncKVCluster,
        KVStore,
        ProxyServer,
        RetryPolicy,
        SyncKVStore,
    )
    from .perkey import (  # noqa: F401
        KVHistoryRecorder,
        PerKeyAtomicity,
        check_per_key_atomicity,
    )
    from .placement import (  # noqa: F401
        PlacementPolicy,
        ReplicaGroup,
        RoundRobinPlacement,
    )
    from .sharding import (  # noqa: F401
        HashRing,
        MovePlan,
        ResizePlan,
        ShardMap,
        ShardSpec,
        stable_hash,
    )
    from .sim_backend import (  # noqa: F401
        KVClientProcess,
        KVFailureInjector,
        ProxyProcess,
        SimKVCluster,
        run_sim_kv_workload,
    )
    from .workload import (  # noqa: F401
        KVOp,
        KVRunConfig,
        KVRunResult,
        KVWorkload,
        generate_workload,
        run,
    )
