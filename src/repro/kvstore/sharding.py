"""Consistent-hash shard map: keys -> shards -> replica groups.

The key-value store splits its key space over independent *shards*.  A shard
is a purely logical slice of the ring: its per-key register emulations are
hosted by a :class:`~repro.kvstore.placement.ReplicaGroup`, and a
:class:`~repro.kvstore.placement.PlacementPolicy` maps N shards onto M groups
(N >> M allowed).  Per-key registers are completely independent -- exactly
the workload-independence the per-object protocols of the paper provide --
so shards scale the store horizontally without cross-shard coordination,
and decoupling them from the replica groups lets the shard count grow (or a
shard move between groups) while the cluster stays put.

Key placement uses a consistent-hash ring (with virtual nodes) over a stable
keyed hash, so the same key maps to the same shard on every backend, in every
process, on every run -- a requirement for both history checking and for the
asyncio backend whose clients hash keys independently of the servers.

Live rebalancing is epoch-fenced: every shard carries an ``epoch`` that the
map bumps whenever the shard's ownership changes (it loses ring arcs in a
:meth:`ShardMap.resize`, or it is re-homed by :meth:`ShardMap.move_shard`).
Clients tag every batched sub-request with the (shard, epoch) they resolved;
group servers bounce stale tags so an in-flight operation can never read or
write a register that has been drained to a new owner.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence

from ..core.errors import ConfigurationError
from ..protocols.base import RegisterProtocol
from ..protocols.registry import build_protocol
from .placement import PlacementPolicy, ReplicaGroup, RoundRobinPlacement

__all__ = [
    "stable_hash",
    "HashRing",
    "OwnerCacheInfo",
    "ShardSpec",
    "ShardMap",
    "ResizePlan",
    "MovePlan",
]


def stable_hash(text: str) -> int:
    """A 64-bit hash that is stable across processes and Python versions.

    ``hash()`` is salted per process (PYTHONHASHSEED), which would scatter
    the same key to different shards on client and server; blake2b is not.
    """
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class OwnerCacheInfo(NamedTuple):
    """Statistics of the memoized ``HashRing.owner_of`` lookup."""

    hits: int
    misses: int
    maxsize: int
    currsize: int


class HashRing:
    """A consistent-hash ring of shard ids with virtual nodes.

    Rings are immutable; a resize builds a *new* ring with ``epoch + 1``.
    ``owner_of`` is memoized per ring instance in a plain dict -- since the
    ring never mutates, a cached entry is valid for the ring's whole
    lifetime, so the memo is scoped to exactly one ring epoch.  The hash +
    bisect resolution sits on the hot path of every operation in both
    backends; the cache turns the repeated-key case (Zipf-popular workloads)
    into a dict hit.

    The memo deliberately avoids ``functools.lru_cache`` over a bound
    method: that wrapper closes over ``self`` and is stored *on* ``self``,
    a reference cycle that kept superseded rings (and their point arrays)
    alive past an epoch change until a full gc pass.  A dict of plain
    strings has no back-reference, so a replaced ring frees on refcount.
    """

    def __init__(
        self,
        shard_ids: Sequence[str],
        virtual_nodes: int = 64,
        epoch: int = 1,
        owner_cache_size: int = 16384,
    ) -> None:
        if not shard_ids:
            raise ValueError("a hash ring needs at least one shard")
        if virtual_nodes < 1:
            raise ValueError("virtual_nodes must be positive")
        self.virtual_nodes = virtual_nodes
        self.epoch = epoch
        points: List[tuple] = []
        for shard_id in shard_ids:
            for replica in range(virtual_nodes):
                points.append((stable_hash(f"{shard_id}#{replica}"), shard_id))
        points.sort()
        self._hashes = [point for point, _ in points]
        self._owners = [owner for _, owner in points]
        self._owner_cache: Dict[str, str] = {}
        self._owner_cache_size = owner_cache_size
        self._cache_hits = 0
        self._cache_misses = 0

    def points_of(self, shard_id: str) -> List[int]:
        """The ring positions of ``shard_id``'s virtual nodes."""
        return [
            stable_hash(f"{shard_id}#{replica}")
            for replica in range(self.virtual_nodes)
        ]

    def owner_of_hash(self, point: int) -> str:
        """The shard owning ring position ``point``."""
        index = bisect.bisect_right(self._hashes, point)
        if index == len(self._hashes):
            index = 0
        return self._owners[index]

    def _resolve(self, key: str) -> str:
        return self.owner_of_hash(stable_hash(key))

    def owner_of(self, key: str) -> str:
        """The shard owning ``key``: first ring point clockwise of its hash."""
        owner = self._owner_cache.get(key)
        if owner is not None:
            self._cache_hits += 1
            return owner
        self._cache_misses += 1
        if len(self._owner_cache) >= self._owner_cache_size:
            self._owner_cache.clear()
        owner = self._resolve(key)
        self._owner_cache[key] = owner
        return owner

    def clear_owner_cache(self) -> None:
        """Drop the memo (``ShardMap`` calls this when a ring is superseded,
        so a retained old ring -- e.g. inside a :class:`ResizePlan` -- holds
        only its point arrays, not a key cache nobody will hit again)."""
        self._owner_cache.clear()

    def cache_info(self) -> OwnerCacheInfo:
        """Statistics of the memoized ``owner_of`` (for tests/benchmarks)."""
        return OwnerCacheInfo(
            hits=self._cache_hits,
            misses=self._cache_misses,
            maxsize=self._owner_cache_size,
            currsize=len(self._owner_cache),
        )


@dataclass
class ShardSpec:
    """One logical shard: its id, hosting group, and fencing epoch."""

    shard_id: str
    group: ReplicaGroup
    epoch: int = 1

    @property
    def servers(self) -> List[str]:
        return self.group.servers

    @property
    def protocol(self) -> RegisterProtocol:
        return self.group.protocol

    @property
    def quorum_size(self) -> int:
        return self.group.quorum_size


@dataclass
class ResizePlan:
    """What one :meth:`ShardMap.resize` changed (metadata only).

    The :class:`~repro.kvstore.engine.control.ControlPlaneEngine` turns this
    into an incremental key-range drain that physically moves per-key
    registers to their new owners.  ``fenced`` maps
    every pre-existing shard whose ring arcs changed to its new epoch -- the
    set of shards whose in-flight requests must bounce.
    """

    old_ring: HashRing
    new_ring: HashRing
    added: List[ShardSpec] = field(default_factory=list)
    removed: List[ShardSpec] = field(default_factory=list)
    fenced: Dict[str, int] = field(default_factory=dict)

    def moved_keys(self, keys: Iterable[str]) -> List[str]:
        """The subset of ``keys`` whose owning shard changed."""
        return [k for k in keys if self.old_ring.owner_of(k) != self.new_ring.owner_of(k)]

    def moved_fraction(self, keys: Sequence[str]) -> float:
        """Fraction of ``keys`` that changed owner (the ~1/N guarantee)."""
        if not keys:
            return 0.0
        return len(self.moved_keys(keys)) / len(keys)


@dataclass
class MovePlan:
    """What one :meth:`ShardMap.move_shard` changed (metadata only)."""

    spec: ShardSpec
    old_group: ReplicaGroup
    new_group: ReplicaGroup


class ShardMap:
    """Assigns every key to one of ``num_shards`` register-backed shards.

    Shards are placed onto ``num_groups`` replica groups ``g1 .. gM`` (each
    ``servers_per_shard`` servers running an independent instance of the
    chosen protocol) by a :class:`PlacementPolicy`; ``num_groups`` defaults
    to one group per shard, the original disjoint layout.  ``shard_for``
    resolves a key through the consistent-hash ring.

    The map is *live*: :meth:`resize` changes the shard count (bounded key
    movement, ~1/N per added shard) and :meth:`move_shard` re-homes one shard
    onto another group.  Both only rewrite metadata (ring, specs, epochs) and
    return a plan; the cluster backends apply the plan to the group servers
    -- draining per-key registers to the new owners -- inside one atomic
    control-plane step.
    """

    def __init__(
        self,
        num_shards: int,
        protocol_key: str = "abd-mwmr",
        servers_per_shard: int = 3,
        max_faults: int = 1,
        readers: int = 2,
        writers: int = 2,
        virtual_nodes: int = 64,
        num_groups: Optional[int] = None,
        placement: Optional[PlacementPolicy] = None,
        **protocol_kwargs,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be positive")
        if num_groups is None:
            num_groups = num_shards
        if num_groups < 1:
            raise ValueError("num_groups must be positive")
        self.protocol_key = protocol_key
        self.servers_per_shard = servers_per_shard
        self.max_faults = max_faults
        self.virtual_nodes = virtual_nodes
        self.placement = placement or RoundRobinPlacement()

        self.groups: Dict[str, ReplicaGroup] = {}
        for index in range(1, num_groups + 1):
            group_id = f"g{index}"
            servers = [f"{group_id}-s{i}" for i in range(1, servers_per_shard + 1)]
            protocol = build_protocol(
                protocol_key, servers, max_faults,
                readers=readers, writers=writers, **protocol_kwargs,
            )
            if writers > 1 and not protocol.multi_writer:
                raise ConfigurationError(
                    f"protocol {protocol_key!r} is single-writer; a kv store with "
                    f"{writers} writing clients needs a multi-writer register"
                )
            self.groups[group_id] = ReplicaGroup(group_id, protocol, servers)

        shard_ids = [f"sh{i}" for i in range(1, num_shards + 1)]
        assignment = self.placement.place(shard_ids, list(self.groups))
        self.shards: Dict[str, ShardSpec] = {
            shard_id: ShardSpec(shard_id, self.groups[assignment[shard_id]])
            for shard_id in shard_ids
        }
        self.ring = HashRing(shard_ids, virtual_nodes=virtual_nodes, epoch=1)
        self._next_shard_index = num_shards + 1

    # -- resolution ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.shards)

    @property
    def ring_epoch(self) -> int:
        return self.ring.epoch

    def shard_for(self, key: str) -> ShardSpec:
        """The shard owning ``key``."""
        return self.shards[self.ring.owner_of(key)]

    def assignments(self, keys: Iterable[str]) -> Dict[str, List[str]]:
        """Group ``keys`` by owning shard id (shards with no keys included)."""
        grouped: Dict[str, List[str]] = {shard_id: [] for shard_id in self.shards}
        for key in keys:
            grouped[self.ring.owner_of(key)].append(key)
        return grouped

    def shards_on(self, group_id: str) -> List[ShardSpec]:
        """The shards currently hosted by ``group_id``."""
        return [
            spec for spec in self.shards.values() if spec.group.group_id == group_id
        ]

    def shard_counts(self) -> Dict[str, int]:
        """Shards hosted per group id."""
        counts = {group_id: 0 for group_id in self.groups}
        for spec in self.shards.values():
            counts[spec.group.group_id] += 1
        return counts

    @property
    def all_servers(self) -> List[str]:
        """Every replica server id across all groups."""
        servers: List[str] = []
        for group in self.groups.values():
            servers.extend(group.servers)
        return servers

    def describe(self) -> Dict[str, object]:
        return {
            "shards": len(self.shards),
            "groups": len(self.groups),
            "protocol": self.protocol_key,
            "servers_per_shard": self.servers_per_shard,
            "max_faults": self.max_faults,
            "total_servers": len(self.all_servers),
            "ring_epoch": self.ring_epoch,
        }

    def _route_entry(self, shard_id: str) -> Dict[str, Any]:
        spec = self.shards[shard_id]
        return {
            "epoch": spec.epoch,
            "group": spec.group.group_id,
            "servers": list(spec.group.servers),
            "quorum": spec.quorum_size,
        }

    def view_delta(self, plan: "ResizePlan | MovePlan") -> Optional[Dict[str, Any]]:
        """The routing delta of one rebalance, as a JSON-safe push payload.

        The payload of a view push (:func:`repro.messages.make_view_push`)
        carries only what ``plan`` changed: the shards the rebalance
        *fenced* (epoch bumped), *added*, *removed*, or *moved* -- O(moved)
        entries, which is what keeps the control-plane frame small when
        thousands of shards resize by a handful.  The payload names the ring
        epoch it was computed against (``base_ring_epoch``), so a
        :class:`~repro.kvstore.engine.routing.CachedShardView` can refuse a
        delta whose base it never adopted (a predecessor push was dropped)
        and fall back to the epoch-fence bounce.  Returns ``None`` when the
        plan changed nothing (no push needed).
        """
        if isinstance(plan, MovePlan):
            return {
                "ring_epoch": self.ring.epoch,
                "base_ring_epoch": self.ring.epoch,
                "virtual_nodes": self.virtual_nodes,
                "added": [],
                "removed": [],
                "routes": {plan.spec.shard_id: self._route_entry(plan.spec.shard_id)},
            }
        added = [spec.shard_id for spec in plan.added]
        removed = [spec.shard_id for spec in plan.removed]
        changed = set(added) | set(plan.fenced)
        if not added and not removed and not changed:
            return None
        return {
            "ring_epoch": plan.new_ring.epoch,
            "base_ring_epoch": plan.old_ring.epoch,
            "virtual_nodes": self.virtual_nodes,
            "added": added,
            "removed": removed,
            "routes": {shard_id: self._route_entry(shard_id) for shard_id in changed},
        }

    # -- live rebalancing ------------------------------------------------------

    def _rebuild_ring(self) -> HashRing:
        return HashRing(
            list(self.shards),
            virtual_nodes=self.virtual_nodes,
            epoch=self.ring.epoch + 1,
        )

    def resize(self, new_num_shards: int) -> ResizePlan:
        """Grow or shrink the ring to ``new_num_shards`` shards (metadata).

        Growth creates fresh shard ids (never reusing old ones) placed on the
        least-loaded groups; shrinkage retires the most recently added shards
        and their arcs fall back to the survivors.  Consistent hashing bounds
        key movement to ~(moved shards)/N.  Every pre-existing shard that
        loses ring arcs gets its epoch bumped (recorded in ``fenced``) so
        in-flight requests resolved against the old ring bounce instead of
        touching drained registers.
        """
        if new_num_shards < 1:
            raise ValueError("new_num_shards must be positive")
        old_ring = self.ring
        plan = ResizePlan(old_ring=old_ring, new_ring=old_ring)
        if new_num_shards == len(self.shards):
            return plan

        if new_num_shards > len(self.shards):
            counts = self.shard_counts()
            for _ in range(new_num_shards - len(self.shards)):
                shard_id = f"sh{self._next_shard_index}"
                self._next_shard_index += 1
                group_id = self.placement.place_one(
                    shard_id, list(self.groups), counts
                )
                counts[group_id] = counts.get(group_id, 0) + 1
                spec = ShardSpec(shard_id, self.groups[group_id])
                self.shards[shard_id] = spec
                plan.added.append(spec)
            new_ring = self._rebuild_ring()
            # A new virtual node at position h steals the arc ending at h
            # from the shard that owned h on the old ring; those donors are
            # exactly the shards whose in-flight traffic must be fenced.
            donors = set()
            for spec in plan.added:
                for point in new_ring.points_of(spec.shard_id):
                    donors.add(old_ring.owner_of_hash(point))
            for shard_id in sorted(donors):
                spec = self.shards[shard_id]
                spec.epoch += 1
                plan.fenced[shard_id] = spec.epoch
        else:
            victims = list(self.shards)[new_num_shards:]
            for shard_id in victims:
                plan.removed.append(self.shards.pop(shard_id))
            new_ring = self._rebuild_ring()
            # Removed arcs fall forward to survivors.  Each receiving
            # survivor must be fenced: until the incoming keys are drained
            # onto it, a request for one of them would otherwise materialize
            # a fresh empty register there and read ⊥ past live state still
            # sitting on the removed shard.  The epoch bump bounces those
            # requests until the drain hosts the keys as pending.  A removed
            # arc ending at point ``p`` falls to the new ring's owner of
            # ``p`` (no surviving point lies inside the arc, by definition).
            receivers = set()
            for spec in plan.removed:
                for point in old_ring.points_of(spec.shard_id):
                    receivers.add(new_ring.owner_of_hash(point))
            for shard_id in sorted(receivers):
                spec = self.shards[shard_id]
                spec.epoch += 1
                plan.fenced[shard_id] = spec.epoch
            # The removed shards themselves fence at one past their final
            # epoch: the drain raises their replicas there, so requests
            # resolved against the pre-shrink ring bounce instead of
            # touching registers that are mid-transfer.
            for spec in plan.removed:
                spec.epoch += 1

        old_ring.clear_owner_cache()  # the superseded epoch's memo is dead weight
        self.ring = new_ring
        plan.new_ring = new_ring
        return plan

    def move_shard(self, shard_id: str, group_id: str) -> MovePlan:
        """Re-home ``shard_id`` onto ``group_id`` (metadata).

        The ring (and therefore key->shard ownership) is unchanged; only the
        hosting group differs.  The shard's epoch is bumped so requests
        resolved against the old group bounce and re-resolve.
        """
        if shard_id not in self.shards:
            raise KeyError(f"unknown shard {shard_id!r}")
        if group_id not in self.groups:
            raise KeyError(f"unknown replica group {group_id!r}")
        spec = self.shards[shard_id]
        old_group = spec.group
        new_group = self.groups[group_id]
        if len(old_group.servers) != len(new_group.servers):
            raise ConfigurationError(
                "moving a shard requires equal-size replica groups "
                f"({len(old_group.servers)} != {len(new_group.servers)})"
            )
        spec.group = new_group
        spec.epoch += 1
        # Key->shard ownership is untouched, but drop the memo anyway so a
        # view rebuilt from this map can never pair a cached owner with a
        # pre-move route by accident.
        self.ring.clear_owner_cache()
        return MovePlan(spec=spec, old_group=old_group, new_group=new_group)
