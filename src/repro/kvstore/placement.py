"""Placement layer: replica groups and shard-to-group placement policies.

The first version of the store welded every shard to its own disjoint set of
replica servers, so shard count was capped by server count and fixed at
construction.  This module makes *placement* its own layer:

* a :class:`ReplicaGroup` is the unit of replication -- a named set of
  servers running one register protocol instance.  One group hosts the
  per-key registers of **many** shards (a multiplexed
  :class:`~repro.kvstore.engine.server.GroupServerEngine` runs on each of its
  servers), so a small cluster can carry a large shard count (N shards on
  M groups, N >> M) and groups can be placed per site.

* a :class:`PlacementPolicy` decides which group hosts which shard -- both
  at construction (``place``) and when ``ShardMap.resize`` adds shards later
  (``place_one``).  :class:`RoundRobinPlacement` spreads shards evenly and
  sends new shards to the least-loaded group, which keeps per-group register
  counts balanced as the ring grows.

Groups are deliberately uniform in size (one ``servers_per_group`` setting):
live migration pairs source and destination replicas index-by-index, which
preserves "value present on >= S-t replicas" across a move and therefore
preserves every quorum-intersection argument the register protocols rely on.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Collection, Dict, List, Mapping, Optional, Sequence

from ..protocols.base import RegisterProtocol

__all__ = [
    "ReplicaGroup",
    "PlacementPolicy",
    "RoundRobinPlacement",
    "pick_coldest_group",
]


@dataclass
class ReplicaGroup:
    """One replica group: its id, server ids, and register protocol instance.

    Every shard placed on this group runs its per-key register emulations on
    these servers using this protocol; the protocol instance is shared by all
    of the group's shards because per-key *server logic* objects (not the
    factory) carry the state.
    """

    group_id: str
    protocol: RegisterProtocol
    servers: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.servers:
            self.servers = list(self.protocol.servers)

    @property
    def quorum_size(self) -> int:
        return len(self.servers) - self.protocol.max_faults

    @property
    def max_faults(self) -> int:
        return self.protocol.max_faults

    def describe(self) -> Dict[str, object]:
        return {
            "group": self.group_id,
            "servers": len(self.servers),
            "max_faults": self.max_faults,
            "quorum": self.quorum_size,
        }


class PlacementPolicy(abc.ABC):
    """Maps N shards onto M replica groups (N >> M allowed)."""

    @abc.abstractmethod
    def place(
        self, shard_ids: Sequence[str], group_ids: Sequence[str]
    ) -> Dict[str, str]:
        """Assign every shard id to a group id (initial placement)."""

    def place_one(
        self,
        shard_id: str,
        group_ids: Sequence[str],
        shard_counts: Dict[str, int],
    ) -> str:
        """Pick the group for one shard added after construction.

        The default sends the shard to the least-loaded group (fewest shards
        hosted), breaking ties by group order -- what ``ShardMap.resize``
        uses so growth keeps groups balanced.
        """
        return min(group_ids, key=lambda gid: (shard_counts.get(gid, 0),
                                               group_ids.index(gid)))


def pick_coldest_group(
    loads: Mapping[str, float], exclude: Collection[str] = ()
) -> Optional[str]:
    """The least-loaded group id, by *observed load* rather than shard count.

    ``loads`` maps every candidate group id to a load figure (typically
    recent served-op counts, as folded by the control plane's autoscaler);
    ties break by the mapping's iteration order so repeated calls stay
    deterministic.  Returns ``None`` when ``exclude`` leaves no candidate.
    """
    order = {group_id: index for index, group_id in enumerate(loads)}
    candidates = [gid for gid in loads if gid not in set(exclude)]
    if not candidates:
        return None
    return min(candidates, key=lambda gid: (loads[gid], order[gid]))


class RoundRobinPlacement(PlacementPolicy):
    """Shard ``i`` goes to group ``i mod M``; additions go least-loaded."""

    def place(
        self, shard_ids: Sequence[str], group_ids: Sequence[str]
    ) -> Dict[str, str]:
        if not group_ids:
            raise ValueError("placement needs at least one replica group")
        return {
            shard_id: group_ids[index % len(group_ids)]
            for index, shard_id in enumerate(shard_ids)
        }
