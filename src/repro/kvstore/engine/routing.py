"""Shared routing state of the ingress tier: views and read policies.

The register emulations charge their message cost per client round: every
operation pays one frame per replica, so K clients hammering the same shard
cost K times the quorum fan-out even when their rounds are concurrent.  The
proxy tier fixes that at the datacenter boundary; this module is the routing
brain its engines (and the client engine's failover machinery) share:

* :class:`CachedShardView` -- a possibly-stale snapshot of the shard map
  whose staleness is *detected* by the replicas' epoch fence and *repaired*
  either by a refresh (after a ``stale-shard`` bounce) or proactively by a
  control-plane **view push**.  A push is the **delta** of one rebalance
  (:meth:`~repro.kvstore.sharding.ShardMap.view_delta`): only the
  fenced/added/removed entries -- O(moved) instead of O(shards).  Pushes are
  adopted monotonically: reordered or duplicated pushes can never roll
  routing back, and a delta whose base the view has not reached is skipped
  (the epoch-fence bounce remains the safety net).
* :class:`ReadRoutingPolicy` -- which replicas of the owner group a read
  round targets, when the deployment wants to say.  Three choices: **no
  policy** (the default) leaves it to the round multiplexer, which goes
  quorum-first -- every round that mutates nothing asks ``S - t`` replicas,
  rotating over the group, and widens to the rest when one stays silent
  (:mod:`~repro.kvstore.engine.rounds`); :class:`NearestQuorum` pins reads to
  the closest quorum per site/link metadata (a rotating quorum would cross
  the WAN every other read); :class:`BroadcastReads` opts out -- every round
  asks every replica, the classic emulation.  Under an explicit policy
  nothing is narrowed or widened: the policy's targets are the targets.
* :func:`attempt_scoped_id` -- the replay-isolation scheme: replayed rounds
  get fresh scoped op ids so a quorum can never mix replies from the pre-
  and post-rebalance owner groups (or from two different proxies).

Correctness notes.  The proxy preserves each forwarded sub-message's
*original client* as its sender, because the protocols' server logic records
senders in per-tag ``updated`` sets (the paper's crucial info) -- collapsing
clients into the proxy's identity would starve the fast-read admissibility
predicate.  Restricting a read round to any ``S - t`` replicas is always
safe for atomicity (every quorum of that size intersects every write
quorum); it trades the broadcast's redundancy for frame cost.  The default
buys the redundancy back only when it is needed (a silent replica widens the
round); :class:`NearestQuorum` never widens, so it takes a ``spare`` margin
for deployments that want crash headroom on reads.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ...messages import Message, make_view_push
from ..sharding import HashRing, MovePlan, ResizePlan, ShardMap, stable_hash

__all__ = [
    "ProxyRoute",
    "CachedShardView",
    "ReadRoutingPolicy",
    "BroadcastReads",
    "NearestQuorum",
    "attempt_scoped_id",
    "parse_attempt_scoped_id",
    "pick_one_proxy_per_site",
    "view_push_frames",
    "CONTROL_PLANE",
]

#: The sender identity of control-plane view pushes on both backends.
CONTROL_PLANE = "control-plane"


@dataclass(frozen=True)
class ProxyRoute:
    """One key's resolved route at snapshot time: shard, fence, and group."""

    shard_id: str
    epoch: int
    group_id: str
    servers: Tuple[str, ...]
    quorum_size: int


def _route_from_entry(shard_id: str, entry: Mapping[str, Any]) -> ProxyRoute:
    return ProxyRoute(
        shard_id=shard_id,
        epoch=int(entry["epoch"]),
        group_id=str(entry["group"]),
        servers=tuple(entry["servers"]),
        quorum_size=int(entry["quorum"]),
    )


class CachedShardView:
    """A routing snapshot of a :class:`ShardMap`, refreshed on invalidation.

    The authoritative map lives with the cluster control plane; a proxy
    routes against a *copy* of the ring and the per-shard (epoch, group)
    assignments taken at the last refresh.  Between refreshes the view can
    also adopt control-plane pushes -- one delta per rebalance -- with
    :meth:`apply_push`, which needs *no* access to the
    authoritative map (the push carries everything the view routes on,
    which is what makes it a real state transfer in a multi-process
    deployment).  (In such a deployment ``refresh`` would be an RPC to the
    control plane; here the map object is reachable in-process, and the
    snapshot boundary is what keeps the view honest about staleness.)
    """

    def __init__(self, shard_map: ShardMap) -> None:
        self._map = shard_map
        self.refreshes = 0
        self.pushes_applied = 0
        self.deltas_skipped = 0
        self._ring = shard_map.ring
        self._routes: Dict[str, ProxyRoute] = {}
        self._take_snapshot()

    def _take_snapshot(self) -> None:
        self._ring = self._map.ring
        self._routes = {
            shard_id: ProxyRoute(
                shard_id=shard_id,
                epoch=spec.epoch,
                group_id=spec.group.group_id,
                servers=tuple(spec.group.servers),
                quorum_size=spec.quorum_size,
            )
            for shard_id, spec in self._map.shards.items()
        }

    @property
    def ring_epoch(self) -> int:
        """The snapshot's ring epoch (lags the map's after a live resize)."""
        return self._ring.epoch

    def resolve(self, key: str) -> ProxyRoute:
        """Route ``key`` through the snapshot (possibly stale -- by design)."""
        return self._routes[self._ring.owner_of(key)]

    def group_of(self, server_id: str) -> Optional[str]:
        """The group of replica ``server_id``, if a route of the snapshot
        names it (a group keeps its replicas; only shards move)."""
        for route in self._routes.values():
            if server_id in route.servers:
                return route.group_id
        return None

    def refresh(self) -> None:
        """Re-snapshot the authoritative map after a stale-epoch bounce."""
        self.refreshes += 1
        self._take_snapshot()

    # -- control-plane pushes ---------------------------------------------------

    def apply_push(self, view: Mapping[str, Any]) -> bool:
        """Adopt a control-plane view push; returns ``False`` for pushes that
        cannot (or must not) be applied.

        ``view`` is a :meth:`~repro.kvstore.sharding.ShardMap.view_delta`
        payload, carried by a :data:`~repro.messages.VIEW_PUSH_KIND` frame
        and checked by :func:`~repro.messages.unpack_view_push`.  Pushes may
        be reordered against refreshes and against each other, so the view
        only moves forward: a push whose ring epoch is behind the
        snapshot's is dropped, and per shard the fresher of the pushed and
        cached fencing epochs wins.  A delta also names the ring epoch it
        was computed against (``base_ring_epoch``); a delta whose base the
        view has not reached is skipped -- the stale routes keep bouncing
        off the epoch fence until a refresh repairs them, which is the clean
        degradation a dropped delta costs.
        """
        pushed_ring_epoch = int(view["ring_epoch"])
        base_ring_epoch = int(view["base_ring_epoch"])
        if pushed_ring_epoch < self._ring.epoch:
            return False  # stale reordered delta: routing already moved past it
        if base_ring_epoch != self._ring.epoch:
            # The delta was computed against a base this view never adopted
            # (an earlier delta was dropped, or a refresh is still pending).
            # Applying it could resurrect routes for shards we know nothing
            # about, so skip it; the epoch fence keeps the staleness safe.
            self.deltas_skipped += 1
            return False
        added = view["added"]
        removed = set(view["removed"])
        if added or removed:
            shard_ids = [s for s in self._routes if s not in removed] + [
                s for s in added if s not in self._routes
            ]
            self._ring = HashRing(
                shard_ids,
                virtual_nodes=int(view["virtual_nodes"]),
                epoch=pushed_ring_epoch,
            )
        for shard_id in removed:
            self._routes.pop(shard_id, None)
        for shard_id, entry in view["routes"].items():
            pushed = _route_from_entry(shard_id, entry)
            cached = self._routes.get(pushed.shard_id)
            if cached is None or pushed.epoch > cached.epoch:
                self._routes[pushed.shard_id] = pushed
        self.pushes_applied += 1
        return True


class ReadRoutingPolicy(abc.ABC):
    """Chooses which replicas of the owner group a *read* round targets.

    Write rounds always broadcast: a write must land on every replica it can
    reach for the ``S - t`` storage bound to hold under crashes.  Reads only
    need *some* quorum, and which one is a pure performance choice -- any
    ``wait_for``-sized subset intersects every write quorum.
    """

    name = "policy"

    @abc.abstractmethod
    def read_targets(
        self,
        origin: str,
        servers: Sequence[str],
        wait_for: int,
        key: Optional[str] = None,
    ) -> List[str]:
        """The replicas ``origin``'s read round for ``key`` should go to.

        Must return at least ``wait_for`` servers, else the round can never
        complete; policies widen their pick to the whole group before they
        would ever under-target.  ``key`` lets a policy shed load
        deterministically per key; stateless policies may ignore it.
        """


class BroadcastReads(ReadRoutingPolicy):
    """Send every read round to every replica (the classic emulation)."""

    name = "broadcast"

    def read_targets(
        self,
        origin: str,
        servers: Sequence[str],
        wait_for: int,
        key: Optional[str] = None,
    ) -> List[str]:
        return list(servers)


class NearestQuorum(ReadRoutingPolicy):
    """Send each read round to the closest quorum only.

    ``link_cost(origin, server)`` is static deployment metadata (site
    distances), *not* a live latency probe -- the same information a
    :class:`~repro.sim.delays.GeoDelay` model encodes.  Equidistant picks
    are tie-broken by a stable hash over ``(origin, key, server)``: each
    (proxy, key) pair keeps a deterministic quorum, while *across* keys the
    picks spread uniformly over the equidistant replicas.  Both halves
    matter -- determinism keeps a key's read path cacheable and debuggable,
    and the spreading is where the under-load latency win over broadcast
    comes from (each replica serves a fraction of the read volume instead
    of all of it, so every read's quorum queues behind less work).

    ``spare`` targets that many replicas beyond the quorum so reads stay
    live with up to ``spare`` crashed replicas among the nearest; the
    default of 0 maximizes the frame saving and suits crash-free runs.
    """

    name = "nearest-quorum"

    def __init__(
        self, link_cost: Callable[[str, str], float], spare: int = 0
    ) -> None:
        if spare < 0:
            raise ValueError("spare must be non-negative")
        self.link_cost = link_cost
        self.spare = spare

    @classmethod
    def from_sites(
        cls,
        sites: Mapping[str, str],
        local_cost: float = 0.5,
        wan_cost: float = 40.0,
        spare: int = 0,
    ) -> "NearestQuorum":
        """Build from a process->site map (same shape ``GeoDelay`` takes)."""
        site_of = dict(sites)

        def cost(origin: str, server: str) -> float:
            same = site_of.get(origin) == site_of.get(server)
            return local_cost if same else wan_cost

        return cls(cost, spare=spare)

    def read_targets(
        self,
        origin: str,
        servers: Sequence[str],
        wait_for: int,
        key: Optional[str] = None,
    ) -> List[str]:
        need = min(len(servers), wait_for + self.spare)
        ranked = sorted(
            servers,
            key=lambda server: (
                self.link_cost(origin, server),
                stable_hash(f"{origin}/{key}->{server}"),
            ),
        )
        return ranked[:need]


def attempt_scoped_id(op_id: str, attempt: int) -> str:
    """The downstream operation id for one attempt of one forwarded round.

    Scoping the id per attempt is what keeps replays safe: a straggler reply
    to an earlier attempt (possibly served by the *pre*-rebalance owner
    group, or relayed by a since-failed proxy) can never be counted into a
    later attempt's quorum.

    The encoding must be injective over ``(op_id, attempt)`` pairs even when
    the caller-supplied id itself contains the separator -- which happens
    routinely now that scoping *nests*: a client scopes per proxy-failover
    generation and the proxy scopes the result again per replay attempt.  A
    naive ``f"{op_id}@a{attempt}"`` makes ``("x", 1)`` scoped by a second
    level indistinguishable from ``("x@a1", ...)`` scoped once, so the op id
    is percent-escaped first (``%`` then ``@``), leaving the final ``@`` as
    the one unambiguous separator.  :func:`parse_attempt_scoped_id` inverts
    it exactly.
    """
    if attempt < 0:
        raise ValueError("attempt must be non-negative")
    encoded = op_id.replace("%", "%25").replace("@", "%40")
    return f"{encoded}@a{attempt}"


def parse_attempt_scoped_id(scoped: str) -> Tuple[str, int]:
    """Inverse of :func:`attempt_scoped_id`: the ``(op_id, attempt)`` pair."""
    encoded, separator, attempt = scoped.partition("@")
    if not separator or not attempt.startswith("a") or not attempt[1:].isdigit():
        raise ValueError(f"not an attempt-scoped id: {scoped!r}")
    return encoded.replace("%40", "@").replace("%25", "%"), int(attempt[1:])


def pick_one_proxy_per_site(
    proxies: Sequence[Tuple[str, Optional[str], bool]],
) -> List[str]:
    """One live proxy id per site from ``(proxy_id, site, alive)`` triples.

    The victim-selection rule of the proxy-kill fault experiments: killing
    one proxy *per site* exercises every site's failover path while leaving
    each site's remaining candidates (or the direct fallback) to absorb the
    traffic.  ``site=None`` rows all share one implicit site.
    """
    victims: List[str] = []
    sites_hit = set()
    for proxy_id, site, alive in proxies:
        if not alive or site in sites_hit:
            continue
        sites_hit.add(site)
        victims.append(proxy_id)
    return victims


def view_push_frames(
    shard_map: ShardMap,
    proxy_ids: Sequence[str],
    plan: Union[ResizePlan, MovePlan],
    sender: str = CONTROL_PLANE,
) -> List[Message]:
    """The control-plane push frames for one live rebalance, one per proxy.

    This is the *sending* half of the view-push feature, shared by both
    cluster backends (the adopting half is :meth:`CachedShardView.apply_push`
    -- together they make delta pushes a single engine feature with no
    backend-specific code).  Each frame carries only the entries ``plan``
    touched (:meth:`~repro.kvstore.sharding.ShardMap.view_delta` -- O(moved)
    per push).  A rebalance that changed nothing produces no frames at all.
    """
    if not proxy_ids:
        return []
    view = shard_map.view_delta(plan)
    if view is None:
        return []
    return [make_view_push(sender, proxy_id, view) for proxy_id in proxy_ids]
