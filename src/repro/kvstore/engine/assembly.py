"""Cluster assembly: the one place a configuration becomes engines.

In the paper a configuration is five things -- ``S``, ``t``, ``R``, ``W`` and
the protocol -- and a :class:`~repro.kvstore.sharding.ShardMap` carries them
for every replica group.  :class:`ClusterAssembly` is the recipe that turns a
shard map, plus the lease, drain and retry settings of a deployment, into the
engines its nodes run, all observed through one hub:

* :meth:`~ClusterAssembly.server_engine` -- a replica, hosting its group's
  shards at their current epochs;
* :meth:`~ClusterAssembly.proxy_engine` -- an ingress proxy over its own
  :class:`~repro.kvstore.engine.routing.CachedShardView`, the worst-case read
  round trips of the groups, its cache and lease settings;
* :meth:`~ClusterAssembly.client_engine` -- a store client, with
  :meth:`~ClusterAssembly.proxy_candidates` the failover list of its site,
  and :meth:`~ClusterAssembly.client_link` the link the clients of one
  process share;
* :attr:`~ClusterAssembly.control_engine` -- the control plane, fed served-op
  counts by the replicas' tallies and pushing views to the live proxies;
* :meth:`~ClusterAssembly.start_resize` / :meth:`~ClusterAssembly.start_move`
  -- a live rebalance, handed back as a report and the effects that drain it.

Each tier is built on demand and none needs another, so a process that runs
one node builds one engine.  Both cluster classes extend this one: what they
add is transport -- a simulator process or an asyncio owner around each
engine, and a way to run the effects.  Like the rest of the package the
module imports neither :mod:`asyncio` nor :mod:`repro.sim`; the clock and the
retry policy, which are in the backend's time unit, are passed in.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ...observe.events import ObserverHub
from ...observe.metrics import MetricsObserver, MetricsRegistry
from ...observe.trace import TraceCollector
from ..migration import MigrationReport
from ..perkey import KVHistoryRecorder
from ..sharding import ShardMap
from .client import ClientSessionEngine
from .control import AutoscaleFeed, ControlPlaneEngine
from .effects import Effect, RetryPolicy
from .link import ClientLink
from .proxy import ProxyEngine
from .routing import CachedShardView
from .server import GroupServerEngine

__all__ = ["ClusterAssembly"]


class ClusterAssembly:
    """A deployment's settings, its observer hub and the engines built so far.

    ``sites`` maps process ids (clients and proxies) to deployment sites: a
    client fails over among the proxies of its own site only.  ``push_views``
    is whether rebalances push the fresh view to the live proxies; it is read
    at each :meth:`start_resize` / :meth:`start_move` (and when a proxy is
    added), so it can be switched between rebalances -- tests drop a delta
    this way.
    """

    def __init__(
        self,
        shard_map: ShardMap,
        clock: Callable[[], float],
        retry_policy: RetryPolicy,
        *,
        lease_ttl: float,
        drain_range_size: int,
        autoscale_interval: float,
        push_views: bool = True,
        sites: Optional[Mapping[str, str]] = None,
        trace_collector: Optional[TraceCollector] = None,
    ) -> None:
        self.shard_map = shard_map
        self.retry_policy = retry_policy
        self.lease_ttl = lease_ttl
        self.drain_range_size = drain_range_size
        self.autoscale_interval = autoscale_interval
        self.sites: Dict[str, str] = dict(sites or {})
        # The metrics sink is always on (it is cheap and gives every run a
        # snapshot), the trace collector only when a caller wants span trees.
        self.hub = ObserverHub(clock=clock)
        self.metrics = MetricsRegistry()
        self.hub.add_sink(MetricsObserver(self.metrics))
        self.hub.add_sink(trace_collector)
        self.server_logics: Dict[str, GroupServerEngine] = {}
        self.proxy_engines: Dict[str, ProxyEngine] = {}
        self.migrations: List[MigrationReport] = []
        self.push_views = push_views
        self._control: Optional[ControlPlaneEngine] = None
        self._turns = 0

    # -- one engine per node ------------------------------------------------------

    def server_engine(self, server_id: str) -> GroupServerEngine:
        """The engine of replica ``server_id``, hosting its group's shards."""
        group = next(
            group for group in self.shard_map.groups.values()
            if server_id in group.servers
        )
        hosted = {
            spec.shard_id: spec.epoch
            for spec in self.shard_map.shards_on(group.group_id)
        }
        engine = self.server_logics[server_id] = GroupServerEngine(
            server_id, group.protocol, hosted,
            observer=self.hub.scoped("replica", server_id),
            lease_ttl=self.lease_ttl,
        )
        return engine

    def proxy_engine(
        self, proxy_id: str, site: Optional[str] = None, **settings
    ) -> ProxyEngine:
        """The engine of ingress proxy ``proxy_id``, from now on a candidate
        of its ``site`` and (with ``push_views``) a target of view pushes.

        ``settings`` are the proxy's own -- :class:`ProxyEngine`'s
        ``read_policy``, ``max_batch``, ``flush_delay`` and ``read_cache``;
        what the deployment decides is supplied here.
        """
        if site is not None:
            self.sites[proxy_id] = site
        engine = self.proxy_engines[proxy_id] = ProxyEngine(
            proxy_id,
            CachedShardView(self.shard_map),
            policy=self.retry_policy,
            observer=self.hub.scoped("proxy", proxy_id),
            lease_ttl=self.lease_ttl,
            **settings,
        )
        self._retarget_pushes()
        return engine

    def client_engine(
        self, client_id: str, recorder: KVHistoryRecorder, **settings
    ) -> ClientSessionEngine:
        """The session engine of store client ``client_id``; ``settings`` are
        the session's own -- :class:`ClientSessionEngine`'s ``max_batch``,
        ``proxy_candidates`` (see :meth:`proxy_candidates`) and ``link``."""
        return ClientSessionEngine(
            client_id,
            self.shard_map,
            recorder,
            policy=self.retry_policy,
            observer=self.hub.scoped("client", client_id),
            lease_ttl=self.lease_ttl,
            **settings,
        )

    def client_link(self, link_id: str) -> ClientLink:
        """A new link ``link_id``, for the sessions of one process to share
        (:meth:`client_engine`'s ``link``)."""
        return ClientLink(
            link_id,
            policy=self.retry_policy,
            observer=self.hub.scoped("client", link_id),
            lease_ttl=self.lease_ttl,
        )

    def proxy_candidates(self, member: Optional[str] = None) -> List[str]:
        """A client's proxy failover list: the proxies of one site, rotated.

        The site is ``member``'s -- the client itself, or the proxy it asked
        for -- and a deployment that names no sites is one site; a site with
        no proxy of its own falls back to all of them.  The list starts at
        ``member`` when that is a proxy.  Any other caller takes the next
        turn: a client's list starts that many places into its site's, and
        with no ``member`` the proxy whose turn it is stands in for it -- which
        both spreads the first assignments round-robin and staggers the
        failover targets, so one proxy's death does not stampede every
        orphaned client onto the same sibling.  Exhausting the list drops the
        client to direct replica connections.
        """
        ids = list(self.proxy_engines)
        if not ids:
            return []
        turn = self._turns
        if member not in ids:
            self._turns += 1
            if member is None:
                member = ids[turn % len(ids)]
        site = self.sites.get(member)
        pool = [proxy_id for proxy_id in ids if self.sites.get(proxy_id) == site] or ids
        start = pool.index(member) if member in pool else turn % len(pool)
        return pool[start:] + pool[:start]

    # -- the control plane --------------------------------------------------------

    @property
    def control_engine(self) -> ControlPlaneEngine:
        """The control-plane engine, built on first use: its autoscaler's
        signal is what the replicas built here served, per shard, harvested
        from their tallies at each tick (:class:`AutoscaleFeed`)."""
        if self._control is None:
            self._control = ControlPlaneEngine(
                self.shard_map,
                drain_range_size=self.drain_range_size,
                autoscale_interval=self.autoscale_interval,
                observer=self.hub.scoped("control", "control-plane"),
                feed=AutoscaleFeed(self.server_logics),
            )
            self._retarget_pushes()
        return self._control

    def _retarget_pushes(self) -> None:
        if self._control is not None:
            self._control.proxy_ids[:] = self.proxy_engines if self.push_views else ()

    def start_resize(self, new_num_shards: int) -> Tuple[MigrationReport, List[Effect]]:
        """Resize the ring *now*; the effects drain the registers over."""
        return self._started(self.control_engine.start_resize, new_num_shards)

    def start_move(
        self, shard_id: str, group_id: str
    ) -> Tuple[MigrationReport, List[Effect]]:
        """Re-home one shard onto another group *now* (same contract)."""
        return self._started(self.control_engine.start_move, shard_id, group_id)

    def _started(self, start, *args) -> Tuple[MigrationReport, List[Effect]]:
        self._retarget_pushes()  # ``push_views`` may have been switched
        report, effects = start(*args)
        self.migrations.append(report)
        return report, effects

    @property
    def view_pushes_sent(self) -> int:
        return self.control_engine.view_pushes_sent

    @property
    def view_push_acks(self) -> int:
        return self.control_engine.view_push_acks
