"""The key-value store on the discrete-event simulator: the sim adapter.

All protocol behaviour -- round lifecycle, batching, stale-epoch replay,
proxy merging, failover, view-push adoption -- lives in the shared sans-I/O
engines of :mod:`repro.kvstore.engine`, and the simulated world they run in
is its :class:`~repro.kvstore.engine.fabric.Fabric`: per-connection FIFO
delays drawn from the run's delay model, each replica's service queue,
silent crashes and the virtual clock.  This module only assembles that
world:

* :class:`SimKVCluster` is a
  :class:`~repro.kvstore.engine.assembly.ClusterAssembly` -- the recipe both
  backends get their engines, observers and control plane from -- that
  registers every engine the assembly builds on one fabric.  A client is not
  a process of the fabric: the clients of one site (the assembly's
  ``sites``, by default the delay model's
  :meth:`~repro.sim.delays.DelayModel.site_of`; a client without a site is
  at one place with the others) are sessions on one
  :class:`~repro.kvstore.engine.link.ClientLink`, and the link is the
  process -- ``link-1``, ``link-2``, ... in the order the sites first appear
  -- as every store of one event loop rides one link on asyncio.  So their
  rounds share one frame per replica or proxy and one query per key, in
  virtual time as over loopback.  The delay model sees a link's frames as
  those of one of its clients.  Clients invoke
  through :meth:`SimKVCluster.invoke`; ``Connect`` succeeds at once (the
  simulated network needs no dialing), and a crashed process's traffic is
  dropped *silently*, which is exactly why the link's watchdog
  timer (:data:`~repro.kvstore.engine.effects.SIM_RETRY_POLICY`) carries
  proxy failover here.  :meth:`SimKVCluster.resize` /
  :meth:`SimKVCluster.move_shard` run the effects of a live rebalance
  (pumping the clock when called from quiescence).

* :class:`KVFailureInjector` crashes replicas within each group's fault
  budget.

The register-level simulator (:mod:`repro.sim`) keeps the paper's own
model -- non-FIFO channels with skip rules and an interceptor -- and this
module imports none of its network, process or clock.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Mapping, Optional, Set

from ..core.operations import OpKind
from ..protocols.base import OperationOutcome
from ..sim.delays import ConstantDelay, DelayModel
from ..sim.failures import CrashPlan, FailureInjector
from ..util.rng import SeededRng
from .engine import BatchStats, ClientLink, ClientSessionEngine, Effect
from .engine.assembly import ClusterAssembly
from .engine.fabric import Fabric
from .migration import MigrationReport
from .perkey import KVHistoryRecorder
from .sharding import ShardMap
from .workload import (
    KVRunConfig,
    KVRunResult,
    KVWorkload,
    arm_triggers,
    backend_config,
    crash_victims,
    fold_run_result,
)

__all__ = [
    "KVFailureInjector",
    "SimKVCluster",
    "run_sim_kv_workload",
    "SIM_DRAIN_RETRY_DELAY",
]

#: How long the drain waits for a replica's ack before resending, on the
#: virtual clock (hops are ~1 unit, service tenths).
SIM_DRAIN_RETRY_DELAY = 40.0


class KVFailureInjector:
    """Crash injection for a kv cluster, enforcing per-group fault budgets.

    Wraps one :class:`~repro.sim.failures.FailureInjector` per replica group
    so an experiment can crash up to ``t`` replicas *of each group* -- the
    failure model every group's register protocol claims to tolerate --
    without ever exceeding a budget by accident.
    """

    def __init__(self, cluster: "SimKVCluster") -> None:
        self.cluster = cluster
        self._by_group: Dict[str, FailureInjector] = {}
        self._group_of: Dict[str, str] = {}
        for group_id, group in cluster.shard_map.groups.items():
            self._by_group[group_id] = FailureInjector(
                cluster.fabric, cluster.crash, group.servers, group.max_faults
            )
            for server_id in group.servers:
                self._group_of[server_id] = group_id

    def schedule_crash(self, server_id: str, time: float) -> CrashPlan:
        """Crash one replica at ``time`` (within its group's budget)."""
        return self._by_group[self._group_of[server_id]].schedule_crash(
            server_id, time
        )

    def schedule_proxy_crash(self, proxy_id: str, time: float) -> CrashPlan:
        """Crash an ingress proxy at ``time``.

        Proxies are stateless relays outside every group's ``t`` budget --
        killing one loses no register state and no quorum member, which is
        exactly why clients can ride it out by failing over.
        """
        self.cluster.schedule_proxy_crash(proxy_id, time)
        return CrashPlan(proxy_id, time)

    def schedule_random_crashes(
        self, per_group: int, horizon: float, rng: SeededRng
    ) -> List[CrashPlan]:
        """Crash up to ``per_group`` random replicas of every group within
        ``horizon``, never exceeding what remains of a group's budget."""
        groups = []
        for injector in self._by_group.values():
            doomed = {
                plan.process_id
                for plan in injector.plans
                if plan.process_id in injector.server_ids
            } | injector.crashed_servers
            groups.append((
                [s for s in injector.server_ids if s not in doomed],
                injector.max_server_faults - len(doomed),
            ))
        return [
            self.schedule_crash(victim, at)
            for victim, at in crash_victims(groups, per_group, rng, horizon)
        ]

    @property
    def crashed_servers(self) -> Set[str]:
        crashed: Set[str] = set()
        for injector in self._by_group.values():
            crashed |= injector.crashed_servers
        return crashed


#: A workload op's kind -> the register operation it invokes.
_KINDS = {"put": OpKind.WRITE, "get": OpKind.READ}


def _link_delay(model: DelayModel, stand_ins: Mapping[str, str]) -> Callable[[str, str], float]:
    """``model.delay`` with each link id read as its stand-in client, so a
    link's frames take the delays its clients' would."""
    draw = model.delay

    def delay(source: str, destination: str) -> float:
        return draw(stand_ins.get(source, source), stand_ins.get(destination, destination))

    return delay


class SimKVCluster(ClusterAssembly):
    """All replica groups of a :class:`ShardMap` plus clients on one clock.

    The engines, their observers and the control plane are the
    :class:`~repro.kvstore.engine.assembly.ClusterAssembly`'s; this class
    registers each on :attr:`fabric`, the simulated world: frames take the
    config's ``delay_model`` draws, first-in first-out per connection as
    over TCP (the lease protocol relies on it), and replicas queue their
    replies behind ``service_overhead + service_per_op`` per sub-operation.
    :attr:`clients` maps each client id to its session engine, and
    :attr:`links` each link id to the link its site's sessions share (the
    fabric process their frames and timers reach).

    ``sites`` (optional, the process->site shape ``GeoDelay`` takes) places
    the clients and makes the ingress tier site-aware: the clients of one
    site share a link, each client is assigned a proxy of its own site when
    one exists, and its failover candidate list is restricted to that
    site's proxies -- exhausting them drops the client to direct replica
    connections.  Without ``sites`` the clients' sites are the delay
    model's (:meth:`~repro.sim.delays.DelayModel.site_of`) and the proxies
    have none, so all proxies form one site.

    Every setting is ``config``'s (``None``: ``KVRunConfig()``), read here
    once -- ``config.proxies`` proxies ``p1..pN`` included; the shard map is
    the caller's (:meth:`KVRunConfig.cluster_map`), and the run-level
    settings (triggers, crashes, ``autoscale``) are :func:`run`'s.

    ``push_views`` has the control plane push the fresh shard-map view to
    every live proxy at each :meth:`resize`/:meth:`move_shard` (one
    ``view-push`` frame per proxy through the fabric), so in the
    steady state a rebalance costs the proxies zero stale-epoch replays;
    the epoch-fence bounce remains as the safety net for rounds already in
    flight and for pushes racing them.  Each push is a per-rebalance
    *delta* -- only the fenced/added/removed entries, O(moved) instead of
    O(shards).
    """

    def __init__(
        self,
        shard_map: ShardMap,
        client_ids: List[str],
        config: Optional[KVRunConfig] = None,
        *,
        sites: Optional[Mapping[str, str]] = None,
    ) -> None:
        config = backend_config(config, "sim", "SimKVCluster")
        model = config.delay_model or ConstantDelay()
        if sites is None:
            placed = ((client_id, model.site_of(client_id)) for client_id in client_ids)
            sites = {client_id: site for client_id, site in placed if site is not None}
        #: Link id -> one of its clients, whom the delay model is asked about.
        self._stand_ins: Dict[str, str] = {}
        self.fabric = Fabric(_link_delay(model, self._stand_ins), raise_failures=True)
        super().__init__(
            shard_map,
            lambda: self.fabric.now,
            config.setting("retry_policy"),
            lease_ttl=config.setting("lease_ttl"),
            drain_range_size=config.drain_range_size,
            autoscale_interval=config.setting("autoscale_interval"),
            push_views=config.push_views,
            sites=sites,
            trace_collector=config.trace_collector,
        )
        self.recorder = KVHistoryRecorder(lambda: self.fabric.now)
        self.crashed_proxies: Set[str] = set()
        service = (config.setting("service_overhead"), config.setting("service_per_op"))
        for server_id in shard_map.all_servers:
            self.fabric.register(server_id, self.server_engine(server_id), service)
        for proxy_id in (f"p{index}" for index in range(1, config.proxies + 1)):
            self.fabric.register(proxy_id, self.proxy_engine(
                proxy_id, read_policy=config.read_policy,
                flush_delay=config.setting("proxy_flush_delay"),
                read_cache=config.read_cache,
            ))
        # Control-plane timing on the virtual clock (the engine's default
        # resend delay is in seconds).
        self.control_engine.retry_delay = SIM_DRAIN_RETRY_DELAY
        self.fabric.register(self.control_engine.control_id, self.control_engine)
        #: Link id -> the link of one client site, in the order the sites
        #: first appear among ``client_ids``.
        self.links: Dict[str, ClientLink] = {}
        self.clients: Dict[str, ClientSessionEngine] = {}
        by_site: Dict[Optional[str], ClientLink] = {}
        for client_id in client_ids:
            site = self.sites.get(client_id)
            link = by_site.get(site)
            if link is None:
                link = by_site[site] = self._add_link(client_id)
            session = self.clients[client_id] = self.client_engine(
                client_id, self.recorder, max_batch=config.max_batch,
                proxy_candidates=self.proxy_candidates(client_id), link=link,
            )
            if session.proxy_id is not None:
                # The simulated network needs no dialing: confirm the ingress.
                self.fabric.execute(link.link_id, link.on_connected(session.proxy_id))

    def _add_link(self, client_id: str) -> ClientLink:
        """A new site's link, registered on the fabric as one process; the
        delay model sees its frames as ``client_id``'s."""
        link_id = f"link-{len(self.links) + 1}"
        link = self.links[link_id] = self.client_link(link_id)
        self._stand_ins[link_id] = client_id
        self.fabric.register(link_id, link)
        return link

    def invoke(
        self,
        client_id: str,
        kind: str,
        key: str,
        value=None,
        on_complete: Optional[Callable[[OperationOutcome], None]] = None,
    ) -> str:
        """Invoke ``kind`` (``"put"`` or ``"get"``) of ``key`` at the client
        registered as ``client_id``; returns the operation id.

        ``on_complete`` gets the outcome; an operation that fails for good
        raises its error out of :meth:`run`.
        """
        session = self.clients[client_id]
        op_id, effects = session.invoke(_KINDS[kind], key, value)
        if on_complete is not None:
            self.fabric.callbacks[op_id] = on_complete
        self.fabric.execute(session.link.link_id, effects)
        return op_id

    # -- live control plane -----------------------------------------------------

    def resize(self, new_num_shards: int) -> MigrationReport:
        """Resize the ring *now*: metadata flips, the drain runs as frames.

        The shard map and view pushes update synchronously; the register
        drain proceeds over ``drain-*`` frames on the virtual clock.  Called
        from quiescence (no :meth:`run` on the stack) this pumps the clock
        until the drain completes, so the returned report's counters
        are final -- the old synchronous contract.  Called mid-run (e.g.
        from a workload trigger) it returns immediately and the drain
        interleaves with client traffic; ``report.on_done`` fires when the
        last range installs.
        """
        return self._settle(*self.start_resize(new_num_shards))

    def move_shard(self, shard_id: str, group_id: str) -> MigrationReport:
        """Re-home one shard onto another group *now*."""
        return self._settle(*self.start_move(shard_id, group_id))

    def _settle(self, report: MigrationReport, effects: List[Effect]) -> MigrationReport:
        """Run a rebalance's effects, and pump the clock to drain completion
        -- only from quiescence.

        Inside :meth:`run` the already-running loop delivers the drain
        frames; pumping here too would double-execute actions.
        """
        self.fabric.execute(self.control_engine.control_id, effects)
        if not self.fabric.running:
            while not report.done and self.fabric.step():
                pass
        return report

    # -- the autoscaler ---------------------------------------------------------

    def start_autoscaler(self) -> None:
        """Arm the control plane's recurring autoscale tick."""
        self.fabric.execute(
            self.control_engine.control_id, self.control_engine.start_autoscaler()
        )

    def stop_autoscaler(self) -> None:
        """Disarm the tick so the clock can run to quiescence."""
        self.fabric.execute(
            self.control_engine.control_id, self.control_engine.stop_autoscaler()
        )

    # -- crashes ----------------------------------------------------------------

    def crash(self, process_id: str) -> None:
        """Crash ``process_id`` *now*: the fabric drops its traffic silently."""
        self.fabric.down.add(process_id)

    def crash_proxy(self, proxy_id: str) -> None:
        """Crash an ingress proxy *now*: the fabric drops its traffic.

        Proxies hold no register state, so no drain is needed; clients
        behind it detect the silence via their failover watchdog, re-dial a
        sibling of the site (or go direct), and replay in-flight rounds.
        """
        if proxy_id not in self.proxy_engines:
            raise KeyError(f"unknown proxy {proxy_id!r}")
        self.crash(proxy_id)
        self.crashed_proxies.add(proxy_id)

    def schedule_proxy_crash(self, proxy_id: str, at: float) -> None:
        """Crash ``proxy_id`` at virtual time ``at`` (mid-run, under load)."""
        if proxy_id not in self.proxy_engines:
            raise KeyError(f"unknown proxy {proxy_id!r}")
        self.fabric.schedule_at(at, lambda: self.crash_proxy(proxy_id))

    def failure_injector(self) -> KVFailureInjector:
        """A crash injector enforcing each group's fault budget."""
        return KVFailureInjector(self)

    def add_completion_watcher(self, watcher: Callable[[], None]) -> None:
        """Call ``watcher`` after every completed operation (e.g. to trigger
        a resize once a threshold of the workload has run)."""
        self.fabric.watchers.append(watcher)

    # -- running ----------------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: int = 5_000_000) -> None:
        """Run the virtual clock to quiescence (or through ``until``)."""
        self.fabric.run(until=until, max_events=max_events)

    def batch_stats(self) -> BatchStats:
        """Every link's frames, its replica side and its proxy legs."""
        merged = BatchStats()
        for link in self.links.values():
            merged.merge(link.stats)
            merged.merge(link.proxy_stats)
        return merged

    def stale_replays(self) -> int:
        return sum(client.stale_replays for client in self.clients.values()) + sum(
            proxy.stale_replays for proxy in self.proxy_engines.values()
        )

    def view_pushes_applied(self) -> int:
        return sum(proxy.view.pushes_applied for proxy in self.proxy_engines.values())


def run_sim_kv_workload(
    workload: KVWorkload, use_proxy: bool = False, num_proxies: int = 1, **settings
) -> KVRunResult:
    """``run(KVRunConfig(**settings), workload)`` in keywords, with
    ``use_proxy`` / ``num_proxies`` for ``proxies``: kept only until its last
    caller moves to :class:`~repro.kvstore.workload.KVRunConfig`."""
    config = KVRunConfig(proxies=num_proxies if use_proxy else 0, **settings)
    return _run_sim(config, workload)


def _run_sim(config: KVRunConfig, workload: KVWorkload) -> KVRunResult:
    """:func:`~repro.kvstore.workload.run` on the simulator, in virtual time."""
    clients = workload.clients
    shard_map = config.cluster_map(len(clients))
    cluster = SimKVCluster(shard_map, clients, config)

    def completed_ops() -> int:
        return cluster.recorder.completed_operations

    def now() -> float:
        return cluster.fabric.now

    # Throughput is over the time the operations took: after the last one
    # the queue still drains timers nobody cancels (a lapsing silence window,
    # lease expiries) and the stragglers of the last quorum.
    finished = 0.0

    def note_completion() -> None:
        nonlocal finished
        finished = now()

    cluster.add_completion_watcher(note_completion)

    if config.autoscale:
        cluster.start_autoscaler()
        # The tick rearms itself forever; disarm it once the workload is
        # done so the event queue can drain to quiescence (any migration
        # the last tick launched still completes -- its frames and retry
        # timers are ordinary events).
        total_ops = workload.total_operations()

        def stop_when_done() -> None:
            if cluster.control_engine.autoscaling and completed_ops() >= total_ops:
                cluster.stop_autoscaler()

        cluster.add_completion_watcher(stop_when_done)

    # A single-shard move rides the same trigger; the record's ``to`` field
    # carries the moved shard instead of a shard count.
    move = config.move_to
    hooks, resize_info, kill_record = arm_triggers(
        config,
        workload,
        completed_ops,
        now,
        cluster.resize if move is None else (lambda _shard: cluster.move_shard(*move)),
        proxies=lambda: [
            (pid, cluster.sites.get(pid), pid not in cluster.crashed_proxies)
            for pid in cluster.proxy_engines
        ],
        kill=cluster.crash_proxy,
    )
    for hook in hooks:
        cluster.add_completion_watcher(hook)

    if config.crashes_per_group > 0:
        cluster.failure_injector().schedule_random_crashes(
            config.crashes_per_group, config.setting("crash_horizon"),
            SeededRng(config.crash_seed),
        )

    def make_issuer(client_id: str, remaining: Deque) -> Callable:
        # A factory so each client's chain closes over its own issuer; a
        # loop-local closure would resolve to the last client's at call time.
        def issue_next(_outcome=None) -> None:
            if remaining:
                op = remaining.popleft()
                cluster.invoke(client_id, op.kind, op.key, op.value, issue_next)

        return issue_next

    depth = max(1, workload.pipeline_depth)
    for client_id in clients:
        issue_next = make_issuer(client_id, deque(workload.sequences[client_id]))
        for _ in range(depth):
            cluster.fabric.schedule(0.0, issue_next)

    cluster.run()
    return fold_run_result(
        config,
        cluster,
        duration=now(),
        elapsed=finished,
        client_engines=cluster.clients.values(),
        links=cluster.links.values(),
        recorder=cluster.recorder,
        resize=resize_info,
        proxy_kill=kill_record,
        messages_sent=cluster.fabric.sent,
    )
