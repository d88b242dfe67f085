"""The key-value store on the discrete-event simulator: the sim adapter.

All protocol behaviour -- round lifecycle, batching, stale-epoch replay,
proxy merging, failover, view-push adoption -- lives in the shared sans-I/O
engines of :mod:`repro.kvstore.engine`, and their effects are interpreted by
its :class:`~repro.kvstore.engine.runtime.EffectRuntime`.  This module only
gives each runtime the simulator's transport:

* :class:`KVClientProcess` / :class:`ProxyProcess` /
  :class:`ControlPlaneProcess` wrap a *built*
  :class:`~repro.kvstore.engine.client.ClientSessionEngine` /
  :class:`~repro.kvstore.engine.proxy.ProxyEngine` /
  :class:`~repro.kvstore.engine.control.ControlPlaneEngine` in a network
  :class:`~repro.sim.process.Process`: ``send`` goes through the simulated
  network and ``schedule`` is the virtual-clock event queue's.
  ``Connect`` effects succeed immediately (the
  simulated network needs no dialing), and the network reports no delivery
  failures -- a crashed process's traffic is dropped *silently*, which is
  exactly why the client engine's watchdog timer
  (:data:`~repro.kvstore.engine.effects.SIM_RETRY_POLICY`) carries proxy
  failover here.

* :class:`BatchReplicaProcess` wraps a
  :class:`~repro.kvstore.engine.server.GroupServerEngine` with a simple
  queueing model of server capacity: handling a batch costs
  ``service_overhead`` plus ``service_per_op`` per sub-operation of *service
  time*, and a busy server queues work.  This is what makes group count
  matter in virtual time.

* :class:`SimKVCluster` is a
  :class:`~repro.kvstore.engine.assembly.ClusterAssembly` -- the recipe both
  backends get their engines, observers and control plane from -- on one
  virtual clock: it puts a process around every engine the assembly builds,
  and :meth:`SimKVCluster.resize` / :meth:`SimKVCluster.move_shard` run the
  effects of a live rebalance (pumping the queue when called from
  quiescence); :class:`KVFailureInjector` crashes replicas within each
  group's fault budget.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Deque, Dict, List, Mapping, Optional, Set

from ..core.operations import OpKind
from ..messages import DEFAULT_LEASE_TTL, Message
from ..observe.trace import TraceCollector
from ..protocols.base import OperationOutcome
from ..sim.clock import EventQueue
from ..sim.delays import ConstantDelay, DelayModel
from ..sim.failures import CrashPlan, FailureInjector
from ..sim.network import Network
from ..sim.process import Process
from ..util.rng import SeededRng
from .engine import (
    DRAIN_RANGE_SIZE,
    PROXY_FAILOVER_TIMEOUT,
    SIM_RETRY_POLICY,
    BatchStats,
    ClientSessionEngine,
    ControlPlaneEngine,
    Effect,
    EffectRuntime,
    GroupServerEngine,
    OpFailed,
    ReadRoutingPolicy,
    SendFrame,
)
from .engine.assembly import ClusterAssembly
from .migration import MigrationReport
from .perkey import KVHistoryRecorder
from .sharding import ShardMap
from .workload import (
    SIM_AUTOSCALE_INTERVAL,
    KVRunConfig,
    KVRunResult,
    KVWorkload,
    arm_triggers,
    crash_victims,
    fold_run_result,
)

__all__ = [
    "BatchReplicaProcess",
    "KVClientProcess",
    "ProxyProcess",
    "ControlPlaneProcess",
    "KVFailureInjector",
    "SimKVCluster",
    "run_sim_kv_workload",
    "SIM_DRAIN_RETRY_DELAY",
    "SIM_AUTOSCALE_INTERVAL",
]

#: How long the drain waits for a replica's ack before resending, on the
#: virtual clock (hops are ~1 unit, service tenths).
SIM_DRAIN_RETRY_DELAY = 40.0


class BatchReplicaProcess(Process):
    """A group replica with service-time queueing on the virtual clock.

    The engine's sends (batch-acks with the lease grants they carry, lease
    invalidations, drain acks) are what the modeled service time delays: a request's frames are
    released ``service`` after the replica is free, and are not engine
    timers -- nothing observes them and they never reach ``on_timer``.  Its
    lease timers go straight onto the virtual-clock event queue -- a
    lease's deadline is wall time from the grant, not from whenever the
    replica's queue drains -- and what a fired timer sends leaves at once.
    """

    def __init__(
        self,
        server_id: str,
        logic: GroupServerEngine,
        events: EventQueue,
        service_overhead: float = 0.2,
        service_per_op: float = 0.1,
    ) -> None:
        super().__init__(server_id)
        self.logic = logic
        self.events = events
        self.service_overhead = service_overhead
        self.service_per_op = service_per_op
        self.busy_until = 0.0
        self._send_delay = 0.0
        self.runtime = EffectRuntime(logic, events.schedule, self._send_after_service)

    def on_message(self, message: Message) -> None:
        # State transitions apply at delivery (preserving arrival order);
        # only the *replies* are held back by the modeled service time.
        # Drain frames charge per key exactly like batches charge per
        # sub-op, so the pause a migration imposes on a replica grows with
        # the range size -- the knob the incremental drain exists to bound.
        payload = message.payload
        batch_size = len(payload.get("ops", ()) or payload.get("keys", ())) or 1
        effects = self.logic.on_frame(message)
        service = self.service_overhead + self.service_per_op * batch_size
        now = self.events.clock.now
        finish = max(now, self.busy_until) + service
        self.busy_until = finish
        self._send_delay = finish - now
        try:
            self.runtime.run(effects)
        finally:
            self._send_delay = 0.0

    def _send_after_service(self, effect: SendFrame) -> None:
        if self._send_delay <= 0:
            self.send(effect.frame)
        else:
            self.events.schedule(self._send_delay, partial(self.send, effect.frame))


class _EngineProcess(Process):
    """A process that feeds a built sans-I/O engine and executes its effects.

    ``SendFrame`` goes through the simulated network and timers onto the
    virtual-clock event queue.
    """

    #: The runtime's ``connect`` / ``complete`` hooks: only a client has them.
    _connect = _complete = None

    def __init__(self, process_id: str, events: EventQueue, engine) -> None:
        super().__init__(process_id)
        self.engine = engine
        self.runtime = EffectRuntime(
            engine, events.schedule, lambda effect: self.send(effect.frame),
            connect=self._connect, complete=self._complete,
        )

    def on_message(self, message: Message) -> None:
        self.runtime.run(self.engine.on_frame(message))


class KVClientProcess(_EngineProcess):
    """A store client on the virtual clock: one client-session engine.

    The engine multiplexes per-key operations into group batches (or one
    ``"proxy"`` frame per flush through the client's ingress proxy) and owns
    proxy failover over the candidate list it was built with: its watchdog
    timer detects a proxy that stops answering -- a crashed sim process drops
    traffic silently, so there is no connection reset to observe.
    ``Connect`` effects succeed immediately: the simulated network routes by
    process id, there is nothing to dial.
    """

    def __init__(
        self,
        client_id: str,
        events: EventQueue,
        engine: ClientSessionEngine,
        completion_hook: Optional[Callable[[], None]] = None,
    ) -> None:
        super().__init__(client_id, events, engine)
        self.completion_hook = completion_hook
        self._callbacks: Dict[str, Callable[[OperationOutcome], None]] = {}
        if engine.proxy_id is not None:
            # The simulated network needs no dialing: confirm the ingress.
            self.runtime.run(engine.on_connected(engine.proxy_id))

    # -- invoking operations ----------------------------------------------------

    def put(
        self,
        key: str,
        value,
        on_complete: Optional[Callable[[OperationOutcome], None]] = None,
    ) -> str:
        """Invoke ``put(key, value)``; returns the operation id."""
        return self._invoke(OpKind.WRITE, key, value, on_complete)

    def get(
        self, key: str, on_complete: Optional[Callable[[OperationOutcome], None]] = None
    ) -> str:
        """Invoke ``get(key)``; returns the operation id."""
        return self._invoke(OpKind.READ, key, None, on_complete)

    def _invoke(self, kind: OpKind, key: str, value, on_complete) -> str:
        op_id, effects = self.engine.invoke(kind, key, value)
        if on_complete is not None:
            self._callbacks[op_id] = on_complete
        self.runtime.run(effects)
        return op_id

    def _connect(self, target: str) -> List[Effect]:
        return self.engine.on_connected(target)  # nothing to dial

    def _complete(self, effect) -> None:
        if isinstance(effect, OpFailed):
            self._callbacks.pop(effect.op_id, None)
            raise effect.error
        callback = self._callbacks.pop(effect.op_id, None)
        if callback is not None:
            callback(effect.outcome)
        if self.completion_hook is not None:
            self.completion_hook()

    # -- introspection (the engine owns the state) ------------------------------

    @property
    def proxy_id(self) -> Optional[str]:
        return self.engine.proxy_id

    @property
    def proxy_failovers(self) -> int:
        return self.engine.proxy_failovers

    @property
    def stale_replays(self) -> int:
        return self.engine.stale_replays

    @property
    def batch_stats(self) -> BatchStats:
        return self.engine.stats


class ProxyProcess(_EngineProcess):
    """A site-local ingress proxy on the virtual clock: one proxy engine."""

    @property
    def view(self):
        return self.engine.view

    @property
    def stale_replays(self) -> int:
        return self.engine.stale_replays


class ControlPlaneProcess(_EngineProcess):
    """The cluster control plane on the virtual clock: one control engine.

    Registered on the network as ``"control-plane"``, it receives the
    replicas' drain acks and the proxies' view-push acks, and executes the
    engine's effects -- drain frames through the simulated network, retry
    and autoscale timers on the virtual-clock event queue.
    """

    def __init__(self, engine: ControlPlaneEngine, events: EventQueue) -> None:
        super().__init__(engine.control_id, events, engine)


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
                cluster.events, cluster.network, group.servers, group.max_faults
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


class SimKVCluster(ClusterAssembly):
    """All replica groups of a :class:`ShardMap` plus clients on one clock.

    The engines, their observers and the control plane are the
    :class:`~repro.kvstore.engine.assembly.ClusterAssembly`'s; this class
    puts each in a process of the simulated network.

    ``sites`` (optional, the process->site shape ``GeoDelay`` takes) makes
    the ingress tier site-aware: each client is assigned a proxy of its own
    site when one exists, and its failover candidate list is restricted to
    that site's proxies -- exhausting them drops the client to direct
    replica connections.  Without sites, all proxies form one site.

    ``push_views`` has the control plane push the fresh shard-map view to
    every live proxy at each :meth:`resize`/:meth:`move_shard` (one
    ``view-push`` frame per proxy through the simulated network), so in the
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
        delay_model: Optional[DelayModel] = None,
        max_batch: int = 8,
        service_overhead: float = 0.2,
        service_per_op: float = 0.1,
        num_proxies: int = 0,
        read_policy: Optional[ReadRoutingPolicy] = None,
        proxy_flush_delay: float = 0.0,
        sites: Optional[Mapping[str, str]] = None,
        push_views: bool = True,
        proxy_timeout: float = PROXY_FAILOVER_TIMEOUT,
        trace_collector: Optional[TraceCollector] = None,
        drain_range_size: int = DRAIN_RANGE_SIZE,
        autoscale_interval: float = SIM_AUTOSCALE_INTERVAL,
        read_cache: int = 0,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        bounded_staleness: bool = False,
    ) -> None:
        if proxy_timeout <= 0:
            raise ValueError("proxy_timeout must be positive")
        self.events = EventQueue()
        super().__init__(
            shard_map,
            lambda: self.events.clock.now,
            SIM_RETRY_POLICY.with_failover_timeout(proxy_timeout),
            lease_ttl=lease_ttl,
            drain_range_size=drain_range_size,
            autoscale_interval=autoscale_interval,
            push_views=push_views,
            sites=sites,
            trace_collector=trace_collector,
        )
        self.network = Network(self.events, delay_model or ConstantDelay())
        self.recorder = KVHistoryRecorder(lambda: self.events.clock.now)
        self.crashed_proxies: Set[str] = set()
        self._completion_watchers: List[Callable[[], None]] = []
        self.replicas: Dict[str, BatchReplicaProcess] = {}
        for server_id in shard_map.all_servers:
            self.replicas[server_id] = self._attached(BatchReplicaProcess(
                server_id, self.server_engine(server_id), self.events,
                service_overhead=service_overhead, service_per_op=service_per_op,
            ))
        self.proxies: Dict[str, ProxyProcess] = {}
        for proxy_id in (f"p{index}" for index in range(1, num_proxies + 1)):
            self.proxies[proxy_id] = self._attached(ProxyProcess(
                proxy_id, self.events, self.proxy_engine(
                    proxy_id, read_policy=read_policy, flush_delay=proxy_flush_delay,
                    read_cache=read_cache, bounded_staleness=bounded_staleness,
                ),
            ))
        # Control-plane timing on the virtual clock (the engine's default
        # resend delay is in seconds).
        self.control_engine.retry_delay = SIM_DRAIN_RETRY_DELAY
        self.control = self._attached(ControlPlaneProcess(self.control_engine, self.events))
        self.clients: Dict[str, KVClientProcess] = {}
        for client_id in client_ids:
            engine = self.client_engine(
                client_id, self.recorder, max_batch=max_batch,
                proxy_candidates=self.proxy_candidates(client_id),
            )
            self.clients[client_id] = self._attached(KVClientProcess(
                client_id, self.events, engine, self._notify_completion
            ))

    def _attached(self, process):
        process.attach(self.network)
        return process

    # -- live control plane -----------------------------------------------------

    def resize(self, new_num_shards: int) -> MigrationReport:
        """Resize the ring *now*: metadata flips, the drain runs as frames.

        The shard map and view pushes update synchronously; the register
        drain proceeds over ``drain-*`` frames on the virtual clock.  Called
        from quiescence (no :meth:`run` on the stack) this pumps the event
        queue until the drain completes, so the returned report's counters
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
        """Run a rebalance's effects, and pump the queue to drain completion
        -- only from quiescence.

        Inside :meth:`run` the already-running loop delivers the drain
        frames; pumping here too would double-execute events.
        """
        self.control.runtime.run(effects)
        if not self.events.running:
            while not report.done:
                event = self.events.pop()
                if event is None:
                    break
                event.action()
        return report

    # -- the autoscaler ---------------------------------------------------------

    def start_autoscaler(self) -> None:
        """Arm the control plane's recurring autoscale tick."""
        self.control.runtime.run(self.control_engine.start_autoscaler())

    def stop_autoscaler(self) -> None:
        """Disarm the tick so the event queue can drain to quiescence."""
        self.control.runtime.run(self.control_engine.stop_autoscaler())

    def crash_proxy(self, proxy_id: str) -> None:
        """Crash an ingress proxy *now*: the network drops its traffic.

        Proxies hold no register state, so no drain is needed; clients
        behind it detect the silence via their failover watchdog, re-dial a
        sibling of the site (or go direct), and replay in-flight rounds.
        """
        if proxy_id not in self.proxies:
            raise KeyError(f"unknown proxy {proxy_id!r}")
        self.network.crash(proxy_id)
        self.crashed_proxies.add(proxy_id)

    def schedule_proxy_crash(self, proxy_id: str, at: float) -> None:
        """Crash ``proxy_id`` at virtual time ``at`` (mid-run, under load)."""
        if proxy_id not in self.proxies:
            raise KeyError(f"unknown proxy {proxy_id!r}")
        self.events.schedule_at(
            at, lambda: self.crash_proxy(proxy_id), label=f"crash:{proxy_id}"
        )

    def failure_injector(self) -> KVFailureInjector:
        """A crash injector enforcing each group's fault budget."""
        return KVFailureInjector(self)

    def add_completion_watcher(self, watcher: Callable[[], None]) -> None:
        """Call ``watcher`` after every completed operation (e.g. to trigger
        a resize once a threshold of the workload has run)."""
        self._completion_watchers.append(watcher)

    def _notify_completion(self) -> None:
        for watcher in self._completion_watchers:
            watcher()

    # -- running ----------------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: int = 5_000_000) -> None:
        """Run the virtual clock to quiescence (or a deadline)."""
        self.events.run(until=until, max_events=max_events)

    def batch_stats(self) -> BatchStats:
        merged = BatchStats()
        for client in self.clients.values():
            merged.merge(client.batch_stats)
        return merged

    def stale_replays(self) -> int:
        return sum(client.stale_replays for client in self.clients.values()) + sum(
            proxy.stale_replays for proxy in self.proxies.values()
        )

    def view_pushes_applied(self) -> int:
        return sum(proxy.view.pushes_applied for proxy in self.proxies.values())


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
    cluster = SimKVCluster(
        shard_map,
        clients,
        delay_model=config.delay_model,
        max_batch=config.max_batch,
        service_overhead=config.setting("service_overhead"),
        service_per_op=config.setting("service_per_op"),
        num_proxies=config.proxies,
        read_policy=config.read_policy,
        proxy_flush_delay=config.setting("proxy_flush_delay"),
        push_views=config.push_views,
        trace_collector=config.trace_collector,
        drain_range_size=config.drain_range_size,
        autoscale_interval=config.setting("autoscale_interval"),
        read_cache=config.read_cache,
        lease_ttl=config.setting("lease_ttl"),
        bounded_staleness=config.bounded_staleness,
    )

    def completed_ops() -> int:
        return cluster.recorder.completed_operations

    def now() -> float:
        return cluster.events.clock.now

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
            if cluster.control.engine.autoscaling and completed_ops() >= total_ops:
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
            for pid in cluster.proxies
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

    def make_issuer(client: KVClientProcess, remaining: Deque) -> Callable:
        # A factory so each client's chain closes over its own issuer; a
        # loop-local closure would resolve to the last client's at call time.
        def issue_next(_outcome=None) -> None:
            if not remaining:
                return
            op = remaining.popleft()
            if op.kind == "put":
                client.put(op.key, op.value, on_complete=issue_next)
            else:
                client.get(op.key, on_complete=issue_next)

        return issue_next

    depth = max(1, workload.pipeline_depth)
    for client_id in clients:
        issue_next = make_issuer(
            cluster.clients[client_id], deque(workload.sequences[client_id])
        )
        for _ in range(depth):
            cluster.events.schedule(0.0, issue_next, label=f"kv-start:{client_id}")

    cluster.run()
    return fold_run_result(
        config,
        cluster,
        duration=now(),
        elapsed=finished,
        client_engines=(client.engine for client in cluster.clients.values()),
        recorder=cluster.recorder,
        resize=resize_info,
        proxy_kill=kill_record,
        messages_sent=cluster.network.sent_count,
    )
