"""Key-value workloads, and the run skeleton both backends share.

A :class:`KVWorkload` is backend-agnostic: per-client sequences of get/put
operations over a key space, issued closed-loop with a configurable number of
operations in flight per client (``pipeline_depth``).  Pipelining is what
feeds the batching layer -- operations of one client that are in flight
together and hash to the same shard share a batch round.

Key popularity follows a Zipf-like distribution (via
:meth:`~repro.util.rng.SeededRng.zipf_index`), the shape seen by real
key-value front ends; ``key_skew=0`` gives uniform keys.

A run is ``run(KVRunConfig(...), workload)``: the :class:`KVRunConfig` holds
every setting, one field each, and its ``backend`` picks the body --
``_run_sim`` in :mod:`~repro.kvstore.sim_backend` or ``_run_asyncio`` in
:mod:`~repro.kvstore.net_backend`.  The bodies differ in how a cluster is
built and how operations are issued; what a run *is* lives here once: the
settings' per-backend defaults (:data:`BACKEND_DEFAULTS`), the checks that
refuse a setting a run would ignore, the shard map a run defaults to
(:meth:`KVRunConfig.cluster_map`), the crash-victim draw (:func:`crash_victims`),
the mid-run resize/kill triggers (:func:`arm_triggers`) and the fold of every
engine's counters into a :class:`KVRunResult` (:func:`fold_run_result`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple,
)

from ..consistency.history import History
from ..messages import DEFAULT_LEASE_TTL
from ..util.rng import SeededRng
from ..util.stats import LatencyStats, summarize
from .engine import (
    DRAIN_RANGE_SIZE,
    BatchStats,
    ClientLink,
    ClientSessionEngine,
    ReadRoutingPolicy,
    RetryPolicy,
    pick_one_proxy_per_site,
)
from .migration import MigrationReport
from .perkey import KVHistoryRecorder, PerKeyAtomicity, check_per_key_atomicity
from .sharding import ShardMap

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..observe.trace import TraceCollector
    from ..sim.delays import DelayModel
    from .engine.assembly import ClusterAssembly

__all__ = ["KVOp", "KVWorkload", "generate_workload", "KVRunConfig", "KVRunResult", "run"]


@dataclass(frozen=True)
class KVOp:
    """One key-value operation: ``get(key)`` or ``put(key, value)``."""

    kind: str  # "get" | "put"
    key: str
    value: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ("get", "put"):
            raise ValueError(f"unknown kv operation kind {self.kind!r}")
        if self.kind == "put" and self.value is None:
            raise ValueError("put requires a value")


@dataclass
class KVWorkload:
    """Per-client closed-loop operation sequences."""

    sequences: Dict[str, List[KVOp]] = field(default_factory=dict)
    pipeline_depth: int = 4

    @property
    def clients(self) -> List[str]:
        return sorted(self.sequences)

    @property
    def keys(self) -> Set[str]:
        return {op.key for ops in self.sequences.values() for op in ops}

    def total_operations(self) -> int:
        return sum(len(ops) for ops in self.sequences.values())


def generate_workload(
    num_clients: int = 4,
    ops_per_client: int = 20,
    num_keys: int = 16,
    read_fraction: float = 0.7,
    key_skew: float = 0.8,
    pipeline_depth: int = 4,
    seed: int = 0,
) -> KVWorkload:
    """A random read-heavy workload over ``num_keys`` Zipf-popular keys."""
    if not 0.0 <= read_fraction <= 1.0:
        raise ValueError("read_fraction must be within [0, 1]")
    rng = SeededRng(seed)
    keys = [f"k{i}" for i in range(1, num_keys + 1)]
    sequences: Dict[str, List[KVOp]] = {}
    for c in range(1, num_clients + 1):
        client = f"c{c}"
        ops: List[KVOp] = []
        for index in range(ops_per_client):
            if key_skew > 0:
                key = keys[rng.zipf_index(len(keys), skew=key_skew)]
            else:
                key = rng.choice(keys)
            if rng.random() < read_fraction and index > 0:
                ops.append(KVOp("get", key))
            else:
                ops.append(KVOp("put", key, f"v-{client}-{index}"))
        sequences[client] = ops
    return KVWorkload(sequences=sequences, pipeline_depth=pipeline_depth)


@dataclass
class KVRunResult:
    """What one kv-store run produces, on either backend.

    ``duration`` is virtual time on the simulator and wall-clock seconds on
    the asyncio backend; throughput is therefore comparable only within one
    backend, which is all the scaling benchmark needs.  On the simulator
    ``duration`` runs to quiescence -- past the last operation, while timers
    nobody cancels lapse (lease expiries, the engines' silence window) --
    and ``elapsed`` stops at the last completed operation, which is what
    :meth:`throughput` divides by.  ``messages_sent``
    counts frames in both directions (requests and acks) on both backends.
    """

    backend: str
    num_shards: int
    max_batch: int
    histories: Dict[str, History] = field(default_factory=dict)
    duration: float = 0.0
    #: When the last operation completed.
    elapsed: float = 0.0
    completed_ops: int = 0
    messages_sent: int = 0
    batch_stats: BatchStats = field(default_factory=BatchStats)
    read_latencies: List[float] = field(default_factory=list)
    write_latencies: List[float] = field(default_factory=list)
    #: Replica groups hosting the shards (None for pre-placement results).
    num_groups: Optional[int] = None
    #: Rounds replayed after a stale-epoch bounce (live rebalancing churn).
    stale_replays: int = 0
    #: Live-resize record ({"to", "at_ops", "keys_moved", ...}) when one ran.
    resize: Optional[Dict[str, object]] = None
    #: Ingress proxies the clients were routed through (0 = direct).
    num_proxies: int = 0
    #: The proxies' own merging/frame statistics (None when direct).
    proxy_stats: Optional[BatchStats] = None
    #: Request frames the replica servers actually served -- the replica-side
    #: message cost the proxy tier exists to shrink (both backends count it
    #: the same way, off the group servers' ``batches_served``).
    replica_frames: int = 0
    #: Sub-operations the replica servers processed across all frames -- the
    #: replica-side *work*; nearest-quorum read routing shrinks this even
    #: when merge-window dynamics keep frame counts comparable.
    replica_sub_ops: int = 0
    #: Proxy failovers the clients performed (a dead proxy re-dialed to a
    #: sibling of its site, or a fall-back to direct replica connections).
    proxy_failovers: int = 0
    #: Control-plane view pushes the proxies applied (live rebalances made
    #: visible proactively instead of via stale-epoch bounces).
    view_pushes: int = 0
    #: Record of an injected proxy kill ({"killed": [...], "at_ops": N})
    #: when the run was asked to kill one proxy per site mid-run.
    proxy_kill: Optional[Dict[str, object]] = None
    #: Sub-operations the replica tier fenced on a stale (shard, epoch) tag
    #: and bounced for replay -- the replica-side face of ``stale_replays``.
    stale_bounces: int = 0
    #: Rounds the proxies parked on a backoff timer after bouncing off a
    #: *draining* key range (distinct from stale replays, which re-route).
    drain_backoffs: int = 0
    #: Replica-bound sub-requests belonging to read operations that the
    #: proxies sent -- the traffic the read cache removes.  Counted with the
    #: cache off too (0 when clients connect direct), so a cache on/off pair
    #: of runs compares like for like.
    replica_read_subs: int = 0
    #: Read-cache / lease counters ({"hits", "misses", "invalidations",
    #: "proxy_lease_expiries", "leases_granted", "lease_expiries",
    #: "write_deferrals", "releases_carried", "releases_alone"}) when the
    #: run's proxies had a read cache.  The last two count the proxies' lease
    #: releases that rode a batch frame and the ``lease-release`` frames sent.
    cache: Optional[Dict[str, int]] = None
    #: Per-tier metrics snapshot (``MetricsRegistry.snapshot()``): counters,
    #: gauges, and latency/batch-size histograms keyed by tier.
    metrics: Optional[Dict[str, object]] = None
    #: Autoscaler record ({"actions": [...], "drains_completed": N,
    #: "ranges_drained": N}) when the run armed the autoscaler.
    autoscale: Optional[Dict[str, object]] = None
    #: The links the run's clients shared, where the backend has them: their
    #: replica side where any client rode it, and their proxy legs where any
    #: client did ({"stores": how many did, by the end of the run,
    #: **BatchStats.as_dict()} each).
    direct_link: Optional[Dict[str, object]] = None
    proxy_leg: Optional[Dict[str, object]] = None

    def throughput(self) -> float:
        """Completed operations per time unit, over the time they took."""
        return self.completed_ops / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def frames_sent(self) -> int:
        """Request frames sent by the client tier plus the proxy tier."""
        sent = self.batch_stats.frames_sent
        if self.proxy_stats is not None:
            sent += self.proxy_stats.frames_sent
        return sent

    @property
    def frames_total(self) -> int:
        """Every frame on the wire, counted once (requests at their sender,
        acks at their receiver -- see :class:`BatchStats`)."""
        total = self.batch_stats.frames_total
        if self.proxy_stats is not None:
            total += self.proxy_stats.frames_total
        return total

    def replica_frames_per_op(self) -> float:
        """Replica-served request frames per completed operation."""
        if self.completed_ops == 0:
            return 0.0
        return self.replica_frames / self.completed_ops

    def read_subs_per_op(self) -> float:
        """Replica-bound read sub-requests per completed operation -- the
        benchmark metric the read cache is judged on."""
        if self.completed_ops == 0:
            return 0.0
        return self.replica_read_subs / self.completed_ops

    def cache_hit_rate(self) -> float:
        """Cache hits / (hits + misses), 0.0 when the cache was off."""
        if not self.cache:
            return 0.0
        looked_up = self.cache["hits"] + self.cache["misses"]
        return self.cache["hits"] / looked_up if looked_up else 0.0

    def read_stats(self) -> LatencyStats:
        return summarize(self.read_latencies)

    def write_stats(self) -> LatencyStats:
        return summarize(self.write_latencies)

    def check(self) -> PerKeyAtomicity:
        """Verify each key's sub-history independently."""
        return check_per_key_atomicity(self.histories)

    def as_row(self) -> Dict[str, object]:
        verdict = self.check()
        return {
            "backend": self.backend,
            "shards": self.num_shards,
            "groups": self.num_groups if self.num_groups is not None else self.num_shards,
            "batch": self.max_batch,
            "ops": self.completed_ops,
            "throughput": self.throughput(),
            "mean_batch": self.batch_stats.mean_batch_size,
            "messages": self.messages_sent,
            "read_p50": self.read_stats().p50,
            "atomic": verdict.all_atomic,
            "proxies": self.num_proxies,
            "rep_frames": self.replica_frames,
            "rep_frames/op": round(self.replica_frames_per_op(), 2),
        }


# -- one run's configuration -----------------------------------------------------

#: Defaults on each backend's clock (the simulator's virtual time units, or
#: seconds).  Loopback rounds are sub-millisecond, so a 0.25 s autoscale window
#: is thousands of ops of signal; a 1 s lease keeps a write deferred behind a
#: crashed proxy's lease from waiting seconds (a mutating attempt outwaits it:
#: it gets ``ceil(lease_ttl / silence_window) + 1`` silence windows at least).
SIM_AUTOSCALE_INTERVAL, NET_AUTOSCALE_INTERVAL, NET_LEASE_TTL = 150.0, 0.25, 1.0

#: What a :class:`KVRunConfig` setting left ``None`` is, per backend.
BACKEND_DEFAULTS: Dict[str, Dict[str, float]] = {
    "sim": dict(service_overhead=0.2, service_per_op=0.1, lease_ttl=DEFAULT_LEASE_TTL,
                autoscale_interval=SIM_AUTOSCALE_INTERVAL, crash_horizon=20.0,
                proxy_flush_delay=0.0),
    "asyncio": dict(service_overhead=0.0, service_per_op=0.0, lease_ttl=NET_LEASE_TTL,
                    autoscale_interval=NET_AUTOSCALE_INTERVAL),
}

#: The settings only one backend has.
BACKEND_ONLY = dict(delay_model="sim", move_to="sim", crash_horizon="sim",
                    proxy_flush_delay="sim", retry_policy="asyncio")


@dataclass(frozen=True)
class KVRunConfig:
    """Everything one :func:`run` is apart from its workload, on either backend.

    A setting in time is on the backend's clock, and ``None`` takes its
    :data:`BACKEND_DEFAULTS` entry.  Construction raises ``ValueError`` for
    a setting the run would ignore: one only the other backend has
    (:data:`BACKEND_ONLY`), or one that needs another.
    """

    #: ``"sim"`` (the discrete-event simulator) or ``"asyncio"`` (loopback TCP).
    backend: str = "sim"
    #: The cluster, unless ``shard_map`` is given: every group runs the
    #: protocol with the workload's clients as its readers and writers.
    num_shards: int = 4
    num_groups: Optional[int] = None  # default: one per shard
    protocol_key: str = "abd-mwmr"
    servers_per_shard: int = 3
    max_faults: int = 1
    shard_map: Optional[ShardMap] = None
    max_batch: int = 8  # sub-operations per client batch frame
    #: A replica's service time per frame: the overhead plus the per-op cost
    #: of each sub-operation.
    service_overhead: Optional[float] = None
    service_per_op: Optional[float] = None
    delay_model: Optional["DelayModel"] = None  # default: a constant one unit
    #: The reconnect and failover windows of every component.
    retry_policy: Optional[RetryPolicy] = None
    trace_collector: Optional["TraceCollector"] = None
    #: Ingress proxies the clients are routed through, round-robin (0: direct),
    #: and how they route reads (default: a quorum first, widened on silence;
    #: with crashes keep it, or give a policy a ``spare`` >= the fault budget).
    proxies: int = 0
    read_policy: Optional[ReadRoutingPolicy] = None
    proxy_flush_delay: Optional[float] = None
    push_views: bool = True  # off: proxies learn rebalances from bounces
    #: Entries of each proxy's lease-backed read cache (0: off);
    #: ``bounded_staleness`` serves expired, uninvalidated entries for another
    #: half TTL instead of guaranteeing atomicity.
    read_cache: int = 0
    lease_ttl: Optional[float] = None
    bounded_staleness: bool = False
    #: A live resize (or shard move) once ``resize_after_ops`` operations
    #: completed (default: half the workload).
    resize_to: Optional[int] = None
    resize_after_ops: Optional[int] = None
    move_to: Optional[Tuple[str, str]] = None  # (shard_id, group_id)
    #: Kill one proxy per site once this many operations completed.
    kill_proxy_after_ops: Optional[int] = None
    #: Crash this many replicas per group (within its budget), drawn from
    #: ``crash_seed`` alike on both backends: within ``crash_horizon`` on the
    #: simulator, once a quarter of the operations completed on asyncio.
    crashes_per_group: int = 0
    crash_horizon: Optional[float] = None
    crash_seed: int = 0
    autoscale: bool = False
    autoscale_interval: Optional[float] = None
    drain_range_size: int = DRAIN_RANGE_SIZE  # keys per drained range

    def __post_init__(self) -> None:
        if self.backend not in BACKEND_DEFAULTS:
            raise ValueError(f"backend must be 'sim' or 'asyncio', not {self.backend!r}")
        for name, backend in BACKEND_ONLY.items():
            if getattr(self, name) is not None and self.backend != backend:
                raise ValueError(f"{name} is a {backend}-only setting")
        direct = self.proxies <= 0
        for refused, why in (
            (self.proxies < 0, "proxies cannot be negative"),
            (self.resize_to is not None and self.move_to is not None,
             "resize_to and move_to are two rebalances; give one"),
            (self.resize_after_ops is not None and self.resize_to is None
             and self.move_to is None, "resize_after_ops requires resize_to or move_to"),
            (self.kill_proxy_after_ops is not None and direct,
             "kill_proxy_after_ops requires proxies"),
            (self.read_cache > 0 and direct, "read_cache requires proxies"),
            ((self.read_policy, self.proxy_flush_delay) != (None, None) and direct,
             "read_policy/proxy_flush_delay require proxies"),
            ((self.lease_ttl is not None or self.bounded_staleness) and self.read_cache <= 0,
             "lease_ttl/bounded_staleness require read_cache"),
            (self.crash_horizon is not None and self.crashes_per_group <= 0,
             "crash_horizon requires crashes_per_group"),
            (self.autoscale_interval is not None and not self.autoscale,
             "autoscale_interval requires autoscale"),
        ):
            if refused:
                raise ValueError(why)

    def setting(self, name: str) -> Any:
        """Setting ``name``, or the backend's default where it is ``None``."""
        value = getattr(self, name)
        return BACKEND_DEFAULTS[self.backend][name] if value is None else value

    def cluster_map(self, clients: int) -> ShardMap:
        """``shard_map``, or the one the cluster settings build for ``clients``."""
        if self.shard_map is not None:
            return self.shard_map
        return ShardMap(
            self.num_shards, protocol_key=self.protocol_key,
            servers_per_shard=self.servers_per_shard, max_faults=self.max_faults,
            readers=clients, writers=clients, num_groups=self.num_groups,
        )


def run(config: KVRunConfig, workload: KVWorkload) -> KVRunResult:
    """Run ``workload`` closed-loop on the cluster ``config`` describes."""
    if config.backend == "sim":
        from .sim_backend import _run_sim as body
    else:
        from .net_backend import _run_asyncio as body
    return body(config, workload)


# -- the run skeleton shared by both backends ------------------------------------


def crash_victims(
    groups: Iterable[Tuple[Sequence[str], int]],
    per_group: int,
    rng: SeededRng,
    horizon: float = 1.0,
) -> List[Tuple[str, float]]:
    """Up to ``per_group`` victims of each ``(candidates, budget)`` group, with
    a crash time within ``horizon`` each: drawn in one order (a sample, then a
    time per victim) whether or not the caller uses the times, so one seed
    names the same victims on either backend."""
    drawn: List[Tuple[str, float]] = []
    for candidates, budget in groups:
        count = min(per_group, budget, len(candidates))
        if count > 0:
            drawn.extend((victim, rng.uniform(0, horizon))
                         for victim in rng.sample(candidates, count))
    return drawn


def arm_triggers(
    config: KVRunConfig,
    workload: KVWorkload,
    completed_ops: Callable[[], int],
    now: Optional[Callable[[], float]],
    rebalance: Callable[[Any], MigrationReport],
    proxies: Callable[[], Sequence[Tuple[str, Optional[str], bool]]],
    kill: Callable[[str], None],
) -> Tuple[List[Callable[[], None]], Optional[Dict[str, object]], Dict[str, object]]:
    """The fire-once hooks of a run's mid-workload events.

    Returns ``(hooks, rebalance record, kill record)``; the backend calls
    every hook after each completed operation, and each acts at the first
    completion past its threshold.  With ``config.resize_to`` (or
    ``move_to``) set, ``rebalance(resize_to)`` (or ``rebalance(shard_id)``)
    runs at ``resize_after_ops`` (default: half the workload) and its record
    -- ``to``, ``at_ops``, ``at_time`` where the backend has a clock to read,
    ``keys_moved``, ``report`` -- is refreshed when the drain completes, so it
    is final once the run is.  With ``kill_proxy_after_ops`` set, one live
    proxy per site of ``proxies()`` (``(proxy_id, site, alive)`` triples) is
    killed and the record says which.  A completion that trips both kills
    first.
    """
    rebalance_to = config.move_to[0] if config.move_to else config.resize_to

    def once_past(threshold: int, action: Callable[[], None]) -> Callable[[], None]:
        fired = False

        def hook() -> None:
            nonlocal fired
            if not fired and completed_ops() >= threshold:
                fired = True
                action()

        return hook

    hooks: List[Callable[[], None]] = []
    kill_record: Dict[str, object] = {}
    if config.kill_proxy_after_ops is not None:

        def kill_one_per_site() -> None:
            victims = pick_one_proxy_per_site(proxies())
            kill_record.update({"killed": victims, "at_ops": completed_ops()})
            for victim in victims:
                kill(victim)

        hooks.append(once_past(config.kill_proxy_after_ops, kill_one_per_site))
    if rebalance_to is None:
        return hooks, None, kill_record
    record: Dict[str, object] = {}

    def refresh(report: MigrationReport) -> None:
        record["keys_moved"] = report.keys_moved
        record["report"] = report.summary()

    def rebalance_now() -> None:
        report = rebalance(rebalance_to)
        record.update({"to": rebalance_to, "at_ops": completed_ops()})
        refresh(report)
        if now is not None:
            record["at_time"] = now()
        report.on_done(refresh)

    rebalance_after_ops = config.resize_after_ops
    if rebalance_after_ops is None:
        rebalance_after_ops = max(1, workload.total_operations() // 2)
    hooks.append(once_past(rebalance_after_ops, rebalance_now))
    return hooks, record, kill_record


def _merged(stats: Iterable[BatchStats]) -> BatchStats:
    """One :class:`BatchStats` holding the sum of ``stats``."""
    total = BatchStats()
    for part in stats:
        total.merge(part)
    return total


def fold_run_result(
    config: KVRunConfig,
    cluster: ClusterAssembly,
    duration: float,
    client_engines: Iterable[ClientSessionEngine],
    recorder: KVHistoryRecorder,
    resize: Optional[Dict[str, object]],
    proxy_kill: Dict[str, object],
    messages_sent: Optional[int] = None,
    elapsed: Optional[float] = None,
    links: Iterable[ClientLink] = (),
) -> KVRunResult:
    """Fold a finished run's cluster, clients and recorder into its result.

    Every counter is read off the sans-I/O engines, so both backends count
    the same things the same way.  ``links`` are the links the clients
    *shared* (a client's private link counts into the client's own
    ``stats``): each one's replica side and proxy legs are folded into the
    client tier once, whatever the number of sessions on it.
    ``messages_sent`` is the transport's own
    frame count where it keeps one (the simulated network); ``None`` uses
    the client and proxy tiers' ``frames_total``; ``elapsed`` is when the
    last operation completed, where that is earlier than ``duration``.
    """
    clients, proxies = list(client_engines), list(cluster.proxy_engines.values())
    logics, shard_map = cluster.server_logics.values(), cluster.shard_map
    control = cluster.control_engine
    links = list(links)
    shared = [e for e in clients if e.link in links]
    direct = sum(1 for e in shared if e.proxy_id is None)
    direct_side = _merged(link.stats for link in links)
    proxy_legs = _merged(link.proxy_stats for link in links)

    histories = recorder.histories()
    result = KVRunResult(
        backend=config.backend,
        num_shards=len(shard_map),
        max_batch=config.max_batch,
        histories=histories,
        duration=duration,
        elapsed=duration if elapsed is None else elapsed,
        completed_ops=recorder.completed_operations,
        batch_stats=_merged([e.stats for e in clients] + [direct_side, proxy_legs]),
        num_groups=len(shard_map.groups),
        stale_replays=sum(e.stale_replays for e in clients + proxies),
        resize=resize,
        num_proxies=len(proxies),
        proxy_stats=_merged(e.stats for e in proxies) if proxies else None,
        replica_frames=sum(l.batches_served for l in logics),
        replica_sub_ops=sum(l.sub_ops_served for l in logics),
        proxy_failovers=sum(e.proxy_failovers for e in clients),
        view_pushes=sum(e.view.pushes_applied for e in proxies),
        proxy_kill=proxy_kill or None,
        stale_bounces=sum(l.stale_bounces for l in logics),
        drain_backoffs=sum(e.drain_backoffs for e in proxies),
        replica_read_subs=sum(e.read_subs_sent for e in proxies),
        cache=(
            {
                "hits": sum(e.cache_hits for e in proxies),
                "misses": sum(e.cache_misses for e in proxies),
                "invalidations": sum(e.cache_invalidations for e in proxies),
                "proxy_lease_expiries": sum(e.leases_expired for e in proxies),
                "leases_granted": sum(l.leases_granted for l in logics),
                "lease_expiries": sum(l.leases_expired for l in logics),
                "write_deferrals": sum(l.write_deferrals for l in logics),
                "releases_carried": sum(e.releases_carried for e in proxies),
                "releases_alone": sum(e.releases_alone for e in proxies),
            }
            if config.read_cache and proxies
            else None
        ),
        metrics=cluster.metrics.snapshot(),
        direct_link=(
            {"stores": direct, **direct_side.as_dict()} if direct else None
        ),
        proxy_leg=(
            {"stores": len(shared) - direct, **proxy_legs.as_dict()}
            if len(shared) > direct else None
        ),
        autoscale=(
            {
                "actions": [
                    {k: v for k, v in action.items() if k != "report"}
                    for action in control.autoscale_actions
                ],
                "drains_completed": control.drains_completed,
                "ranges_drained": control.ranges_drained,
            }
            if config.autoscale
            else None
        ),
    )
    result.messages_sent = (
        messages_sent if messages_sent is not None else result.frames_total
    )
    for history in histories.values():
        result.read_latencies.extend(
            op.latency for op in history.reads if op.latency is not None
        )
        result.write_latencies.extend(
            op.latency for op in history.writes if op.latency is not None
        )
    return result
