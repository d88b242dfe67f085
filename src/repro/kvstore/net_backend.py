"""The key-value store on the real asyncio TCP transport: the net adapter.

All protocol behaviour -- round lifecycle, batching, stale-epoch replay,
proxy merging, failover, view-push adoption -- lives in the shared sans-I/O
engines of :mod:`repro.kvstore.engine`, which engine each node runs is the
:class:`~repro.kvstore.engine.assembly.ClusterAssembly`'s recipe, and the
engines' effects are interpreted by the
:class:`~repro.kvstore.engine.runtime.EffectRuntime`; this module only gives
each runtime asyncio's transport.  Every process of the store that keeps
connections is one *owner* (:class:`_Owner`): an engine, its runtime, and the
:class:`~repro.asyncio_net.endpoint.Endpoint` that holds them -- accepted or
dialled, redialled or reported when lost -- and nothing else here keeps a
connection.  Frames are decoded inside ``data_received`` and fed to the
owning engine in the same event-loop turn, and its effects -- sends included
-- execute synchronously, so no task exists per frame or per send:

* :class:`AsyncKVCluster` is the assembly on loopback TCP: it starts one
  :class:`~repro.asyncio_net.server.ReplicaServer` per replica-group server
  (each hosting a :class:`~repro.kvstore.engine.server.GroupServerEngine`),
  plus optional :class:`ProxyServer` ingress proxies, and binds the control
  plane to an owner of its own (:class:`_ControlPlane`), which dials the
  replicas and proxies at the first :meth:`AsyncKVCluster.resize` /
  ``move_shard`` / ``start_autoscaler`` -- not before.
* :class:`KVStore` is the client facade: ``await get/put/multi_get/multi_put``
  drive a :class:`~repro.kvstore.engine.client.ClientSessionEngine`, which
  rides the *link* of its cluster and event loop (:class:`_ClientLink`)
  whether it talks to the replicas directly or through a proxy: one
  :class:`~repro.kvstore.engine.link.ClientLink`, one effect runtime and one
  connection per peer for every store of the process, so rounds of different
  stores opened in the same turn of the loop leave in one frame per replica,
  or one per proxy.  A store keeps no connection, runtime or timer of its
  own.  Connection losses are reported back into the engines, which own
  replay and proxy failover.
* :class:`SyncKVStore` wraps a :class:`KVStore` for synchronous callers via
  a background event-loop thread.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import os
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..asyncio_net.codec import FrameError, encode_message
from ..asyncio_net.endpoint import Endpoint
from ..asyncio_net.server import ReplicaServer
from ..core.operations import OpKind
from ..messages import VIEW_PUSH_ACK_KIND, VIEW_PUSH_KIND, Message
from ..observe.trace import TraceCollector
from ..protocols.base import OperationOutcome
from ..util.rng import SeededRng
from .engine import (
    DEFAULT_RETRY_POLICY,
    DIRECT_INGRESS,
    DRAIN_RANGE_SIZE,
    BatchStats,
    ClientLink,
    ClientSessionEngine,
    ControlPlaneEngine,
    Effect,
    EffectRuntime,
    OpCompleted,
    OpFailed,
    ProxyEngine,
    ReadRoutingPolicy,
    RetryPolicy,
    SendFrame,
)
from .engine.assembly import ClusterAssembly
from .migration import MigrationReport
from .perkey import KVHistoryRecorder, PerKeyAtomicity, check_per_key_atomicity
from .sharding import ShardMap
from .workload import (
    NET_AUTOSCALE_INTERVAL,
    NET_LEASE_TTL,
    KVRunConfig,
    KVRunResult,
    KVWorkload,
    arm_triggers,
    crash_victims,
    fold_run_result,
)
from ._sync import LoopThread, run_sync

__all__ = ["AsyncKVCluster", "ProxyServer", "KVStore", "SyncKVStore", "RetryPolicy"]

logger = logging.getLogger(__name__)


def _call_later(delay: float, callback: Callable[[], None]) -> asyncio.TimerHandle:
    """An :class:`EffectRuntime`'s ``schedule`` on the running event loop."""
    return asyncio.get_running_loop().call_later(delay, callback)


class _Owner:
    """An engine on the asyncio event loop: engine + runtime + endpoint.

    The :class:`~repro.kvstore.engine.runtime.EffectRuntime` interprets the
    engine's effects; the :class:`~repro.asyncio_net.endpoint.Endpoint` holds
    its connections, feeds it every frame they deliver and tells it of the
    peers it lost for good; this class joins the two with ``send`` -- one
    lookup, encode, write.  Its I/O tasks are the endpoint's, so
    :meth:`close` leaves nothing behind.  What happens to a lost connection
    the owner dialled -- redialled, or reported and forgotten -- each dial
    says for its peer (:meth:`~repro.asyncio_net.endpoint.Endpoint.dial`).
    """

    def __init__(self, engine, **client_hooks) -> None:
        self.engine = engine
        self.runtime = EffectRuntime(engine, _call_later, self._send, **client_hooks)
        self.endpoint = Endpoint(self._on_frame, self._on_peer_lost)

    # ``on_frame`` / ``on_peer_lost`` are looked up on the engine per call:
    # tests and the benchmark's tracer wrap them on the engine instance after
    # the stack is built.

    def _on_frame(self, frame: Message) -> None:
        self.runtime.run(self.engine.on_frame(frame))

    def _on_peer_lost(self, peer_id: str, exc: BaseException) -> None:
        self.runtime.run(self.engine.on_peer_lost(peer_id))

    def _send(self, effect: SendFrame) -> Optional[List[Effect]]:
        """Write one frame; what the engine makes of a frame that cannot go
        out is handed back to join the batch being run."""
        failed = self._write(effect)
        if failed is None:
            return None
        return self.engine.on_frame_undeliverable(
            effect.frame, failed[0], retryable=failed[1]
        )

    def _write(self, effect: SendFrame) -> Optional[Tuple[BaseException, bool]]:
        """One lookup, encode, write -- or why not, and whether trying again
        later could help."""
        connection = self.endpoint.peers.get(effect.destination)
        if connection is None or connection.closing:
            # The peer is down and its redial has not landed yet; report the
            # loss instead of writing into a dead socket -- the engine's
            # replay (or failover) logic takes over.
            return ConnectionResetError(
                f"connection to {effect.destination} is down"
            ), True
        try:
            data = encode_message(effect.frame)
        except FrameError as exc:
            # Not a connection death (an oversized frame): fail the affected
            # rounds with the real error, but keep the connection usable.
            return exc, False
        # Nothing waits for the write to reach the peer: a connection that
        # dies after it reports through its lost path, and the engine's
        # silence timer covers what that misses.
        connection.send(data)
        return None

    async def close(self) -> None:
        """Cancel every timer and task, close every connection."""
        self.runtime.shutdown()
        await self.endpoint.close()


#: How long :meth:`AsyncKVCluster.stop` waits for another thread's event loop
#: to close the stores connected on it (seconds).
STOP_WAIT = 5.0


class _ControlPlane(_Owner):
    """The control plane on the asyncio event loop: the control engine's owner.

    It reaches its peers like every other owner: it dials each replica and
    proxy by address (``addresses``, the cluster's live table of what is
    listening where), keeps the connections in its endpoint -- redialled when
    lost -- and the ``drain-*-ack`` and ``view-push-ack`` frames come back
    over them into the engine.  It dials *lazily*: setting a cluster up opens
    no control-plane connection, the first :meth:`submit` does, and whatever
    is submitted while dials are landing waits its turn behind them, so no
    frame of a first use is lost to a connection that is not there yet.

    A frame whose peer is down when its turn comes is dropped, which is
    indistinguishable from a lost frame: the engine's retry timer resends a
    drain frame, and after ``max_retries`` the replica is treated as dead for
    the rest of the migration (the same ``t``-fault budget the quorums
    tolerate); a view push has no retry -- ``restart_proxy`` refreshes the
    view of a proxy that missed one.
    """

    def __init__(
        self,
        engine: ControlPlaneEngine,
        reconnect_interval: float,
        addresses: Mapping[str, Tuple[str, int]],
    ) -> None:
        super().__init__(engine)
        self.reconnect_interval = reconnect_interval
        self.addresses = addresses
        #: Whether the peers have been dialled (since then, a peer that
        #: starts listening later is dialled as it comes up).
        self.dialled = False
        #: Effect batches waiting for dials to land, in submission order; a
        #: task is working through them exactly while there are any.
        self._backlog: List[Sequence[Effect]] = []
        #: The connection of every view push written and not acked yet.
        self._pushes: List[Any] = []

    def submit(self, effects: Sequence[Effect]) -> None:
        """Run ``effects`` once every known peer has been dialled."""
        self._backlog.append(effects)
        if len(self._backlog) == 1:
            self.endpoint.spawn(self._dial_then_run())

    async def _dial_then_run(self) -> None:
        for peer_id, address in list(self.addresses.items()):
            await self.endpoint.dial(peer_id, *address, redial=self.reconnect_interval)
        self.dialled = True
        backlog, self._backlog = self._backlog, []
        for effects in backlog:
            self.runtime.run(effects)

    def _send(self, effect: SendFrame) -> None:
        if self._write(effect) is None and effect.frame.kind == VIEW_PUSH_KIND:
            self._pushes.append(self.endpoint.peers[effect.destination])

    def _on_frame(self, frame: Message) -> None:
        if frame.kind == VIEW_PUSH_ACK_KIND:
            # Acks come back in order over the connection the pushes went out on.
            connection = self.endpoint.peers.get(frame.sender)
            if connection in self._pushes:
                self._pushes.remove(connection)
        super()._on_frame(frame)

    def _on_peer_lost(self, peer_id: str, exc: BaseException) -> None:
        """Nobody redials ``peer_id`` any more: its frames are dropped like
        any dead peer's, and the engine's retries give up on it."""

    async def flush(self) -> None:
        """Wait until everything submitted has gone out and every view push
        in it was acked -- or lost the connection it was written to."""
        while self._backlog or not all(c.closing for c in self._pushes):
            await asyncio.sleep(0.005)
        self._pushes.clear()

    async def close(self) -> None:
        await super().close()
        self._backlog.clear()


class AsyncKVCluster(ClusterAssembly):
    """All group replicas of a :class:`ShardMap` listening on loopback TCP.

    The engines, their observers and the control plane are the
    :class:`~repro.kvstore.engine.assembly.ClusterAssembly`'s; this class
    puts each behind a listening owner.
    """

    def __init__(
        self,
        shard_map: ShardMap,
        host: str = "127.0.0.1",
        service_overhead: float = 0.0,
        service_per_op: float = 0.0,
        retry_policy: Optional[RetryPolicy] = None,
        push_views: bool = True,
        trace_collector: Optional[TraceCollector] = None,
        drain_range_size: int = DRAIN_RANGE_SIZE,
        autoscale_interval: float = NET_AUTOSCALE_INTERVAL,
        lease_ttl: float = NET_LEASE_TTL,
    ) -> None:
        super().__init__(
            shard_map,
            time.monotonic,
            retry_policy or DEFAULT_RETRY_POLICY,
            lease_ttl=lease_ttl,
            drain_range_size=drain_range_size,
            autoscale_interval=autoscale_interval,
            push_views=push_views,
            trace_collector=trace_collector,
        )
        self.host = host
        self.service_overhead = service_overhead
        self.service_per_op = service_per_op
        self.replicas: Dict[str, ReplicaServer] = {}
        self.proxies: Dict[str, "ProxyServer"] = {}
        #: Where every replica and proxy listens (stable across kill/restart).
        self._addresses: Dict[str, Tuple[str, int]] = {}
        #: The link of every event loop that has a connected store.
        self._links: Dict[asyncio.AbstractEventLoop, _ClientLink] = {}
        self._control_plane = _ControlPlane(
            self.control_engine, self.retry_policy.reconnect_interval, self._addresses
        )

    #: The control-plane engine (its owner is internal).
    control = ClusterAssembly.control_engine

    async def start(self) -> None:
        for server_id in self.shard_map.all_servers:
            replica = ReplicaServer(
                self.server_engine(server_id),
                host=self.host,
                service_overhead=self.service_overhead,
                service_per_op=self.service_per_op,
            )
            await replica.start()
            self.replicas[server_id] = replica
            self._addresses[server_id] = (replica.host, replica.port)

    async def stop(self) -> None:
        """Stop everything the cluster started -- and close every store still
        connected: its operations, in flight or later, fail with
        ``ConnectionError`` at once instead of waiting on replicas that are
        gone, and its link stops redialling them."""
        for link in list(self._links.values()):
            if link.loop is asyncio.get_running_loop():
                await link.close_stores()
            elif link.loop.is_running():  # a store on another thread's loop
                closing = asyncio.run_coroutine_threadsafe(link.close_stores(), link.loop)
                try:
                    await asyncio.wait_for(asyncio.wrap_future(closing), STOP_WAIT)
                except asyncio.TimeoutError:
                    logger.warning(
                        "the loop of %s did not close its stores within %.1f s; "
                        "stopping the cluster without it", link.engine.link_id, STOP_WAIT,
                    )
        # A link whose loop is blocked, or no longer runs, is let go of: its
        # replicas are about to be gone, and nothing here may wait for it.
        self._links.clear()
        await self._control_plane.close()
        for proxy in self.proxies.values():
            await proxy.stop()
        self.proxies.clear()
        for replica in self.replicas.values():
            await replica.stop()
        self.replicas.clear()
        self._addresses.clear()

    async def dial_replicas(self, endpoint: Endpoint) -> None:
        """Connect ``endpoint`` to every replica of every group.

        Idempotent per replica, and a replica that is down is redialled in
        the background: the failover path may land here while a replica is
        also down, or twice at once, and must neither wedge nor dial twice.
        """
        for server_id in self.replicas:
            await endpoint.dial(
                server_id, *self._addresses[server_id],
                redial=self.retry_policy.reconnect_interval,
            )

    def _join_link(self, store: "KVStore") -> "_ClientLink":
        """The running loop's link, with ``store`` among its stores."""
        link = self._links.get(asyncio.get_running_loop())
        if link is None:
            link = _ClientLink(self)
            self._links[link.loop] = link
        link.stores.add(store)
        return link

    async def _leave_link(self, link: "_ClientLink", store: "KVStore") -> None:
        """``store`` closed; the last one out shuts the link down."""
        link.stores.discard(store)
        if not link.stores:
            self._links.pop(link.loop, None)  # stop() may have let go of it
            await link.close()

    # -- ingress proxies ---------------------------------------------------------

    async def start_proxies(
        self,
        num_proxies: int = 1,
        read_policy: Optional[ReadRoutingPolicy] = None,
        max_batch: int = 64,
        site: Optional[str] = None,
        read_cache: int = 0,
        bounded_staleness: bool = False,
    ) -> List[str]:
        """Start ``num_proxies`` site-local ingress proxies; returns their ids.

        Proxies are stateless, so they can be started (and pointed at) any
        time after :meth:`start`; each owns its own connections to every
        replica group and merges forwarded rounds across the client
        connections it accepts.  ``site`` tags the started proxies with a
        deployment site: failover (:meth:`proxy_candidates`) only re-dials
        proxies of the *same* site, so call once per site to model a
        multi-site ingress tier.  With no sites, all proxies form one.
        """
        started: List[str] = []
        for _ in range(num_proxies):
            proxy_id = f"p{len(self.proxies) + 1}"
            engine = self.proxy_engine(
                proxy_id, read_policy=read_policy, max_batch=max_batch,
                read_cache=read_cache, bounded_staleness=bounded_staleness, site=site,
            )
            proxy = ProxyServer(engine, self, host=self.host)
            await proxy.start()
            self.proxies[proxy_id] = proxy
            self._addresses[proxy_id] = (proxy.host, proxy.port)
            started.append(proxy_id)
        if self._control_plane.dialled:
            self._control_plane.submit(())  # dials the newcomers
        return started

    def proxy_endpoint(self, proxy_id: str) -> Tuple[str, int]:
        return self._addresses[proxy_id]

    async def kill_proxy(self, proxy_id: str) -> None:
        """Kill one ingress proxy: stop listening and sever its connections.

        Mirrors :meth:`kill_server`.  Stores connected to it observe the
        severed connection and fail over to another proxy of the same site
        (or to direct replica connections), replaying their in-flight rounds
        under fresh attempt scopes; the replicas never notice.
        """
        await self.proxies[proxy_id].stop()

    async def restart_proxy(self, proxy_id: str) -> None:
        """Restart a killed proxy on its original port.

        Proxies are stateless, so a restart is just a rebind -- plus a view
        refresh, because rebalances during the outage are invisible to a
        process that was not there to receive their pushes."""
        proxy = self.proxies[proxy_id]
        if not proxy.running:
            await proxy.start()
            proxy.view.refresh()

    # -- replica kill / restart --------------------------------------------------

    async def kill_server(self, server_id: str) -> None:
        """Kill one replica: stop listening and sever its live connections.

        Clients and proxies ride it out: sends to the dead replica fail (a
        quorum of ``S - t`` among the survivors still completes every
        round), their connections go into reconnect, and rounds that lost
        too many sends are replayed once a quorum is reachable again.
        """
        await self.replicas[server_id].stop()

    async def restart_server(self, server_id: str) -> None:
        """Restart a killed replica on its original port with its surviving
        state (the crash-recovery model: register state is stable storage).
        Reconnecting clients resume using it transparently."""
        replica = self.replicas[server_id]
        if not replica.running:
            await replica.start()

    # -- live control plane ------------------------------------------------------

    def _on_the_loop(self, method: str) -> _ControlPlane:
        """The control plane, for a caller that is on a running event loop:
        it can send nothing without one, so a rebalance must not begin."""
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            raise RuntimeError(
                f"AsyncKVCluster.{method}() needs a running event loop: "
                "call it from a coroutine or a callback of the cluster's loop"
            ) from None
        return self._control_plane

    def resize(self, new_num_shards: int) -> MigrationReport:
        """Live-resize the ring: metadata flips now, the drain runs as frames.

        The metadata flip is synchronous -- no ``await`` between the ring
        change and the epoch bumps, so no frame can be processed half-way
        through the cutover -- and the returned report's shard-set fields
        are final immediately.  The register drain then proceeds in the
        background over ``drain-*`` frames, one key range at a time;
        ``report.on_done`` fires (and the data counters fill) when the last
        range installs.  Await :meth:`flush_migrations` to block on it.
        Raises ``RuntimeError``, with the map untouched, when no event loop
        is running.
        """
        control_plane = self._on_the_loop("resize")
        report, effects = self.start_resize(new_num_shards)
        control_plane.submit(effects)
        return report

    def move_shard(self, shard_id: str, group_id: str) -> MigrationReport:
        """Live-move one shard onto another group (same contract)."""
        control_plane = self._on_the_loop("move_shard")
        report, effects = self.start_move(shard_id, group_id)
        control_plane.submit(effects)
        return report

    async def flush_migrations(self, timeout: float = 30.0) -> None:
        """Wait until every started migration's drain has completed."""
        deadline = time.monotonic() + timeout
        while any(not report.done for report in self.migrations):
            if time.monotonic() >= deadline:
                raise TimeoutError("migration drain did not complete in time")
            await asyncio.sleep(0.005)

    async def flush_view_pushes(self) -> None:
        """Wait for every outstanding view push to be applied (or fail)."""
        await self._control_plane.flush()

    # -- the autoscaler ----------------------------------------------------------

    def start_autoscaler(self) -> None:
        """Arm the control plane's recurring autoscale tick."""
        self._on_the_loop("start_autoscaler").submit(self.control.start_autoscaler())

    def stop_autoscaler(self) -> None:
        self._on_the_loop("stop_autoscaler").submit(self.control.stop_autoscaler())


class ProxyServer(_Owner):
    """One site-local ingress proxy over TCP: one proxy engine.

    Accepts client connections speaking ``"proxy"``/``"proxy-ack"`` frames
    and feeds them (plus control-plane ``"view-push"`` frames and the
    replicas' ``"batch-ack"`` replies) into a shared
    :class:`~repro.kvstore.engine.proxy.ProxyEngine`, which owns shard
    resolution, read routing, cross-client merging, stale-epoch replay and
    the silence watchdog over its rounds.  Its endpoint holds both sides: the connection it dialled
    to every replica (redialled when lost) and the ones its clients opened --
    one per client process and loop -- over which their acks go back, one
    frame per connection for every round an input completes.
    """

    def __init__(
        self,
        engine: ProxyEngine,
        cluster: AsyncKVCluster,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__(engine)
        self.cluster = cluster
        self.host = host
        self.port = port

    @property
    def view(self):
        return self.engine.view

    @property
    def stale_replays(self) -> int:
        return self.engine.stale_replays

    @property
    def running(self) -> bool:
        return self.endpoint.listening

    def batch_stats(self) -> BatchStats:
        """Replica-side merging/frame statistics (cumulative across any
        kill/restart -- the engine outlives the connections)."""
        return self.engine.stats.copy()

    async def start(self) -> None:
        """(Re)start the proxy; after a kill, the same port is rebound so
        the cluster's advertised proxy endpoint stays stable."""
        if self.running:
            return
        try:
            await self.cluster.dial_replicas(self.endpoint)
            self.port = await self.endpoint.listen(self.host, self.port)
        except BaseException:
            # Cancelled mid-dial, or the port is taken: what did connect
            # must not outlive a proxy that never came up.
            await self.close()
            raise

    async def stop(self) -> None:
        await self.close()
        # Clients behind a killed proxy fail over and replay under fresh
        # attempt scopes; drop the stranded rounds so a restart acks no
        # ghosts (frame accounting lives in the engine and survives).
        self.engine.sever()


_LINK_IDS = itertools.count(1)


class _ClientLink(_Owner):
    """One process's link for a cluster's stores, on one event loop.

    Every :class:`KVStore` of the cluster and loop rides it, direct or behind
    a proxy: one :class:`~repro.kvstore.engine.link.ClientLink` multiplexing
    all their rounds, one effect runtime holding its timers, and one endpoint
    holding one connection per peer -- to every replica, dialled when the
    first store needs them and redialled when lost, and to every proxy a
    store is on, dialled at the first ``Connect`` to it and reported once
    when lost (every session on it fails over).  Stores keep their own
    session engines (identity, per-key order, recorder, candidate list);
    everything they return is executed here.  The cluster creates the link
    for the first store that connects on a loop and closes it when the last
    one closes; another loop -- the thread of a :class:`SyncKVStore` -- gets
    another link.
    """

    def __init__(self, cluster: "AsyncKVCluster") -> None:
        self.cluster = cluster
        self.loop = asyncio.get_running_loop()
        # Replicas and proxies answer over the connection whose frames named
        # the sender, so the wire id is unique among everything that may dial
        # them.
        link_id = f"link-{os.getpid()}-{next(_LINK_IDS)}"
        super().__init__(
            ClientLink(
                link_id,
                policy=cluster.retry_policy,
                observer=cluster.hub.scoped("client", link_id),
                lease_ttl=cluster.lease_ttl,
            ),
            connect=self._connect,
            complete=self.complete,
        )
        #: Every connected store of the loop.
        self.stores: "set[KVStore]" = set()
        #: op id -> (the future its caller awaits, the store it belongs to).
        self.waiting: Dict[str, Tuple[asyncio.Future, KVStore]] = {}
        self._dialled = False

    async def connect(self, target: str) -> None:
        """Establish ``target`` -- a proxy, or the replicas -- and hand it to
        every session waiting on it.  A proxy that cannot be reached raises
        its ``OSError``; the endpoint keeps the connections up from then on
        (the replicas' redialled, a proxy's loss reported), and the other
        stores find them there."""
        if target != DIRECT_INGRESS:
            await self.endpoint.dial(target, *self.cluster.proxy_endpoint(target))
        elif not self._dialled:
            await self.cluster.dial_replicas(self.endpoint)
            self._dialled = True
        self.runtime.run(self.engine.on_connected(target))

    def _connect(self, target: str) -> None:
        """Execute a ``Connect`` effect: dial off the effect pump."""
        self.endpoint.spawn(self._failing_over(target))

    async def _failing_over(self, target: str) -> None:
        try:
            await self.connect(target)
        except OSError:
            # The candidate is dead too; its sessions keep walking their lists.
            self.runtime.run(self.engine.on_connect_failed(target))

    async def close_stores(self) -> None:
        """Close every store on the link; the last one out closes the link."""
        for store in list(self.stores):
            await store.close()

    def complete(self, effect: Union[OpCompleted, OpFailed]) -> None:
        future, store = self.waiting.pop(effect.op_id, (None, None))
        if future is None or future.done():
            return
        if isinstance(effect, OpFailed):
            future.set_exception(effect.error)
            return
        future.set_result(effect.outcome)
        if store.completion_hook is not None:
            store.completion_hook()


class KVStore:
    """The async client facade of the sharded store.

    One store instance represents one logical client: operations on the same
    key are serialized per key (keeping per-key sub-histories well-formed)
    while operations on different keys run concurrently and share batch
    rounds whenever their shards live on the same replica group.  All of
    that -- and stale-epoch replay, and proxy failover -- is the shared
    :class:`~repro.kvstore.engine.client.ClientSessionEngine`; this class
    adapts it to asyncio, and each operation awaits a future resolved by the
    engine's completion effect.

    A store opens no connections of its own: it rides the link of its
    cluster and event loop (:class:`_ClientLink`) with every other store of
    the process, so its rounds share frames with *theirs* too -- under its
    own client id, which is all the replicas' per-client bookkeeping sees --
    to the replicas directly or, with ``use_proxy``, through a site-local
    ingress proxy started via :meth:`AsyncKVCluster.start_proxies` (pass
    ``True`` to be assigned a proxy round-robin or a proxy id to pick one,
    e.g. the client's own site).  At connect time the store learns the full
    proxy list of its proxy's site (:meth:`AsyncKVCluster.proxy_candidates`);
    when the link loses that proxy the engine re-dials the next candidate
    (through ``Connect`` effects) and replays its in-flight rounds under a
    fresh failover generation, falling back to the replicas when the site is
    exhausted.

    A store behind a proxy started with ``read_cache`` (see
    :meth:`AsyncKVCluster.start_proxies`) gets lease-backed cached reads
    transparently: hot-key gets are acked straight from the proxy's cache
    with no replica round, and its puts invalidate the proxy's own entry
    before they dispatch, so the store observes the same atomic register it
    would without the cache.

    :meth:`close` fails whatever the store still has in flight with
    ``ConnectionError`` and leaves the link to the other stores.
    """

    def __init__(
        self,
        cluster: AsyncKVCluster,
        client_id: str = "kv1",
        max_batch: int = 8,
        recorder: Optional[KVHistoryRecorder] = None,
        use_proxy: Union[bool, str, None] = None,
    ) -> None:
        self.cluster = cluster
        self.client_id = client_id
        self.max_batch = max_batch
        base = time.monotonic()
        self.recorder = recorder or KVHistoryRecorder(lambda: time.monotonic() - base)
        self.use_proxy = use_proxy
        self.completion_hook: Optional[Any] = None
        self._engine: Optional[ClientSessionEngine] = None
        self._link: Optional[_ClientLink] = None  # held while connected

    @property
    def engine(self) -> ClientSessionEngine:
        if self._engine is None:
            raise RuntimeError("KVStore is not connected; call connect() first")
        return self._engine

    @property
    def stale_replays(self) -> int:
        return self._engine.stale_replays if self._engine is not None else 0

    @property
    def proxy_failovers(self) -> int:
        return self._engine.proxy_failovers if self._engine is not None else 0

    # -- connecting --------------------------------------------------------------

    async def connect(self) -> None:
        """Join the link of the running loop and reach the store's ingress;
        a connected store returns at once."""
        if self._link is not None:
            return
        cluster = self.cluster
        candidates: List[str] = []
        if self.use_proxy is True:  # round-robin over the proxy tier
            candidates = cluster.proxy_candidates()
            if not candidates:
                raise RuntimeError("no proxies started; call start_proxies() first")
        elif self.use_proxy:
            if self.use_proxy not in cluster.proxies:
                raise KeyError(self.use_proxy)
            candidates = cluster.proxy_candidates(self.use_proxy)
        link = self._link = cluster._join_link(self)
        self._engine = cluster.client_engine(
            self.client_id, self.recorder, max_batch=self.max_batch,
            proxy_candidates=candidates, link=link.engine,
        )
        try:
            await link.connect(candidates[0] if candidates else DIRECT_INGRESS)
        except BaseException:
            await self.close()
            raise

    async def close(self) -> None:
        link = self._link
        if link is None:
            return  # never connected, or closed already
        self._link = None
        link.runtime.run(self._engine.close())
        await self.cluster._leave_link(link, self)

    # -- operations --------------------------------------------------------------

    async def put(self, key: str, value: Any) -> OperationOutcome:
        """Write ``value`` to ``key`` through the key's register."""
        return await self._run_op(OpKind.WRITE, key, value)

    async def get(self, key: str) -> Any:
        """Read ``key``; returns the value (``None`` if never written)."""
        outcome = await self._run_op(OpKind.READ, key)
        return outcome.value

    async def multi_get(self, keys: Sequence[str]) -> Dict[str, Any]:
        """Read many keys concurrently (same-group keys share batch rounds)."""
        values = await asyncio.gather(*(self.get(key) for key in keys))
        return dict(zip(keys, values))

    async def multi_put(self, items: Mapping[str, Any]) -> None:
        """Write many keys concurrently (same-group keys share batch rounds)."""
        pairs = list(items.items())
        await asyncio.gather(*(self.put(key, value) for key, value in pairs))

    async def _run_op(self, kind: OpKind, key: str, value: Any = None) -> OperationOutcome:
        engine = self.engine  # raises if not connected
        link = self._link
        if link is None:
            raise ConnectionError(f"store {self.client_id} is closed")
        future = asyncio.get_running_loop().create_future()
        op_id, effects = engine.invoke(kind, key, value)
        link.waiting[op_id] = (future, self)
        link.runtime.run(effects)
        try:
            return await future
        finally:
            link.waiting.pop(op_id, None)

    # -- introspection -----------------------------------------------------------

    def batch_stats(self) -> BatchStats:
        """Coalescing/frame statistics of the ingress this store's rounds take.

        They are the *link's*: the frames of every store of the process and
        loop on that ingress -- its replica side for a direct store, its
        proxy legs behind a proxy -- which no single store owns once rounds
        of several ride one frame (a snapshot).  Each frame is counted once,
        at the link, so a run's total is each link's two sides, each taken
        once (as ``KVRunResult.batch_stats`` does) -- not the sum of this
        over the stores.
        """
        if self._engine is None:
            return BatchStats()
        link = self._engine.link
        return (link.stats if self._engine.proxy_id is None else link.proxy_stats).copy()

    def frames_sent(self) -> int:
        return self.batch_stats().frames_sent

    def frames_total(self) -> int:
        """Request frames sent plus ack frames received -- the same counting
        the simulator's ``Network.sent_count`` uses, so the two backends'
        message numbers are comparable."""
        return self.batch_stats().frames_total

    def histories(self):
        return self.recorder.histories()

    def check(self) -> PerKeyAtomicity:
        """Per-key atomicity verdict over everything this store recorded."""
        return check_per_key_atomicity(self.histories())


class SyncKVStore:
    """Synchronous facade: a private cluster + store on a background loop.

    Starts its own :class:`AsyncKVCluster` and :class:`KVStore` on a daemon
    event-loop thread, so plain synchronous code can use the sharded store
    without touching asyncio::

        with SyncKVStore(num_shards=4, num_groups=2) as store:
            store.put("user:7", "ada")
            store.resize(8)                      # live rebalance
            assert store.get("user:7") == "ada"
    """

    def __init__(
        self,
        num_shards: int = 2,
        protocol_key: str = "abd-mwmr",
        servers_per_shard: int = 3,
        max_faults: int = 1,
        max_batch: int = 8,
        client_id: str = "kv-sync",
        shard_map: Optional[ShardMap] = None,
        num_groups: Optional[int] = None,
    ) -> None:
        self._loop_thread = LoopThread()
        if shard_map is None:
            shard_map = ShardMap(
                num_shards, protocol_key=protocol_key, servers_per_shard=servers_per_shard,
                max_faults=max_faults, num_groups=num_groups,
            )
        self._cluster = AsyncKVCluster(shard_map)
        self._store = KVStore(self._cluster, client_id=client_id, max_batch=max_batch)
        self._closed = False
        try:
            self._loop_thread.call(self._setup())
        except BaseException:
            # Construction failed: tear down whatever started so the loop
            # thread (and any bound replicas) do not outlive the exception.
            self._closed = True
            try:
                self._loop_thread.call(self._teardown(), timeout=10.0)
            except Exception:
                pass
            self._loop_thread.stop()
            raise

    async def _setup(self) -> None:
        await self._cluster.start()
        await self._store.connect()

    # -- synchronous API ---------------------------------------------------------

    def put(self, key: str, value: Any) -> None:
        self._loop_thread.call(self._store.put(key, value))

    def get(self, key: str) -> Any:
        return self._loop_thread.call(self._store.get(key))

    def multi_get(self, keys: Sequence[str]) -> Dict[str, Any]:
        return self._loop_thread.call(self._store.multi_get(keys))

    def multi_put(self, items: Mapping[str, Any]) -> None:
        self._loop_thread.call(self._store.multi_put(items))

    def resize(self, new_num_shards: int) -> MigrationReport:
        """Live-resize the ring and wait for its drain to complete.

        The async cluster drains in the background; a synchronous caller
        has nothing else to overlap with, so block until the report's data
        counters are final -- the old synchronous contract.
        """

        async def _do() -> MigrationReport:
            report = self._cluster.resize(new_num_shards)
            await self._cluster.flush_migrations()
            return report

        return self._loop_thread.call(_do())

    def move_shard(self, shard_id: str, group_id: str) -> MigrationReport:
        """Live-move one shard onto another replica group (blocking)."""

        async def _do() -> MigrationReport:
            report = self._cluster.move_shard(shard_id, group_id)
            await self._cluster.flush_migrations()
            return report

        return self._loop_thread.call(_do())

    def batch_stats(self) -> BatchStats:
        return self._store.batch_stats()

    def check(self) -> PerKeyAtomicity:
        return self._store.check()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._loop_thread.call(self._teardown())
        finally:
            self._loop_thread.stop()

    async def _teardown(self) -> None:
        await self._store.close()
        await self._cluster.stop()

    def __enter__(self) -> "SyncKVStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _run_asyncio(config: KVRunConfig, workload: KVWorkload) -> KVRunResult:
    """:func:`~repro.kvstore.workload.run` over loopback TCP.

    Every workload client becomes one :class:`KVStore` (its own identity and
    per-key order), all sharing one replica cluster, one history recorder and
    one link, so their rounds ride the same batch frames -- or, behind a
    proxy, the same proxy frames.  Time is wall-clock seconds.
    """
    clients = workload.clients
    shard_map = config.cluster_map(len(clients))

    async def _run() -> KVRunResult:
        cluster = AsyncKVCluster(
            shard_map,
            service_overhead=config.setting("service_overhead"),
            service_per_op=config.setting("service_per_op"),
            retry_policy=config.retry_policy,
            push_views=config.push_views,
            trace_collector=config.trace_collector,
            drain_range_size=config.drain_range_size,
            autoscale_interval=config.setting("autoscale_interval"),
            lease_ttl=config.setting("lease_ttl"),
        )
        await cluster.start()
        if config.proxies:
            await cluster.start_proxies(
                config.proxies, read_policy=config.read_policy,
                read_cache=config.read_cache, bounded_staleness=config.bounded_staleness,
            )
        if config.autoscale:
            cluster.start_autoscaler()
        base = time.monotonic()
        recorder = KVHistoryRecorder(lambda: time.monotonic() - base)
        stores: Dict[str, KVStore] = {}
        kill_tasks: "set[asyncio.Task]" = set()

        def start_kill(killing) -> None:
            # Keep a strong reference: the loop holds tasks weakly, and
            # a collected kill task would silently never sever its victim.
            task = asyncio.get_running_loop().create_task(killing)
            kill_tasks.add(task)
            task.add_done_callback(kill_tasks.discard)

        hooks, resize_info, kill_record = arm_triggers(
            config,
            workload,
            lambda: recorder.completed_operations,
            None,
            cluster.resize,
            proxies=lambda: [
                (pid, cluster.sites.get(pid), proxy.running) for pid, proxy in cluster.proxies.items()
            ],
            kill=lambda victim: start_kill(cluster.kill_proxy(victim)),
        )

        if config.crashes_per_group > 0:
            # The simulator's victims, killed once a quarter of the ops completed.
            victims = [victim for victim, _ in crash_victims(
                ((list(group.servers), group.max_faults) for group in shard_map.groups.values()),
                config.crashes_per_group, SeededRng(config.crash_seed),
            )]
            threshold = max(1, workload.total_operations() // 4)

            def crash_replicas() -> None:
                if victims and recorder.completed_operations >= threshold:
                    while victims:
                        start_kill(cluster.kill_server(victims.pop()))

            hooks.append(crash_replicas)

        def run_hooks() -> None:
            for hook in hooks:
                hook()

        try:
            for client_id in clients:
                store = KVStore(
                    cluster,
                    client_id=client_id,
                    max_batch=config.max_batch,
                    recorder=recorder,
                    use_proxy=True if config.proxies else None,
                )
                store.completion_hook = run_hooks if hooks else None
                await store.connect()
                stores[client_id] = store

            async def client_loop(client_id: str) -> None:
                store = stores[client_id]
                queue = list(workload.sequences[client_id])
                depth = max(1, workload.pipeline_depth)

                async def worker() -> None:
                    while queue:
                        op = queue.pop(0)
                        if op.kind == "put":
                            await store.put(op.key, op.value)
                        else:
                            await store.get(op.key)

                await asyncio.gather(*(worker() for _ in range(depth)))

            started = time.monotonic()
            await asyncio.gather(*(client_loop(client_id) for client_id in clients))
            duration = time.monotonic() - started
            if config.autoscale:
                cluster.stop_autoscaler()
            # A resize trigger (or a late autoscale move) may still be
            # draining in the background; finish it before teardown so the
            # reports' counters are final and no drain frame races stop().
            await cluster.flush_migrations()
            # The links' engines outlive their transports: name them now, fold
            # them once teardown has cancelled (and counted) the last timers.
            links = [link.engine for link in cluster._links.values()]
        finally:
            for store in stores.values():
                await store.close()
            await cluster.stop()

        return fold_run_result(
            config,
            cluster,
            duration=duration,
            client_engines=(store.engine for store in stores.values()),
            links=links,
            recorder=recorder,
            resize=resize_info,
            proxy_kill=kill_record,
        )

    return run_sync(_run())
