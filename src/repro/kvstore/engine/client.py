"""The client-session engine: round lifecycle, replay, and proxy failover.

One :class:`ClientSessionEngine` is one logical store client.  It may have
many operations (on distinct keys) in flight at once; each operation drives
the ordinary single-register client generator for its key, but instead of
sending one frame per sub-request the engine coalesces every sub-request
bound for the same *replica group* into one batch frame per replica --
operations on different shards hosted by the same group share rounds.  Every
sub-request carries the (shard, epoch) tag the client resolved; when a live
resize or shard move fences that epoch, the bounced round is replayed
against the new owner (round-trips are idempotent, so the per-key generator
never notices).

With a proxy candidate list the engine routes *every* round through its
current ingress proxy instead: in-flight rounds (for any shard, any group)
coalesce into one ``"proxy"`` frame per flush, the proxy owns shard
resolution and stale-epoch replay, and each round comes back as one
``"proxy-ack"`` carrying the whole quorum.  The proxy leg is
fault-tolerant: on proxy death -- reported by the transport
(:meth:`ClientSessionEngine.on_peer_lost`) or detected by the engine's own
watchdog timer where the transport drops traffic silently -- the engine
walks the candidate list (emitting :class:`~.effects.Connect` effects), or
falls back to **direct replica connections** when the list is exhausted,
and replays every in-flight round under a fresh failover *generation* scope
(:func:`~.routing.attempt_scoped_id`) so an ack relayed by the previous
proxy can never complete a round re-issued through the next one.

Everything here is sans-I/O: inputs are invocations, decoded frames, timer
fires and transport notifications; outputs are
:mod:`~repro.kvstore.engine.effects`.  The simulator and asyncio backends
are thin adapters around this one class.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Set, Tuple

from ...core.errors import ProtocolError
from ...core.operations import OpKind, new_op_id
from ...observe.events import (
    BATCH_CUT,
    FAILOVER_HOP,
    FRAME_RECEIVED,
    FRAME_SENT,
    NULL_OBSERVER,
    OP_COMPLETED,
    OP_FAILED,
    OP_INVOKED,
    ROUND_OPENED,
    ROUND_REPLAYED,
    EngineObserver,
)
from ...messages import (
    BATCH_ACK_KIND,
    BATCH_KIND,
    PROXY_ACK_KIND,
    PROXY_KIND,
    Message,
    ProxySubRequest,
    SubRequest,
    make_batch,
    make_proxy_request,
    unpack_batch,
    unpack_batch_ack,
    unpack_proxy_ack,
    unpack_proxy_request,
)
from ...protocols.base import Broadcast, ClientLogic, OperationOutcome
from ..perkey import KVHistoryRecorder
from ..sharding import ShardMap, ShardSpec
from .effects import (
    DIRECT_INGRESS,
    Connect,
    DEFAULT_RETRY_POLICY,
    Effect,
    OpCompleted,
    OpFailed,
    RetryPolicy,
    SendFrame,
    StartTimer,
    CancelTimer,
    TimerId,
)
from .routing import attempt_scoped_id
from .server import MAX_STALE_RETRIES, is_stale_reply
from .stats import BatchStats

__all__ = ["ClientSessionEngine", "PROXY_QUEUE"]

#: The shared queue key of proxy-bound rounds (the proxy does the per-group
#: split, so rounds for different groups coalesce too).
PROXY_QUEUE = "@proxy"

_WATCHDOG: TimerId = ("watchdog",)


@dataclass
class _PendingKVOp:
    """One in-flight kv operation driving a per-key register generator."""

    op_id: str
    key: str
    kind: OpKind
    spec: ShardSpec
    epoch: int
    generator: Any
    round_trip: int = 0
    wait_for: int = 0
    stale_retries: int = 0
    transient_retries: int = 0
    drain_backoffs: int = 0
    awaiting_retry: bool = False
    queued: bool = False
    request: Optional[Broadcast] = None
    replies: List[Message] = field(default_factory=list)
    lost_targets: Set[str] = field(default_factory=set)
    #: The failover-generation-scoped op id this round was last forwarded
    #: under (proxy mode only); the key into the proxy-rounds table.
    proxy_op_id: Optional[str] = None
    #: Cross-tier trace-context id: stamped once at invocation, carried in
    #: frame metadata through every tier (attempt-scoped ids are rewritten on
    #: retries, the trace id never is).
    trace: Optional[str] = None


class ClientSessionEngine:
    """One store client's protocol state machine (transport-agnostic)."""

    def __init__(
        self,
        client_id: str,
        shard_map: ShardMap,
        recorder: KVHistoryRecorder,
        policy: Optional[RetryPolicy] = None,
        max_batch: int = 8,
        flush_delay: float = 0.0,
        proxy_candidates: Optional[Sequence[str]] = None,
        observer: Optional[EngineObserver] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        self.client_id = client_id
        self.shard_map = shard_map
        self.recorder = recorder
        self.policy = policy or DEFAULT_RETRY_POLICY
        self.max_batch = max_batch
        self.flush_delay = flush_delay
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.stats = BatchStats()
        self.completed_operations = 0
        self.stale_replays = 0
        self.drain_backoffs = 0
        self.proxy_failovers = 0
        self._proxy_candidates = list(proxy_candidates or [])
        self.proxy_id: Optional[str] = (
            self._proxy_candidates[0] if self._proxy_candidates else None
        )
        #: Whether the ingress path (proxy connection, or the direct replica
        #: connections) is usable.  Adapters confirm via ``on_connected``;
        #: direct-from-birth sessions need no handshake.
        self._ingress_ready = self.proxy_id is None
        self._proxy_cursor = 0
        self._proxy_generation = 0
        self._proxy_rounds: Dict[Tuple[str, int], _PendingKVOp] = {}
        self._proxy_acks_seen = 0
        self._watchdog_armed = False
        self._watchdog_acks_at_arm = 0
        self._replay_inflight: List[_PendingKVOp] = []
        self._requeue: List[_PendingKVOp] = []
        self._readers: Dict[str, ClientLogic] = {}
        self._writers: Dict[str, ClientLogic] = {}
        self._logic_homes: Dict[str, str] = {}
        self._active: Dict[str, _PendingKVOp] = {}
        self._key_inflight: Set[str] = set()
        self._key_backlog: Dict[str, Deque[tuple]] = {}
        self._queues: Dict[str, List[_PendingKVOp]] = {}
        self._flush_scheduled: Set[str] = set()

    # -- per-key client logic ---------------------------------------------------

    def _refresh_home(self, key: str, spec: ShardSpec) -> None:
        # Cached per-key client logic was built against a specific group's
        # server list; when a move re-homes the shard, rebuild it (a fresh
        # reader/writer joining is always safe for every protocol here).
        if self._logic_homes.get(key) != spec.group.group_id:
            self._logic_homes[key] = spec.group.group_id
            self._readers.pop(key, None)
            self._writers.pop(key, None)

    def _logic_for(self, kind: OpKind, key: str, spec: ShardSpec) -> ClientLogic:
        cache = self._writers if kind is OpKind.WRITE else self._readers
        logic = cache.get(key)
        if logic is None:
            if kind is OpKind.WRITE:
                logic = spec.protocol.make_writer(self.client_id)
            else:
                # Two round-trips only when the quorum disagrees (protocols
                # without such a reader hand back their ordinary one).
                logic = spec.protocol.make_opportunistic_reader(self.client_id)
            cache[key] = logic
        return logic

    # -- invoking operations ----------------------------------------------------

    def invoke(
        self, kind: OpKind, key: str, value: Any = None
    ) -> Tuple[str, List[Effect]]:
        """Start ``get``/``put``; returns the operation id and the effects."""
        out: List[Effect] = []
        op_id = new_op_id(f"{self.client_id}-{kind.value}")
        # The op id doubles as the trace-context id: it is unique, compact,
        # and -- unlike the attempt-scoped ids derived from it -- never
        # rewritten on retry or failover.
        self.observer.emit(
            OP_INVOKED, op_id=op_id, key=key, trace=op_id, kind=kind.value
        )
        if key in self._key_inflight:
            # Same client, same key: queue behind the in-flight operation so
            # the key's sub-history stays sequential for this client.
            self._key_backlog.setdefault(key, deque()).append((op_id, kind, value))
            return op_id, out
        self._start(op_id, kind, key, value, out)
        return op_id, out

    def _start(
        self, op_id: str, kind: OpKind, key: str, value: Any, out: List[Effect]
    ) -> None:
        spec = self.shard_map.shard_for(key)
        self._refresh_home(key, spec)
        logic = self._logic_for(kind, key, spec)
        generator = (
            logic.write_protocol(value) if kind is OpKind.WRITE else logic.read_protocol()
        )
        self._key_inflight.add(key)
        self.recorder.record_invocation(key, op_id, self.client_id, kind, value=value)
        pending = _PendingKVOp(
            op_id=op_id, key=key, kind=kind, spec=spec, epoch=spec.epoch,
            generator=generator, trace=op_id,
        )
        self._active[op_id] = pending
        self._advance(pending, out, first=True)

    # -- driving the generators -------------------------------------------------

    def _advance(
        self, pending: _PendingKVOp, out: List[Effect], first: bool = False
    ) -> None:
        try:
            if first:
                request = next(pending.generator)
            else:
                request = pending.generator.send(
                    list(pending.replies[: pending.wait_for])
                )
        except StopIteration as stop:
            self._complete(pending, stop.value, out)
            return
        if not isinstance(request, Broadcast):
            raise ProtocolError("client generators must yield Broadcast objects")
        pending.request = request
        self._dispatch_round(pending, out)

    def _dispatch_round(self, pending: _PendingKVOp, out: List[Effect]) -> None:
        """Send the current round (fresh or replayed) to the owner group."""
        pending.round_trip += 1
        pending.replies = []
        pending.lost_targets = set()
        pending.awaiting_retry = False
        spec = self.shard_map.shard_for(pending.key)
        pending.spec = spec
        pending.epoch = spec.epoch
        request = pending.request
        pending.wait_for = (
            request.wait_for if request.wait_for is not None else spec.quorum_size
        )
        self.observer.emit(
            ROUND_OPENED, op_id=pending.op_id, key=pending.key,
            trace=pending.trace, round_trip=pending.round_trip,
        )
        self._enqueue(pending, out)

    def _replay_round(self, pending: _PendingKVOp, out: List[Effect]) -> None:
        """Re-send the in-flight round after a stale-shard bounce.

        Round-trips are idempotent (queries trivially; updates because
        servers only adopt larger tags), so replaying the same broadcast
        against the re-resolved owner group is always safe -- the per-key
        generator never observes the bounce.  Bumping ``round_trip`` makes
        any straggler replies from the stale attempt ignorable.

        A bounce that re-resolves to the *same* route (group and epoch
        unchanged) is not staleness at all: the view already matches the
        authoritative map, so the key is mid-drain -- fenced on its donor
        or still pending on its receiver.  Replaying immediately would spin
        against the fence until the key's range installs; back off on the
        retry timer instead (without charging ``stale_retries`` -- the map
        has converged, the data just has not landed yet).
        """
        spec = self.shard_map.shard_for(pending.key)
        if (
            spec.group.group_id == pending.spec.group.group_id
            and spec.epoch == pending.epoch
        ):
            pending.drain_backoffs += 1
            self.drain_backoffs += 1
            self.observer.emit(
                ROUND_REPLAYED, op_id=pending.op_id, key=pending.key,
                trace=pending.trace, retries=pending.drain_backoffs,
                reason="drain-backoff",
            )
            if pending.drain_backoffs > self.policy.max_transient_retries:
                self._fail(
                    pending,
                    ProtocolError(
                        f"operation {pending.op_id} bounced off a draining "
                        f"range {pending.drain_backoffs} times; the drain "
                        "never completed"
                    ),
                    out,
                )
                return
            pending.awaiting_retry = True
            out.append(
                StartTimer(
                    ("retry", pending.op_id),
                    self.policy.drain_backoff_interval,
                )
            )
            return
        pending.stale_retries += 1
        self.stale_replays += 1
        self.observer.emit(
            ROUND_REPLAYED, op_id=pending.op_id, key=pending.key,
            trace=pending.trace, retries=pending.stale_retries,
        )
        if pending.stale_retries > MAX_STALE_RETRIES:
            self._fail(
                pending,
                ProtocolError(
                    f"operation {pending.op_id} bounced {pending.stale_retries} "
                    "times; shard map never converged"
                ),
                out,
            )
            return
        self._refresh_home(pending.key, spec)
        self._dispatch_round(pending, out)

    def _complete(
        self, pending: _PendingKVOp, outcome: OperationOutcome, out: List[Effect]
    ) -> None:
        if not isinstance(outcome, OperationOutcome):
            raise ProtocolError("operation generator must return an OperationOutcome")
        self.recorder.record_response(
            pending.op_id,
            value=outcome.value,
            tag=outcome.tag,
            round_trips=pending.round_trip,
        )
        self._retire(pending, out)
        self.completed_operations += 1
        self.observer.emit(
            OP_COMPLETED, op_id=pending.op_id, key=pending.key,
            trace=pending.trace, round_trips=pending.round_trip,
            kind=pending.kind.value,
        )
        out.append(
            OpCompleted(pending.op_id, pending.key, outcome, pending.round_trip)
        )

    def _fail(
        self, pending: _PendingKVOp, error: BaseException, out: List[Effect]
    ) -> None:
        self._retire(pending, out)
        self.observer.emit(
            OP_FAILED, op_id=pending.op_id, key=pending.key,
            trace=pending.trace, error=type(error).__name__,
        )
        out.append(OpFailed(pending.op_id, pending.key, error))

    def _retire(self, pending: _PendingKVOp, out: List[Effect]) -> None:
        """Drop a finished op and start its key's next backlogged one."""
        del self._active[pending.op_id]
        if pending.proxy_op_id is not None:
            self._proxy_rounds.pop((pending.proxy_op_id, pending.round_trip), None)
        self._key_inflight.discard(pending.key)
        backlog = self._key_backlog.get(pending.key)
        if backlog:
            op_id, kind, value = backlog.popleft()
            self._start(op_id, kind, pending.key, value, out)

    # -- group batching ---------------------------------------------------------

    def _enqueue(self, pending: _PendingKVOp, out: List[Effect]) -> None:
        queue_key = (
            PROXY_QUEUE if self.proxy_id is not None else pending.spec.group.group_id
        )
        queue = self._queues.setdefault(queue_key, [])
        pending.queued = True
        queue.append(pending)
        if queue_key == PROXY_QUEUE and not self._ingress_ready:
            return  # flushed once the adapter confirms the ingress path
        if len(queue) >= self.max_batch:
            self._flush(queue_key, out)
        elif queue_key not in self._flush_scheduled:
            self._flush_scheduled.add(queue_key)
            out.append(StartTimer(("flush", queue_key), self.flush_delay))

    def _flush(self, queue_key: str, out: List[Effect]) -> None:
        self._flush_scheduled.discard(queue_key)
        if queue_key == PROXY_QUEUE and not self._ingress_ready:
            return  # a stale flush racing a failover; replay owns these rounds
        # Ops that failed while waiting (e.g. a non-retryable send error on an
        # earlier frame of the same operation) are skipped, not sent.
        queue = [
            op
            for op in self._queues.get(queue_key, [])
            if self._active.get(op.op_id) is op
        ]
        if not queue:
            self._queues.pop(queue_key, None)
            return
        batch, rest = queue[: self.max_batch], queue[self.max_batch :]
        self._queues[queue_key] = rest
        for op in batch:
            op.queued = False
        if rest and queue_key not in self._flush_scheduled:
            # More coalesced work than one frame carries: flush again at once.
            self._flush_scheduled.add(queue_key)
            out.append(StartTimer(("flush", queue_key), 0.0))
        self.stats.record(len(batch))
        self.observer.emit(BATCH_CUT, size=len(batch), queue=queue_key)
        if queue_key == PROXY_QUEUE:
            self._flush_proxy(batch, out)
            return
        group = batch[0].spec.group
        for server_id in group.servers:
            subs = [
                SubRequest(
                    op.key,
                    Message(
                        self.client_id,
                        server_id,
                        op.request.kind,
                        op.request.payload_for(server_id),
                        op.op_id,
                        op.round_trip,
                        trace=op.trace,
                    ),
                    op.spec.shard_id,
                    op.epoch,
                )
                for op in batch
            ]
            self.stats.record_frames(sent=1)
            self.observer.emit(FRAME_SENT, kind=BATCH_KIND, dest=server_id)
            out.append(
                SendFrame(server_id, make_batch(self.client_id, server_id, subs))
            )

    def _flush_proxy(self, batch: List[_PendingKVOp], out: List[Effect]) -> None:
        subs = []
        for op in batch:
            # Scope the forwarded id by the failover generation: should this
            # round be replayed through a different proxy, replies relayed by
            # the old one miss the new key and are dropped.
            op.proxy_op_id = attempt_scoped_id(op.op_id, self._proxy_generation)
            self._proxy_rounds[(op.proxy_op_id, op.round_trip)] = op
            subs.append(
                ProxySubRequest(
                    key=op.key,
                    op_kind=op.kind.value,
                    kind=op.request.kind,
                    payload=op.request.payload,
                    op_id=op.proxy_op_id,
                    round_trip=op.round_trip,
                    wait_for=op.request.wait_for,
                    per_server=op.request.per_server_payload or None,
                    trace=op.trace,
                )
            )
        self.stats.record_frames(sent=1)
        self.observer.emit(FRAME_SENT, kind=PROXY_KIND, dest=self.proxy_id)
        out.append(
            SendFrame(
                self.proxy_id, make_proxy_request(self.client_id, self.proxy_id, subs)
            )
        )
        self._arm_watchdog(out)

    # -- proxy failover ---------------------------------------------------------

    def _arm_watchdog(self, out: List[Effect]) -> None:
        """Watch for a proxy that stops answering while rounds are out.

        Where the transport drops a crashed process's traffic *silently*
        (the simulator), proxy death has no connection-reset edge to
        observe; instead a single timer fires ``failover_timeout`` after
        the last arm.  Progress (any proxy ack) re-arms it; rounds all
        completing cancels it (so an idle client schedules nothing and
        quiescence-driven runs terminate at the workload's natural end).
        Only a proxy that is silent for the whole window -- with rounds
        still outstanding -- trips failover, and a spurious trip is merely
        wasteful, never unsafe: rounds are idempotent and replays are
        generation-scoped.  Transports that do observe connection death
        disable the watchdog (``failover_timeout=None``) and report via
        :meth:`on_peer_lost` instead.
        """
        if (
            self.policy.failover_timeout is None
            or self._watchdog_armed
            or self.proxy_id is None
            or not self._proxy_rounds
        ):
            return
        self._watchdog_armed = True
        self._watchdog_acks_at_arm = self._proxy_acks_seen
        out.append(StartTimer(_WATCHDOG, self.policy.failover_timeout))

    def _disarm_watchdog(self, out: List[Effect]) -> None:
        if self._watchdog_armed:
            self._watchdog_armed = False
            out.append(CancelTimer(_WATCHDOG))

    def _failover(self, out: List[Effect]) -> None:
        """The current proxy is dead: advance the ingress path and replay.

        The next candidate of the site takes over; with the list exhausted,
        ``proxy_id`` drops to ``None`` and the client broadcasts to replica
        groups directly (the pre-proxy data path, always available because
        proxies hold no register state).  Every in-flight round is stashed
        and -- once the adapter confirms the new ingress -- re-dispatched:
        re-resolved against the live shard map, re-batched, and forwarded
        under the bumped generation scope.
        """
        self.proxy_failovers += 1
        self._proxy_generation += 1
        self.observer.emit(
            FAILOVER_HOP,
            abandoned=self.proxy_id,
            generation=self._proxy_generation,
        )
        self._disarm_watchdog(out)
        inflight = list(self._proxy_rounds.values())
        self._proxy_rounds.clear()
        queued = self._queues.pop(PROXY_QUEUE, [])
        if PROXY_QUEUE in self._flush_scheduled:
            self._flush_scheduled.discard(PROXY_QUEUE)
            out.append(CancelTimer(("flush", PROXY_QUEUE)))
        for pending in inflight:
            pending.proxy_op_id = None
        self._replay_inflight.extend(inflight)
        # Never sent: no fresh attempt needed, just requeue at the new
        # ingress (or the owner group, when falling back to direct).
        self._requeue.extend(queued)
        self._advance_ingress(out)

    def _advance_ingress(self, out: List[Effect]) -> None:
        """Point at the next candidate (or direct) and ask for a connection."""
        self._ingress_ready = False
        self._proxy_cursor += 1
        if self._proxy_cursor < len(self._proxy_candidates):
            self.proxy_id = self._proxy_candidates[self._proxy_cursor]
            out.append(Connect(self.proxy_id))
        else:
            # The site's proxy list is exhausted: direct replica connections.
            self.proxy_id = None
            out.append(Connect(DIRECT_INGRESS))

    def on_connected(self, target: str) -> List[Effect]:
        """The adapter established the ingress path requested by ``Connect``."""
        out: List[Effect] = []
        current = self.proxy_id if self.proxy_id is not None else DIRECT_INGRESS
        if target != current or self._ingress_ready:
            return out  # a stale dial answered after another failover
        self._ingress_ready = True
        inflight, self._replay_inflight = self._replay_inflight, []
        requeue, self._requeue = self._requeue, []
        for pending in inflight:
            self._dispatch_round(pending, out)
        for pending in requeue:
            self._enqueue(pending, out)
        queue = self._queues.get(PROXY_QUEUE)
        if queue and PROXY_QUEUE not in self._flush_scheduled:
            self._flush_scheduled.add(PROXY_QUEUE)
            out.append(StartTimer(("flush", PROXY_QUEUE), 0.0))
        return out

    def on_connect_failed(self, target: str) -> List[Effect]:
        """The adapter could not establish ``target``: walk to the next one."""
        out: List[Effect] = []
        current = self.proxy_id if self.proxy_id is not None else DIRECT_INGRESS
        if target != current or self._ingress_ready:
            return out
        self._advance_ingress(out)
        return out

    def on_peer_lost(self, peer_id: str) -> List[Effect]:
        """The transport observed ``peer_id``'s connection die terminally.

        For the current ingress proxy this triggers failover (the
        connection-reset edge the watchdog exists to approximate); for a
        replica it fails the rounds that can no longer reach a quorum, so
        their transient-retry replay takes over instead of hanging.
        """
        out: List[Effect] = []
        if peer_id == self.proxy_id and self._ingress_ready:
            self._failover(out)
            return out
        for pending in list(self._active.values()):
            if (
                pending.proxy_op_id is None
                and pending.request is not None
                and not pending.queued
                and peer_id in pending.spec.group.servers
                and len(pending.replies) < pending.wait_for
            ):
                self._lose_target(
                    pending, peer_id,
                    ConnectionError(f"replica {peer_id} is unreachable"),
                    retryable=True, out=out,
                )
        return out

    # -- transport send failures ------------------------------------------------

    def on_frame_undeliverable(
        self, frame: Message, error: BaseException, retryable: bool = True
    ) -> List[Effect]:
        """A frame this engine emitted could not be delivered.

        ``retryable`` distinguishes transient transport loss (a dead
        connection being redialed -- replay after the reconnect window)
        from permanent failures (e.g. an oversized frame), which fail the
        affected operations immediately.
        """
        out: List[Effect] = []
        if frame.kind in (PROXY_KIND, BATCH_KIND):
            # The frame never reached the wire: uncount it, so frame totals
            # keep the "every frame counted exactly once" invariant even
            # across replays (the replayed attempt counts its own frames).
            self.stats.record_frames(sent=-1)
        if frame.kind == PROXY_KIND:
            if not retryable:
                for sub in unpack_proxy_request(frame):
                    pending = self._proxy_rounds.pop((sub.op_id, sub.round_trip), None)
                    if pending is not None:
                        self._fail(pending, error, out)
                return out
            if frame.receiver == self.proxy_id and self._ingress_ready:
                self._failover(out)
            return out
        if frame.kind != BATCH_KIND:
            return out
        for sub in unpack_batch(frame):
            op_id = sub.message.op_id
            pending = self._active.get(op_id) if op_id is not None else None
            if pending is None or sub.message.round_trip != pending.round_trip:
                continue
            self._lose_target(pending, frame.receiver, error, retryable, out)
        return out

    def _lose_target(
        self,
        pending: _PendingKVOp,
        server_id: str,
        error: BaseException,
        retryable: bool,
        out: List[Effect],
    ) -> None:
        if pending.awaiting_retry:
            return
        pending.lost_targets.add(server_id)
        reachable = len(pending.spec.group.servers) - len(pending.lost_targets)
        if reachable >= pending.wait_for:
            return  # a quorum is still possible on the surviving replicas
        if not retryable:
            self._fail(pending, error, out)
            return
        # Too many replicas were unreachable for this round (a kill
        # mid-flight).  Rounds are idempotent, so wait out the reconnect
        # window and replay.
        pending.transient_retries += 1
        if pending.transient_retries > self.policy.max_transient_retries:
            self._fail(pending, error, out)
            return
        pending.awaiting_retry = True
        out.append(
            StartTimer(("retry", pending.op_id), self.policy.reconnect_interval)
        )

    # -- timer fires ------------------------------------------------------------

    def on_timer(self, timer_id: TimerId) -> List[Effect]:
        out: List[Effect] = []
        kind = timer_id[0]
        if kind == "flush":
            self._flush(timer_id[1], out)
        elif kind == "retry":
            pending = self._active.get(timer_id[1])
            if pending is not None and pending.awaiting_retry:
                self._dispatch_round(pending, out)
        elif kind == "watchdog":
            self._watchdog_armed = False
            if self.proxy_id is None or not self._proxy_rounds:
                return out
            if self._proxy_acks_seen > self._watchdog_acks_at_arm:
                self._arm_watchdog(out)  # alive, just slow: watch another window
            else:
                self._failover(out)
        return out

    # -- network frames ---------------------------------------------------------

    def on_frame(self, message: Message) -> List[Effect]:
        out: List[Effect] = []
        if message.kind == PROXY_ACK_KIND:
            self.stats.record_frames(received=1)
            self.observer.emit(
                FRAME_RECEIVED, kind=PROXY_ACK_KIND, source=message.sender
            )
            self._proxy_acks_seen += 1
            for sub_reply in unpack_proxy_ack(message):
                pending = self._proxy_rounds.pop(
                    (sub_reply.op_id, sub_reply.round_trip), None
                )
                if pending is None:
                    continue  # straggler from a completed or replayed attempt
                if sub_reply.error is not None:
                    self._fail(
                        pending,
                        ProtocolError(
                            f"proxy failed operation {sub_reply.op_id}: "
                            f"{sub_reply.error}"
                        ),
                        out,
                    )
                    continue
                # The proxy delivers the whole quorum at once (it already
                # waited for wait_for distinct replicas and absorbed any
                # stale-epoch replays).
                pending.replies = list(sub_reply.replies)
                pending.wait_for = len(pending.replies)
                self._advance(pending, out)
            if not self._proxy_rounds:
                self._disarm_watchdog(out)
            return out
        if message.kind != BATCH_ACK_KIND:
            return out
        self.stats.record_frames(received=1)
        self.observer.emit(
            FRAME_RECEIVED, kind=BATCH_ACK_KIND, source=message.sender
        )
        for _key, sub in unpack_batch_ack(message):
            if sub is None or sub.op_id is None:
                continue
            pending = self._active.get(sub.op_id)
            if (
                pending is None
                or sub.round_trip != pending.round_trip
                or pending.awaiting_retry
            ):
                continue  # straggler from an earlier round-trip or operation
            if is_stale_reply(sub):
                # The shard was resized or moved while this round was in
                # flight; re-resolve and replay the round.  Bouncing bumps
                # round_trip, so the group's other (equally stale) replies
                # to this attempt are ignored.
                self._replay_round(pending, out)
                continue
            pending.replies.append(sub)
            if len(pending.replies) == pending.wait_for:
                self._advance(pending, out)
        return out
