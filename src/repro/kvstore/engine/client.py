"""The client-session engine: operations, per-key order, and the proxy leg.

One :class:`ClientSessionEngine` is one logical store client.  It may have
many operations (on distinct keys) in flight at once; each drives the
ordinary single-register client generator for its key, and every round the
generator yields goes out through the client's current *ingress*.  Direct
ingress is the :class:`~.link.DirectLink` this engine *holds*: the round is
resolved against the live shard map here and multiplexed to its owner group
there, quorum-first when it mutates nothing.  Built on its own -- a simulator
process, a test fabric -- a session gets a private link, is fed the link's
inputs (``batch-ack`` frames, flush / silence / retry timers, replica losses)
through its own entry points and hands back the link's effects with its own,
so one adapter drives it as one engine.  Handed a link that other sessions
hold too, it stays one client -- op ids, per-key order, generators, recorder,
counters, the proxy leg and failover are its own -- while its rounds share the
link's frames with theirs.

**Whose effects.**  A session is on one leg at a time and changes at most
once, from the proxy leg to the direct one.  What it returns while
``proxy_id is None`` -- invocations, ``on_connected(DIRECT_INGRESS)``,
``close()`` -- are the link's effects (replica frames, the link's timers)
plus operation outcomes, and an adapter that runs the link apart from the
session executes them where the link's timers live; everything returned on
the proxy leg, failover included, is the session's own.

With a proxy candidate list the engine routes *every* round through its
current ingress proxy instead: in-flight rounds (for any shard, any group)
coalesce into one ``"proxy"`` frame per flush, the proxy owns shard
resolution and stale-epoch replay, and each round comes back as one
``"proxy-ack"`` carrying the whole quorum.  The proxy leg is
fault-tolerant: on proxy death -- reported by the transport
(:meth:`ClientSessionEngine.on_peer_lost`) or detected by the engine's own
watchdog timer where the transport drops traffic silently -- the engine
walks the candidate list (emitting :class:`~.effects.Connect` effects), or
falls back to direct ingress when the list is exhausted, and replays every
in-flight round under a fresh failover *generation* scope
(:func:`~.routing.attempt_scoped_id`) so an ack relayed by the previous
proxy can never complete a round re-issued through the next one.

Sans-I/O: inputs are invocations, decoded frames, timer fires and transport
notifications; outputs are :mod:`~repro.kvstore.engine.effects`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
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
    EngineObserver,
)
from ...messages import (
    PROXY_ACK_KIND,
    PROXY_KIND,
    Message,
    ProxySubRequest,
    make_proxy_request,
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
from .link import DirectLink
from .rounds import ReplicaRound
from .routing import attempt_scoped_id
from .stats import BatchStats

__all__ = ["ClientSessionEngine", "PROXY_QUEUE"]

#: The shared queue key of proxy-bound rounds (the proxy does the per-group
#: split, so rounds for different groups coalesce too).
PROXY_QUEUE = "@proxy"

_WATCHDOG: TimerId = ("watchdog",)
_PROXY_FLUSH: TimerId = ("flush", PROXY_QUEUE)


@dataclass
class _PendingKVOp(ReplicaRound):
    """One in-flight kv operation driving a per-key register generator."""

    #: The session the operation belongs to (whom the link reports back to).
    session: "ClientSessionEngine"
    kind: OpKind
    generator: Any
    round_trip: int = 0
    request: Optional[Broadcast] = None
    #: The failover-generation-scoped op id this round was last forwarded
    #: under (proxy mode only); the key into the proxy-rounds table.
    proxy_op_id: Optional[str] = None


class ClientSessionEngine:
    """One store client's protocol state machine (transport-agnostic).

    ``link`` is the direct ingress to share with other sessions of the
    process; without one the session builds its own, with its own
    ``max_batch``, ``flush_delay``, observer and ``stats``.
    """

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
        link: Optional[DirectLink] = None,
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
        #: This session's own frames and batches: everything on a private
        #: link, the proxy leg only on a shared one (which counts its own).
        self.stats = BatchStats()
        self.completed_operations = 0
        self.stale_replays = 0
        self.drain_backoffs = 0
        self.proxy_failovers = 0
        if link is None:
            link = DirectLink(
                client_id, self.policy, max_batch, flush_delay,
                self.observer, self.stats,
            )
        self.link = link
        link.attach(self)
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
        self._proxy_queue: List[_PendingKVOp] = []
        self._proxy_flush_scheduled = False

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
            op_id=op_id, key=key, trace=op_id, sender=self.client_id,
            session=self, kind=kind, generator=generator,
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
        """Send the current round (fresh or replayed) through the ingress."""
        self._plan(pending)
        if self.proxy_id is None:
            self.link.enqueue(pending, out)
        else:
            self._enqueue_proxy(pending, out)

    def _plan(self, pending: _PendingKVOp) -> None:
        """One attempt of the current round: its identity and its owner group.

        Bumping ``round_trip`` is what makes straggler replies to an earlier
        attempt ignorable.  Planned on the proxy leg too, so a round still
        queued when the proxy list runs out can join the owner group's queue
        as it is.
        """
        pending.round_trip += 1
        spec = self.shard_map.shard_for(pending.key)
        pending.ident = (pending.op_id, pending.round_trip)
        pending.group_id = spec.group.group_id
        pending.shard_id = spec.shard_id
        pending.epoch = spec.epoch
        pending.targets = spec.group.servers
        request = pending.request
        pending.wait_for = (
            request.wait_for if request.wait_for is not None else spec.quorum_size
        )
        self.observer.emit(
            ROUND_OPENED, op_id=pending.op_id, key=pending.key,
            trace=pending.trace, round_trip=pending.round_trip,
        )

    def _reroute(self, pending: _PendingKVOp, out: List[Effect]) -> Tuple[str, int]:
        """Where the live shard map routes a bounced round's key now."""
        spec = self.shard_map.shard_for(pending.key)
        self._refresh_home(pending.key, spec)
        return spec.group.group_id, spec.epoch

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
        self._report_failed(pending.op_id, pending.key, error, out)

    def _report_failed(
        self, op_id: str, key: str, error: BaseException, out: List[Effect]
    ) -> None:
        self.observer.emit(
            OP_FAILED, op_id=op_id, key=key, trace=op_id,
            error=type(error).__name__,
        )
        out.append(OpFailed(op_id, key, error))

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

    def close(self) -> List[Effect]:
        """The client is going away: fail what it has in flight.

        Every operation it still owes an outcome -- active or backlogged
        behind one -- fails with ``ConnectionError``; its rounds leave the
        link (alone: other sessions' rounds and the shared timers stay), and
        its own proxy-leg timers are disarmed.
        """
        out: List[Effect] = []
        error = ConnectionError(
            f"client {self.client_id} closed with the operation in flight"
        )
        self.link.release(self, out)
        backlog, self._key_backlog = self._key_backlog, {}
        for pending in list(self._active.values()):
            self._fail(pending, error, out)
        for key, queued in backlog.items():
            for op_id, _kind, _value in queued:
                self._report_failed(op_id, key, error, out)
        self._proxy_queue.clear()
        self._replay_inflight.clear()
        self._requeue.clear()
        self._disarm_watchdog(out)
        if self._proxy_flush_scheduled:
            self._proxy_flush_scheduled = False
            out.append(CancelTimer(_PROXY_FLUSH))
        return out

    # -- the proxy leg ----------------------------------------------------------

    def _enqueue_proxy(self, pending: _PendingKVOp, out: List[Effect]) -> None:
        self._proxy_queue.append(pending)
        if not self._ingress_ready:
            return  # flushed once the adapter confirms the ingress path
        if len(self._proxy_queue) >= self.max_batch:
            self._flush_proxy(out)
        else:
            self._schedule_proxy_flush(self.flush_delay, out)

    def _schedule_proxy_flush(self, delay: float, out: List[Effect]) -> None:
        if not self._proxy_flush_scheduled:
            self._proxy_flush_scheduled = True
            out.append(StartTimer(_PROXY_FLUSH, delay))

    def _flush_proxy(self, out: List[Effect]) -> None:
        self._proxy_flush_scheduled = False
        if not self._ingress_ready:
            return  # a stale flush racing a failover; replay owns these rounds
        # Ops that failed while waiting are skipped, not sent.
        queue = [op for op in self._proxy_queue if self._active.get(op.op_id) is op]
        batch, self._proxy_queue = queue[: self.max_batch], queue[self.max_batch :]
        if not batch:
            return
        if self._proxy_queue:
            # More coalesced work than one frame carries: flush again at once.
            self._schedule_proxy_flush(0.0, out)
        self.stats.record(len(batch))
        self.observer.emit(BATCH_CUT, size=len(batch), queue=PROXY_QUEUE)
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
        ``proxy_id`` drops to ``None`` and the client talks to the replica
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
        queued, self._proxy_queue = self._proxy_queue, []
        if self._proxy_flush_scheduled:
            self._proxy_flush_scheduled = False
            out.append(CancelTimer(_PROXY_FLUSH))
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
        enqueue = self.link.enqueue if self.proxy_id is None else self._enqueue_proxy
        for pending in requeue:
            enqueue(pending, out)
        if self._proxy_queue:
            self._schedule_proxy_flush(0.0, out)
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
        connection-reset edge the watchdog exists to approximate); a replica
        is the direct ingress's loss.
        """
        if peer_id != self.proxy_id or not self._ingress_ready:
            return self.link.on_peer_lost(peer_id)
        out: List[Effect] = []
        self._failover(out)
        return out

    # -- transport send failures ------------------------------------------------

    def on_frame_undeliverable(
        self, frame: Message, error: BaseException, retryable: bool = True
    ) -> List[Effect]:
        """A frame this engine emitted could not be delivered."""
        if frame.kind != PROXY_KIND:
            return self.link.on_frame_undeliverable(frame, error, retryable)
        out: List[Effect] = []
        self.stats.record_frames(sent=-1)  # it never reached the wire either
        if not retryable:
            for sub in unpack_proxy_request(frame):
                pending = self._proxy_rounds.pop((sub.op_id, sub.round_trip), None)
                if pending is not None:
                    self._fail(pending, error, out)
        elif frame.receiver == self.proxy_id and self._ingress_ready:
            self._failover(out)
        return out

    # -- timer fires ------------------------------------------------------------

    def on_timer(self, timer_id: TimerId) -> List[Effect]:
        if timer_id != _PROXY_FLUSH and timer_id != _WATCHDOG:
            return self.link.on_timer(timer_id)
        out: List[Effect] = []
        if timer_id == _PROXY_FLUSH:
            self._flush_proxy(out)
        else:
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
        return self.link.on_frame(message)
