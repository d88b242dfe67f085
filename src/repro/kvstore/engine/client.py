"""The client-session engine: operations, per-key order, and proxy failover.

One :class:`ClientSessionEngine` is one logical store client.  It may have
many operations (on distinct keys) in flight at once; each drives the
ordinary single-register client generator for its key, and every round the
generator yields goes out through the client's current *ingress*, over the
:class:`~.link.ClientLink` the engine *holds*: direct, the round is resolved
against the live shard map here and multiplexed to its owner group there,
quorum-first when it mutates nothing; behind a proxy, it joins the link's
queue for that proxy, where in-flight rounds (for any shard, any group)
coalesce into one ``"proxy"`` frame per flush, the proxy owns shard
resolution and stale-epoch replay, and each round comes back as one
sub-reply of a ``"proxy-ack"`` carrying the whole quorum.

Built on its own -- a simulator process, a test fabric -- a session gets a
private link and is fed the link's inputs (``batch-ack`` and ``proxy-ack``
frames, flush / silence / retry / watchdog timers, losses, connection
outcomes) through its own entry points, so one adapter drives it as one
engine.  Handed a link that other sessions hold too, it stays one client --
op ids, per-key order, generators, recorder, counters, candidate list and
failover generation are its own -- while its rounds share the link's frames
with theirs; the adapter then feeds the link, and everything the session
returns is the link's to execute.

The proxy leg is fault-tolerant: when the link finds the session's proxy
dead -- reported by the transport, a frame that could not be delivered, or
the leg's watchdog where the transport drops traffic silently -- the session
walks its candidate list (emitting :class:`~.effects.Connect` effects), or
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
    FAILOVER_HOP,
    NULL_OBSERVER,
    OP_COMPLETED,
    OP_FAILED,
    OP_INVOKED,
    ROUND_OPENED,
    EngineObserver,
)
from ...messages import DEFAULT_LEASE_TTL, Message
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
    TimerId,
)
from .link import ClientLink
from .rounds import ReplicaRound
from .stats import BatchStats

__all__ = ["ClientSessionEngine"]


@dataclass
class _PendingKVOp(ReplicaRound):
    """One in-flight kv operation driving a per-key register generator."""

    #: The session the operation belongs to (whom the link reports back to).
    session: "ClientSessionEngine"
    kind: OpKind
    generator: Any
    round_trip: int = 0
    request: Optional[Broadcast] = None


class ClientSessionEngine:
    """One store client's protocol state machine (transport-agnostic).

    ``link`` is the link to share with other sessions of the process;
    without one the session builds its own, with its own ``max_batch``,
    observer and ``stats`` and the deployment's ``lease_ttl``.
    """

    def __init__(
        self,
        client_id: str,
        shard_map: ShardMap,
        recorder: KVHistoryRecorder,
        policy: Optional[RetryPolicy] = None,
        max_batch: int = 8,
        proxy_candidates: Optional[Sequence[str]] = None,
        observer: Optional[EngineObserver] = None,
        link: Optional[ClientLink] = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        self.client_id = client_id
        self.shard_map = shard_map
        self.recorder = recorder
        self.policy = policy or DEFAULT_RETRY_POLICY
        self.max_batch = max_batch
        self.observer = observer if observer is not None else NULL_OBSERVER
        #: This session's frames and batches, both ingresses: counted here on
        #: a private link; a shared one counts them itself, and this stays 0.
        self.stats = BatchStats()
        self.completed_operations = 0
        self.stale_replays = 0
        self.drain_backoffs = 0
        self.proxy_failovers = 0
        if link is None:
            link = ClientLink(
                client_id, self.policy, max_batch, self.observer,
                stats=self.stats, proxy_stats=self.stats, lease_ttl=lease_ttl,
                clock=recorder.now,
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
        #: Scopes the op ids forwarded to a proxy: bumped at every failover.
        self._proxy_generation = 0
        #: Rounds waiting for the ingress being connected: those that were out
        #: on a dead proxy (a fresh attempt each) and those never sent.
        self._replay_inflight: List[_PendingKVOp] = []
        self._requeue: List[_PendingKVOp] = []
        self._readers: Dict[str, ClientLogic] = {}
        self._writers: Dict[str, ClientLogic] = {}
        self._logic_homes: Dict[str, str] = {}
        self._active: Dict[str, _PendingKVOp] = {}
        self._key_inflight: Set[str] = set()
        self._key_backlog: Dict[str, Deque[tuple]] = {}

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
        self._send(pending, out)

    def _send(self, pending: _PendingKVOp, out: List[Effect]) -> None:
        """Hand a planned round to the ingress: the link's queue for its
        group or for the session's proxy, or -- while a new ingress is being
        connected -- the wait list."""
        if not self._ingress_ready:
            self._requeue.append(pending)
        elif self.proxy_id is None:
            self.link.enqueue(pending, out)
        else:
            self.link.forward(pending, out)

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
        # Only another session's round can share a query with this one.
        pending.shares = (
            self.link._sharing
            and request.kind in spec.group.protocol.shareable_kinds
            and not request.per_server_payload
        )
        counts = self.observer.round_opened
        if counts is None:
            self.observer.emit(
                ROUND_OPENED, op_id=pending.op_id, key=pending.key,
                trace=pending.trace, round_trip=pending.round_trip,
            )
        else:
            counts["rounds_opened"] += 1

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
        self._key_inflight.discard(pending.key)
        backlog = self._key_backlog.get(pending.key)
        if backlog:
            op_id, kind, value = backlog.popleft()
            self._start(op_id, kind, pending.key, value, out)

    def close(self) -> List[Effect]:
        """The client is going away: fail what it has in flight.

        Every operation it still owes an outcome -- active or backlogged
        behind one -- fails with ``ConnectionError``; the session and its
        rounds leave the link (alone: other sessions' rounds and the shared
        timers stay).
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
        self._replay_inflight.clear()
        self._requeue.clear()
        return out

    # -- proxy failover (the link decides when, the session where to) ------------

    def _failover(self, out: List[Effect]) -> None:
        """The current proxy is dead: advance the ingress path and replay.

        The next candidate of the site takes over; with the list exhausted,
        ``proxy_id`` drops to ``None`` and the client talks to the replica
        groups directly (the pre-proxy data path, always available because
        proxies hold no register state).  Every in-flight round is taken off
        the link's leg and -- once the adapter confirms the new ingress --
        re-dispatched: re-resolved against the live shard map, re-batched,
        and forwarded under the bumped generation scope.
        """
        self.proxy_failovers += 1
        self._proxy_generation += 1
        self.observer.emit(
            FAILOVER_HOP,
            abandoned=self.proxy_id,
            generation=self._proxy_generation,
        )
        inflight, queued = self.link.withdraw(self, out)
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

    def _waiting_on(self, target: str) -> bool:
        current = self.proxy_id if self.proxy_id is not None else DIRECT_INGRESS
        return target == current and not self._ingress_ready

    def _connected(self, target: str, out: List[Effect]) -> None:
        if not self._waiting_on(target):
            return  # not ours, or a stale dial answered after another failover
        self._ingress_ready = True
        inflight, self._replay_inflight = self._replay_inflight, []
        waiting, self._requeue = self._requeue, []
        for pending in inflight:
            self._dispatch_round(pending, out)
        for pending in waiting:
            self._send(pending, out)

    def _connect_failed(self, target: str, out: List[Effect]) -> None:
        if self._waiting_on(target):
            self._advance_ingress(out)

    # -- the link's inputs, for a session that is fed them itself ------------------

    def on_connected(self, target: str) -> List[Effect]:
        """The adapter established the ingress path requested by ``Connect``."""
        return self.link.on_connected(target)

    def on_peer_lost(self, peer_id: str) -> List[Effect]:
        """The transport observed ``peer_id``'s connection die terminally."""
        return self.link.on_peer_lost(peer_id)

    def on_frame_undeliverable(
        self, frame: Message, error: BaseException, retryable: bool = True
    ) -> List[Effect]:
        """A frame this engine emitted could not be delivered."""
        return self.link.on_frame_undeliverable(frame, error, retryable)

    def on_timer(self, timer_id: TimerId) -> List[Effect]:
        return self.link.on_timer(timer_id)

    def on_frame(self, message: Message) -> List[Effect]:
        return self.link.on_frame(message)
