"""The replica-round multiplexer: one round against one group, done once.

The paper's unit of cost is the round trip -- broadcast to the ``S`` replicas
of a group, continue on ``S - t`` replies.  :class:`ReplicaRounds` owns
everything between "here is a round for key *k*" and "here are ``wait_for``
replies / here is why not": the pending table, the per-group queues that
coalesce concurrent rounds into one batch frame per replica, the
``batch-ack`` demultiplexer, the stale-bounce rule, lost-replica accounting
and the flush / retry / round-timeout timers.  The two engines that talk to
replicas are its subclasses -- :class:`~.client.ClientSessionEngine` (its
direct ingress) and :class:`~.proxy.ProxyEngine` (every forwarded round) --
and supply what really differs between them as hooks:

* ``_plan(round)`` -- one attempt's routing and wire identity: resolve the
  key (live shard map vs cached view), pick the targets (whole group vs
  read-routing policy), set ``ident`` -- the ``(op_id, round_trip)`` pair
  the replicas echo, fresh per attempt so a straggler reply to an earlier
  attempt can never be counted into a later quorum -- and emit the owner's
  ``round.opened`` event;
* ``_reroute(round, out)`` -- a replica fenced the attempt: repair what the
  owner routes by and say where the key lives *now*, as ``(group_id, epoch)``;
* ``_framed(round)`` -- asked once per attempt as it goes on the wire, for the
  lease-nonce column of its sub-requests (``None``: no such column);
* ``_retry_timer(round)`` -- the round's retry-timer id, in the owner's timer
  namespace; ``round_timeout`` -- bound every attempt by a timer, or not;
* ``_on_quorum(round, out)`` / ``_on_failed(round, error, out)`` -- the outcome.

The subclass also carries ``policy``, ``stats``, ``observer``, ``max_batch``,
``flush_delay`` and the ``stale_replays`` / ``drain_backoffs`` counters.
Sans-I/O throughout: inputs are decoded frames, timer fires and transport
notifications; outputs are effects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ...core.errors import ProtocolError
from ...messages import (
    BATCH_ACK_KIND,
    BATCH_KIND,
    Message,
    SubRequest,
    make_batch,
    unpack_batch,
    unpack_batch_ack,
)
from ...observe.events import BATCH_CUT, FRAME_RECEIVED, FRAME_SENT, ROUND_REPLAYED
from .effects import CancelTimer, Effect, SendFrame, StartTimer, TimerId
from .server import MAX_STALE_RETRIES, is_stale_reply

__all__ = ["ReplicaRound", "ReplicaRounds"]


@dataclass
class ReplicaRound:
    """One quorum round as the multiplexer sees it; owners subclass it.

    The subclass adds ``request`` -- the broadcast being made, anything with
    ``.kind`` and ``.payload_for(server_id)`` -- and whatever else the owner
    hangs on an in-flight round.
    """

    #: The owner's name for the operation (events and error texts; the wire
    #: identity of an attempt is ``ident``).
    op_id: str
    key: str
    #: Cross-tier trace-context id: stamped once at invocation and carried in
    #: frame metadata through every tier (attempt identities are rewritten on
    #: retries, the trace id never is).
    trace: Optional[str]
    #: Whom the replicas see as the sender of the round's sub-messages.
    sender: str
    # -- set by the owner's ``plan`` hook, once per attempt -------------------
    ident: Tuple[str, int] = field(default=("", 0), init=False)
    group_id: str = field(default="", init=False)
    shard_id: str = field(default="", init=False)
    epoch: int = field(default=0, init=False)
    targets: Sequence[str] = field(default=(), init=False)
    wait_for: int = field(default=0, init=False)
    # -- the multiplexer's own bookkeeping ------------------------------------
    replies: List[Message] = field(default_factory=list, init=False)
    lost_targets: Set[str] = field(default_factory=set, init=False)
    stale_retries: int = field(default=0, init=False)
    drain_backoffs: int = field(default=0, init=False)
    transient_retries: int = field(default=0, init=False)
    timeouts: int = field(default=0, init=False)
    queued: bool = field(default=False, init=False)
    awaiting_retry: bool = field(default=False, init=False)


class ReplicaRounds:
    """Queue -> batch -> quorum -> bounce/replay -> lost-replica handling."""

    #: The one optional hook: an owner with no lease column leaves it unset.
    _framed: Optional[Callable[[ReplicaRound], Optional[str]]] = None

    def __init__(self, node_id: str, round_timeout: Optional[float]) -> None:
        self._node_id = node_id
        self._round_timeout = round_timeout
        self._pending: Dict[Tuple[str, int], ReplicaRound] = {}
        self._queues: Dict[str, List[ReplicaRound]] = {}
        self._flush_scheduled: Set[str] = set()
        self._retrying: Dict[TimerId, ReplicaRound] = {}

    # -- opening an attempt -----------------------------------------------------

    def _open(self, round: ReplicaRound, out: List[Effect]) -> None:
        """Plan one attempt of ``round`` (fresh or replayed) and queue it.

        Replaying is always safe: round-trips are idempotent (queries
        trivially; updates because servers only adopt larger tags), so the
        per-key generator behind the round never observes a replay.
        """
        self._plan(round)
        self._enqueue(round, out)

    def _enqueue(self, round: ReplicaRound, out: List[Effect]) -> None:
        """Queue an attempt the owner has already planned for its group."""
        round.replies = []
        round.lost_targets = set()
        round.awaiting_retry = False
        self._pending[round.ident] = round
        if self._round_timeout is not None:
            # Bound the attempt: a targeted replica can die after the frame
            # left the socket (restrictive read policies only -- a broadcast
            # round always has a live quorum), and on transports with silent
            # loss the timer turns that into a replay.
            out.append(StartTimer(("round", *round.ident), self._round_timeout))
        group_id = round.group_id
        queue = self._queues.setdefault(group_id, [])
        round.queued = True
        queue.append(round)
        if len(queue) >= self.max_batch:
            self._flush(group_id, out)
        elif group_id not in self._flush_scheduled:
            self._flush_scheduled.add(group_id)
            out.append(StartTimer(("flush", group_id), self.flush_delay))

    def _forget(self, round: ReplicaRound, out: List[Effect]) -> None:
        """Drop the current attempt from the table (and its round timer)."""
        forgotten = self._pending.pop(round.ident, None)
        if forgotten is not None and self._round_timeout is not None:
            out.append(CancelTimer(("round", *round.ident)))

    def _clear_rounds(self) -> None:
        """Forget every round and queue (the owner was killed)."""
        self._pending.clear()
        self._queues.clear()
        self._flush_scheduled.clear()
        self._retrying.clear()

    def _flush(self, group_id: str, out: List[Effect]) -> None:
        self._flush_scheduled.discard(group_id)
        # Rounds that ended while they waited are skipped, not sent.
        batch = [
            round
            for round in self._queues.pop(group_id, ())
            if self._pending.get(round.ident) is round
        ]
        if not batch:
            return
        self.stats.record(len(batch))
        self.observer.emit(BATCH_CUT, size=len(batch), queue=group_id)
        # One frame per replica targeted by at least one round of the batch;
        # rounds restricted by a read-routing policy skip the far replicas.
        frames: Dict[str, List[SubRequest]] = {}
        framed = self._framed
        for round in batch:
            round.queued = False
            lease = framed(round) if framed is not None else None
            request = round.request
            op_id, round_trip = round.ident
            for server_id in round.targets:
                message = Message(
                    round.sender, server_id, request.kind,
                    request.payload_for(server_id), op_id, round_trip,
                    trace=round.trace,
                )
                frames.setdefault(server_id, []).append(
                    SubRequest(round.key, message, round.shard_id, round.epoch, lease)
                )
        for server_id, subs in frames.items():
            self.stats.record_frames(sent=1)
            self.observer.emit(FRAME_SENT, kind=BATCH_KIND, dest=server_id)
            out.append(
                SendFrame(server_id, make_batch(self._node_id, server_id, subs))
            )

    # -- replica replies --------------------------------------------------------

    def _on_batch_ack(self, message: Message, out: List[Effect]) -> None:
        """Demultiplex one ``batch-ack`` frame into the rounds it answers."""
        self.stats.record_frames(received=1)
        self.observer.emit(
            FRAME_RECEIVED, kind=BATCH_ACK_KIND, source=message.sender
        )
        pending = self._pending
        for _key, reply in unpack_batch_ack(message):
            if reply is None or reply.op_id is None:
                continue
            round = pending.get((reply.op_id, reply.round_trip))
            if round is None or round.awaiting_retry:
                continue  # straggler from a completed or replayed attempt
            if is_stale_reply(reply):
                # The shard was resized or moved while the attempt was in
                # flight.  Either branch below takes the attempt out of play,
                # so the group's other (equally stale) replies are ignored.
                self._bounce(round, out)
                continue
            round.replies.append(reply)
            if len(round.replies) == round.wait_for:
                self._forget(round, out)
                self._on_quorum(round, out)

    def _bounce(self, round: ReplicaRound, out: List[Effect]) -> None:
        """A replica fenced this attempt's (shard, epoch): back off or re-route."""
        group_id, epoch = self._reroute(round, out)
        if group_id == round.group_id and epoch == round.epoch:
            # The owner's routing already matches the authoritative map, so
            # this is not staleness at all: the key is mid-drain -- fenced on
            # its donor or still pending on its receiver.  Replaying at once
            # would spin against the fence until the range installs; back off
            # on the retry timer instead (without charging ``stale_retries``
            # -- the map has converged, the data just has not landed yet).
            round.drain_backoffs += 1
            self.drain_backoffs += 1
            self.observer.emit(
                ROUND_REPLAYED, op_id=round.op_id, key=round.key,
                trace=round.trace, retries=round.drain_backoffs,
                reason="drain-backoff",
            )
            if round.drain_backoffs > self.policy.max_transient_retries:
                self._fail_round(round, ProtocolError(
                    f"operation {round.op_id} bounced off a draining range "
                    f"{round.drain_backoffs} times; the drain never completed"
                ), out)
            else:
                self._await_retry(round, self.policy.drain_backoff_interval, out)
            return
        round.stale_retries += 1
        self.stale_replays += 1
        self.observer.emit(
            ROUND_REPLAYED, op_id=round.op_id, key=round.key,
            trace=round.trace, retries=round.stale_retries,
        )
        if round.stale_retries > MAX_STALE_RETRIES:
            self._fail_round(round, ProtocolError(
                f"operation {round.op_id} bounced {round.stale_retries} "
                "times; shard map never converged"
            ), out)
        else:
            self._replay(round, out)

    def _replay(self, round: ReplicaRound, out: List[Effect]) -> None:
        self._forget(round, out)
        self._open(round, out)

    def _fail_round(
        self, round: ReplicaRound, error: BaseException, out: List[Effect]
    ) -> None:
        self._forget(round, out)
        self._on_failed(round, error, out)

    # -- transport notifications ------------------------------------------------

    def on_peer_lost(self, server_id: str) -> List[Effect]:
        """A replica connection died terminally (reconnect gave up): rounds
        that can no longer reach a quorum go to replay instead of hanging."""
        out: List[Effect] = []
        for round in list(self._pending.values()):
            if (
                not round.queued
                and server_id in round.targets
                and len(round.replies) < round.wait_for
            ):
                error = ConnectionError(f"replica {server_id} is unreachable")
                self._lose_target(round, server_id, error, True, out)
        return out

    def on_frame_undeliverable(
        self, frame: Message, error: BaseException, retryable: bool = True
    ) -> List[Effect]:
        """A replica-bound ``batch`` frame could not be delivered.

        ``retryable`` distinguishes transient transport loss (a dead
        connection being redialed -- replay after the reconnect window) from
        permanent failures (an oversized frame), which fail the affected
        rounds as soon as they cannot reach a quorum without it.
        """
        out: List[Effect] = []
        if frame.kind != BATCH_KIND:
            return out
        # The frame never reached the wire: uncount it, so frame totals keep
        # the "every frame counted exactly once" invariant even across
        # replays (the replayed attempt counts its own frames).
        self.stats.record_frames(sent=-1)
        for sub in unpack_batch(frame):
            round = self._pending.get((sub.message.op_id, sub.message.round_trip))
            if round is not None:
                self._lose_target(round, frame.receiver, error, retryable, out)
        return out

    def _lose_target(
        self, round: ReplicaRound, server_id: str, error: BaseException,
        retryable: bool, out: List[Effect],
    ) -> None:
        if round.awaiting_retry:
            return
        round.lost_targets.add(server_id)
        if len(round.targets) - len(round.lost_targets) >= round.wait_for:
            return  # a quorum is still possible on the surviving targets
        if retryable:
            round.transient_retries += 1
            retryable = round.transient_retries <= self.policy.max_transient_retries
        if not retryable:
            self._fail_round(round, error, out)
            return
        # Too many targets were unreachable for this attempt (a kill
        # mid-flight): wait out the reconnect window, then re-plan the round
        # (the redial may have landed by then, or the routing moved on).
        self._await_retry(round, self.policy.reconnect_interval, out)

    def _await_retry(
        self, round: ReplicaRound, delay: float, out: List[Effect]
    ) -> None:
        round.awaiting_retry = True
        timer_id = self._retry_timer(round)
        self._retrying[timer_id] = round
        out.append(StartTimer(timer_id, delay))

    # -- timer fires ------------------------------------------------------------

    def on_timer(self, timer_id: TimerId) -> List[Effect]:
        out: List[Effect] = []
        kind = timer_id[0]
        if kind == "flush":
            self._flush(timer_id[1], out)
        elif kind == "round":
            round = self._pending.get(timer_id[1:])
            if round is None or round.queued or round.awaiting_retry:
                return out
            # The attempt went silent: a targeted replica died after the
            # frame left the socket.  Replay -- the redial may have landed by
            # now -- or fail the round after max_round_timeouts so the owner
            # is never left hanging.
            round.timeouts += 1
            if round.timeouts > self.policy.max_round_timeouts:
                self._fail_round(round, ProtocolError(
                    "round got no quorum within "
                    f"{round.timeouts * self._round_timeout:.0f}s; "
                    "with a restrictive read policy, give it spare >= the "
                    "fault budget to ride out crashed replicas"
                ), out)
            else:
                self._replay(round, out)
        else:
            round = self._retrying.pop(timer_id, None)
            if round is not None:
                self._replay(round, out)
        return out
