"""The replica-round multiplexer: one round against one group, done once.

The paper's unit of cost is the round trip -- broadcast to the ``S`` replicas
of a group, continue on ``S - t`` replies.  :class:`ReplicaRounds` owns
everything between "here is a round for key *k*" and "here are ``wait_for``
replies / here is why not": the pending table, the queues that coalesce
concurrent rounds into one frame per destination, the ``batch-ack``
demultiplexer, the stale-bounce rule, lost-replica accounting and the flush /
retry / silence timers.

**One queue rule.**  A queue is named after its destination -- a group, or a
proxy of a :class:`~.link.ClientLink` -- and is created with one ``("flush",
destination)`` timer.  Only that timer sends it, full or not: every round in
it leaves, in chunks of at most ``max_batch``, and only the framing of a
chunk (``_cut``) depends on the destination.

**Lease releases ride the rounds.**  A proxy hands a read lease back to a
replica with :meth:`ReplicaRounds._release`, which puts it in the queue of
the replica's group.  It leaves in the next ``batch`` frame to that replica
-- at that flush, or a widening before it -- whose receiver applies it before
the frame's subs; one that no frame carried by the end of the flush leaves
in one ``lease-release`` frame per replica, in the same input.  So a release
reaches its replica no later than any sub framed after it.

**Quorum first.**  The model lets any ``t`` of a round's ``S`` messages be
delayed forever, so a round sent to only ``S - t`` replicas is an execution
every protocol here already survives.  A first attempt that mutates nothing
(its kind is not in ``mutating_kinds``) and carries no per-server payload
therefore goes out *narrow*: at the flush, every narrow round of a chunk is
asked of the same ``wait_for`` replicas, the pick rotating per group per
chunk.  A narrow round is *widened* -- the same sub-request, same identity,
sent to the replicas not asked yet -- as soon as one of the asked is reported
lost, and otherwise by one per-engine silence timer
(``policy.silence_window``) once it has been out for a whole window.
Mutating rounds still ask the whole group (a write has to land wherever it can
for the next narrow read to find a unanimous quorum), and so do replays and
every round of an owner with an explicit ``read_policy``.

**One watchdog.**  The silence timer is the only timer that bounds an
attempt; no attempt has a timer of its own.  At the flush that sends it,
every attempt is given the tick it is due at (``due``): a narrow one is
widened after one whole window, and one sent to every replica it may ask --
widened, mutating, replayed, or a read policy's pick -- fails with
:class:`~repro.core.errors.ProtocolError` after ``max_round_timeouts``
windows short of its quorum.  A mutating attempt waits at least
``ceil(lease_ttl / silence_window) + 1`` windows, because a replica may
legitimately withhold its ack behind a read lease for up to one TTL.  Both
owners and both backends run this one rule.

The two engines that talk to replicas are its subclasses --
:class:`~.link.ClientLink` (the direct ingress of every
:class:`~.client.ClientSessionEngine` that holds it) and
:class:`~.proxy.ProxyEngine` (every forwarded round) -- and supply what really
differs between them as hooks:

* ``_plan(round)`` -- one attempt's routing and wire identity: resolve the
  key (live shard map vs cached view), pick the targets (whole group vs
  read-routing policy), set ``ident`` -- the ``(op_id, round_trip)`` pair
  the replicas echo, fresh per attempt so a straggler reply to an earlier
  attempt can never be counted into a later quorum -- and emit the owner's
  ``round.opened`` event;
* ``_reroute(round, out)`` -- a replica fenced the attempt: repair what the
  owner routes by and say where the key lives *now*, as ``(group_id, epoch)``;
* ``_framed(round, servers)`` -- asked as sub-requests of an attempt go on the
  wire to ``servers`` (at the flush, and again if it is widened), for their
  lease-nonce column (``None``: no such column);
* ``_retry_timer(round)`` -- the round's retry-timer id, in the owner's timer
  namespace;
* ``_on_quorum(round, out)`` / ``_on_failed(round, error, out)`` -- the outcome;
* ``_counted(round)`` -- whose ``stale_replays`` / ``drain_backoffs`` counters
  a bounce of the round bumps (the owner's own, unless it says otherwise).

The subclass also carries ``policy``, ``stats``, ``observer``, ``max_batch``
and, if it sets them, ``flush_delay`` and ``read_policy``.
Rounds of different senders share a batch frame whenever they share a flush:
each sub-message keeps its own ``sender``, which is all the replicas' per-client
bookkeeping reads.
Sans-I/O throughout: inputs are decoded frames, timer fires and transport
notifications; outputs are effects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ...core.errors import ProtocolError
from ...messages import (
    BATCH_ACK_KIND,
    BATCH_KIND,
    LEASE_RELEASE_KIND,
    Message,
    SubRequest,
    make_batch,
    make_lease_release,
    unpack_batch,
    unpack_batch_ack,
)
from ...observe.events import (
    BATCH_CUT,
    FRAME_RECEIVED,
    FRAME_SENT,
    ROUND_REPLAYED,
    ROUND_WIDENED,
)
from ...protocols.base import RegisterProtocol
from .effects import Effect, SendFrame, StartTimer, TimerId
from .server import MAX_STALE_RETRIES, is_stale_reply

__all__ = ["ReplicaRound", "ReplicaRounds"]

_SILENCE: TimerId = ("silence",)

#: Replica id -> the sub-requests of the frame being built for it.
_Frames = Dict[str, List[SubRequest]]


@dataclass
class ReplicaRound:
    """One quorum round as the multiplexer sees it; owners subclass it.

    The subclass adds ``request`` -- the broadcast being made, anything with
    ``.kind``, ``.per_server_payload`` and ``.payload_for(server_id)`` -- and
    whatever else the owner hangs on an in-flight round.
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
    #: Every replica the attempt may ask (the group, or a read policy's pick).
    targets: Sequence[str] = field(default=(), init=False)
    wait_for: int = field(default=0, init=False)
    # -- the multiplexer's own bookkeeping ------------------------------------
    #: The replicas the attempt has been sent to: ``wait_for`` of ``targets``
    #: while it is ``narrow``, all of them otherwise.
    asked: Sequence[str] = field(default=(), init=False)
    narrow: bool = field(default=False, init=False)
    #: The silence-timer tick at which the attempt is widened (narrow) or
    #: given up on (anything else); 0: not sent yet.
    due: int = field(default=0, init=False)
    replies: List[Message] = field(default_factory=list, init=False)
    lost_targets: Set[str] = field(default_factory=set, init=False)
    stale_retries: int = field(default=0, init=False)
    drain_backoffs: int = field(default=0, init=False)
    transient_retries: int = field(default=0, init=False)
    queued: bool = field(default=False, init=False)
    awaiting_retry: bool = field(default=False, init=False)


class ReplicaRounds:
    """Queue -> batch -> quorum -> bounce/replay -> lost-replica handling."""

    #: The one optional hook: an owner with no lease column leaves it unset.
    _framed: Optional[
        Callable[[ReplicaRound, Sequence[str]], Optional[str]]
    ] = None
    #: An explicit read-routing policy owns the targets of every round; with
    #: none (the client, and the proxy's default) rounds go quorum-first.
    read_policy = None
    #: How long a queue waits for company before its flush (0 on the link).
    flush_delay = 0.0

    def __init__(self, node_id: str, lease_ttl: float) -> None:
        self._node_id = node_id
        # The silence windows a mutating attempt waits for its quorum: long
        # enough to outwait a read lease it is deferred behind.
        policy = self.policy
        self._write_patience = max(
            policy.max_round_timeouts,
            math.ceil(lease_ttl / policy.silence_window) + 1,
        )
        self._pending: Dict[Tuple[str, int], ReplicaRound] = {}
        #: Destination (a group, or a proxy of the link's) -> the rounds
        #: waiting for its ``("flush", destination)`` timer.
        self._queues: Dict[str, List[ReplicaRound]] = {}
        self._retrying: Dict[TimerId, ReplicaRound] = {}
        #: Chunks so far, per group: where the next narrow quorum starts.
        self._turns: Dict[str, int] = {}
        #: Replicas that sat silent through a narrow round's window and have
        #: sent nothing since.  (A loss the transport reports needs no memory:
        #: it widens the round at once, and stops when the redial lands.)
        self._suspects: Set[str] = set()
        self._silence_armed = False
        self._silence_ticks = 0
        #: Replica -> the keys whose leases the next frame to it hands back,
        #: and queue -> the replicas whose releases its flush sends at last.
        self._releases: Dict[str, List[str]] = {}
        self._releasing: Dict[str, List[str]] = {}
        #: Releases handed back in a batch frame / in a frame of their own.
        self.releases_carried = 0
        self.releases_alone = 0

    # -- opening an attempt -----------------------------------------------------

    def _open(
        self, round: ReplicaRound, out: List[Effect], replay: bool = False
    ) -> None:
        """Plan one attempt of ``round`` (fresh or replayed) and queue it.

        Replaying is always safe: round-trips are idempotent (queries
        trivially; updates because servers only adopt larger tags), so the
        per-key generator behind the round never observes a replay.
        """
        self._plan(round)
        self.enqueue(round, out, replay)

    def enqueue(
        self, round: ReplicaRound, out: List[Effect], replay: bool = False
    ) -> None:
        """Queue an attempt that is already planned for its group (how a
        session that holds the multiplexer hands it a round)."""
        round.replies = []
        round.lost_targets = set()
        round.awaiting_retry = False
        round.asked = ()
        round.due = 0
        request = round.request
        # A replay follows a loss, a bounce or a timeout: it asks everyone.
        round.narrow = (
            not replay
            and self.read_policy is None
            and request.kind not in RegisterProtocol.mutating_kinds
            and not request.per_server_payload
            and round.wait_for < len(round.targets)
        )
        self._pending[round.ident] = round
        round.queued = True
        self._queue(round.group_id, round, out)

    def _queue(
        self, destination: str, round: Optional[ReplicaRound], out: List[Effect]
    ) -> None:
        """Add ``round`` (``None``: nothing, a release is waiting) to
        ``destination``'s queue: a queue is created with its one flush timer,
        and nothing but that timer sends it."""
        queue = self._queues.get(destination)
        if queue is None:
            queue = self._queues[destination] = []
            out.append(StartTimer(("flush", destination), self.flush_delay))
        if round is not None:
            queue.append(round)

    def _release(
        self, group_id: str, server_id: str, keys: List[str], out: List[Effect]
    ) -> None:
        """Hand the leases on ``keys`` back to ``server_id`` by the flush of
        ``group_id``'s queue (see the module notes)."""
        self._queue(group_id, None, out)
        pending = self._releases.get(server_id)
        if pending is None:
            self._releases[server_id] = list(keys)
            self._releasing.setdefault(group_id, []).append(server_id)
        else:
            pending.extend(keys)

    def _counted(self, round: ReplicaRound):
        return self

    def _clear_rounds(self) -> None:
        """Forget every round and queue (the owner was killed)."""
        self._pending.clear()
        self._queues.clear()
        self._retrying.clear()
        self._releases.clear()
        self._releasing.clear()
        self._silence_armed = False  # the adapter drops the timer with us

    def _flush(self, destination: str, out: List[Effect]) -> None:
        """The queue's timer fired: all of it leaves, ``max_batch`` rounds a
        chunk, and then the releases no frame of it carried.  (Owners that
        drop a queued round take it out of the queue.)"""
        queue = self._queues.pop(destination, ())
        cap = self.max_batch
        for start in range(0, len(queue), cap):
            batch = queue[start : start + cap]
            self.observer.emit(BATCH_CUT, size=len(batch), queue=destination)
            self._cut(destination, batch, out)
        for server_id in self._releasing.pop(destination, ()):
            keys = self._releases.pop(server_id, None)
            if keys is not None:
                self.releases_alone += 1
                counts = self.observer.frame_sent
                if counts is None:
                    self.observer.emit(FRAME_SENT, kind=LEASE_RELEASE_KIND, dest=server_id)
                else:
                    counts["frames_sent"] += 1
                out.append(SendFrame(
                    server_id, make_lease_release(self._node_id, server_id, keys)
                ))

    def _cut(self, group_id: str, batch: List[ReplicaRound], out: List[Effect]) -> None:
        """Frame one chunk of a group's queue: one ``batch`` frame per replica
        asked by at least one of its rounds.  The narrow rounds all ask the
        head of one order of the group (they have no read policy, so their
        targets are the group), and a chunk of them costs S - t frames.

        Every round is due a whole number of windows from now: the next tick
        of the silence timer ends the first if this chunk arms it, the one
        after if the chunk joins a window in progress."""
        self.stats.record(len(batch))
        order: Sequence[str] = ()
        now = self._silence_ticks + (1 if self._silence_armed else 0)
        mutating = RegisterProtocol.mutating_kinds
        frames: _Frames = {}
        for round in batch:
            round.queued = False
            servers = round.targets
            if round.narrow:
                if not order:
                    order = self._quorum_order(group_id, servers)
                round.due = now + 1
                self.stats.rounds_narrow += 1
                servers = order[: round.wait_for]
            elif round.request.kind in mutating:
                round.due = now + self._write_patience
            else:
                round.due = now + self.policy.max_round_timeouts
            round.asked = servers
            self._frame(round, servers, frames)
        self._send_frames(frames, out)
        self._watch(out)

    def _frame(
        self, round: ReplicaRound, servers: Sequence[str], frames: _Frames
    ) -> None:
        """Add the attempt's sub-request for each of ``servers`` to ``frames``.

        The frame is addressed, the sub-request is not: one object, addressed
        to the round's group, joins the frame to every replica asked (each
        answers as itself).  Only a per-server payload needs one per replica.
        """
        framed = self._framed
        lease = framed(round, servers) if framed is not None else None
        request = round.request
        per_server = request.per_server_payload
        op_id, round_trip = round.ident
        sub = None
        for server_id in servers:
            if sub is None or per_server:
                sub = SubRequest(
                    round.key,
                    Message(
                        round.sender, round.group_id, request.kind,
                        request.payload_for(server_id), op_id, round_trip,
                        trace=round.trace,
                    ),
                    round.shard_id, round.epoch, lease,
                )
            frames.setdefault(server_id, []).append(sub)

    def _send_frames(self, frames: _Frames, out: List[Effect]) -> None:
        releases = self._releases
        for server_id, subs in frames.items():
            carried = releases.pop(server_id, None) if releases else None
            if carried is not None:
                self.releases_carried += 1
            self.stats.record_frames(sent=1)
            counts = self.observer.frame_sent
            if counts is None:
                self.observer.emit(FRAME_SENT, kind=BATCH_KIND, dest=server_id)
            else:
                counts["frames_sent"] += 1
            out.append(SendFrame(
                server_id, make_batch(self._node_id, server_id, subs, carried)
            ))

    # -- narrow attempts, and widening them ---------------------------------------

    def _quorum_order(self, group_id: str, servers: Sequence[str]) -> Sequence[str]:
        """The order this chunk's narrow rounds ask ``servers`` in.

        The start rotates per group per chunk, so the load spreads and every
        replica is asked within ``S`` chunks.  Replicas that left a round
        silent for a window and have not been heard from since go last: with
        one down, two rotations in three would otherwise pay a window each.
        """
        turn = self._turns[group_id] = self._turns.get(group_id, -1) + 1
        start = turn % len(servers)
        order = (*servers[start:], *servers[:start])
        if self._suspects:
            return sorted(order, key=self._suspects.__contains__)
        return order

    def _watch(self, out: List[Effect]) -> None:
        """Keep the silence timer running while watched rounds are out.

        One timer per engine, not one per round: armed by the first narrow
        round out and re-armed at a tick only while some are still out, so a
        busy engine arms it once a window and an idle one not at all.
        """
        if not self._silence_armed:
            self._silence_armed = True
            out.append(StartTimer(_SILENCE, self.policy.silence_window))

    def _widen(
        self, round: ReplicaRound, reason: str, due: int, frames: _Frames
    ) -> None:
        """Ask the rest of the group too: same sub-request, same identity.

        Every replica is asked once per attempt, so a late reply from the
        first quorum and one from the rest never count a replica twice.  The
        attempt is given until tick ``due``.
        """
        asked = round.asked
        rest = [server_id for server_id in round.targets if server_id not in asked]
        round.narrow = False
        round.asked = round.targets
        round.due = due
        self.stats.rounds_widened += 1
        self.observer.emit(
            ROUND_WIDENED, op_id=round.op_id, key=round.key, trace=round.trace,
            reason=reason,
        )
        self._frame(round, rest, frames)

    def _on_silence(self, out: List[Effect]) -> None:
        """A silence window ended: widen what sat through it, re-arm or lapse."""
        self._silence_ticks = tick = self._silence_ticks + 1
        # Down from here: a round queued from in here (a failed op's
        # successor) starts the next window itself at its flush.
        self._silence_armed = False
        patience = tick + self.policy.max_round_timeouts
        watching = False
        frames: _Frames = {}
        for round in list(self._pending.values()):
            if not round.due or round.awaiting_retry:
                continue
            if round.due > tick:
                watching = True
            elif round.narrow:
                # Nothing that mutates is ever narrow, and replicas answer
                # everything else at once: a round still short of its quorum
                # has a slow or dead replica among the asked.
                answered = {reply.sender for reply in round.replies}
                self._suspects.update(
                    server_id for server_id in round.asked
                    if server_id not in answered
                )
                self._widen(round, "silent", patience, frames)
                watching = True
            else:
                self._fail_round(round, ProtocolError(
                    f"operation {round.op_id} got no quorum from every "
                    "replica it asked within its silence windows; more "
                    "replicas are down than the fault budget covers"
                ), out)
        self._send_frames(frames, out)
        if watching:
            self._watch(out)

    # -- replica replies --------------------------------------------------------

    def _on_batch_ack(self, message: Message, out: List[Effect]) -> None:
        """Demultiplex one ``batch-ack`` frame into the rounds it answers."""
        self.stats.record_frames(received=1)
        counts = self.observer.frame_received
        if counts is None:
            self.observer.emit(
                FRAME_RECEIVED, kind=BATCH_ACK_KIND, source=message.sender
            )
        else:
            counts["frames_received"] += 1
        if self._suspects:
            self._suspects.discard(message.sender)
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
                del pending[round.ident]
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
            self._counted(round).drain_backoffs += 1
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
        self._counted(round).stale_replays += 1
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
        self._pending.pop(round.ident, None)
        self._open(round, out, replay=True)

    def _fail_round(
        self, round: ReplicaRound, error: BaseException, out: List[Effect]
    ) -> None:
        self._pending.pop(round.ident, None)
        self._on_failed(round, error, out)

    # -- transport notifications ------------------------------------------------

    def on_peer_lost(self, server_id: str) -> List[Effect]:
        """A replica connection died terminally (reconnect gave up): rounds
        that can no longer reach a quorum go to replay instead of hanging."""
        out: List[Effect] = []
        frames: _Frames = {}
        for round in list(self._pending.values()):
            if server_id in round.asked and len(round.replies) < round.wait_for:
                error = ConnectionError(f"replica {server_id} is unreachable")
                self._lose_target(round, server_id, error, True, frames, out)
        self._send_frames(frames, out)
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
        frames: _Frames = {}
        for sub in unpack_batch(frame):
            round = self._pending.get((sub.message.op_id, sub.message.round_trip))
            if round is not None:
                self._lose_target(
                    round, frame.receiver, error, retryable, frames, out
                )
        self._send_frames(frames, out)
        return out

    def _lose_target(
        self, round: ReplicaRound, server_id: str, error: BaseException,
        retryable: bool, frames: _Frames, out: List[Effect],
    ) -> None:
        if round.awaiting_retry:
            return
        round.lost_targets.add(server_id)
        if round.narrow:
            # The timer is armed while a narrow round is out, so the next tick
            # is under a window away: one more keeps the patience whole.
            self._widen(
                round, "replica-lost",
                self._silence_ticks + 1 + self.policy.max_round_timeouts, frames,
            )
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
        self.observer.emit(
            ROUND_REPLAYED, op_id=round.op_id, key=round.key, trace=round.trace,
            retries=round.transient_retries, reason="replica-lost",
        )
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
        elif kind == "silence":
            self._on_silence(out)
        else:
            round = self._retrying.pop(timer_id, None)
            if round is not None:
                self._replay(round, out)
        return out
