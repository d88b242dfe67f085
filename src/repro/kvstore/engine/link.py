"""The client link: every session's rounds of one process, on both ingresses.

A :class:`ClientLink` carries the rounds of every
:class:`~.client.ClientSessionEngine` that holds it, whichever ingress each
session is on:

* **direct** -- it is one of the two owners of the replica-round multiplexer
  (:class:`~.rounds.ReplicaRounds`), beside the proxy: rounds opened by
  different sessions in the same flush window leave in **one** ``batch``
  frame per asked replica and come back in one ``batch-ack`` -- the merge a
  proxy does across a network hop, without the hop;
* **proxied** -- rounds of every session on a proxy wait in the
  multiplexer's queue for that proxy, under the same rule as a group's: at
  its flush timer they all leave, one ``proxy`` frame per chunk of at most
  the link's frame cap (:meth:`ClientLink._cut` is the only proxy-specific
  part).  Per proxy id the link also holds one *leg*: the table of the
  rounds out on that proxy, and the failover watchdog.  The proxy answers
  each of its turns with one ``proxy-ack`` for the link, and the table
  hands every sub-reply back to the session that owns the round.

A session built on its own gets a private link and is, effect for effect, the
one-client engine it always was; an adapter that runs several sessions in one
process hands them all the same link, and one connection per peer carries
them all.

**Shared:** the tables, queues and flush timers of both ingresses, the quorum
rotation (``_turns``), the suspects, the one silence timer, one watchdog per
proxy, the frame cap (the largest ``max_batch`` an attached session asked
for) and the ``BatchStats`` -- every frame on the link is counted once, here:
``stats`` for the replica side, ``proxy_stats`` for the proxy legs (one
object for both on a private link).

**Not shared:** identity.  Every replica-bound sub-message still names its
own session as ``sender``, and every forwarded round its session as
``client`` -- left ``None``, meaning "the frame's sender", on a private link,
whose id *is* the session's.  The protocols' crucial-info bookkeeping -- the
per-client ``updated`` sets behind the paper's ``R < S/t - 2`` -- counts
reader *identities*, not sockets.  Every attempt keeps its own ``(op_id,
round_trip)``, and the hooks below hand each round back to the session that
owns it: routing, per-key order, the generators, the recorder, the proxy
candidate list and failover generation, ``op.*`` and ``round.opened``
events and the ``stale_replays`` / ``drain_backoffs`` / ``proxy_failovers``
counters stay per session.  Only the link's frames name the link
(``link_id``) as their sender, which is whom the replicas and proxies answer.

**Losing a proxy.**  The transport reporting the proxy lost, a ``proxy``
frame it could not deliver, or the leg's watchdog finding the proxy silent
(where the transport drops traffic without a word) all mean the same: every
session on that proxy fails over along its *own* candidate list, and
:meth:`ClientLink.on_connected` reaches every session waiting on the target
that was connected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ...core.errors import ProtocolError
from ...messages import (
    BATCH_ACK_KIND,
    DEFAULT_LEASE_TTL,
    PROXY_ACK_KIND,
    PROXY_KIND,
    Message,
    ProxySubRequest,
    make_proxy_request,
    unpack_proxy_ack,
    unpack_proxy_request,
)
from ...observe.events import (
    FRAME_RECEIVED,
    FRAME_SENT,
    NULL_OBSERVER,
    EngineObserver,
)
from .effects import (
    DEFAULT_RETRY_POLICY,
    CancelTimer,
    Effect,
    RetryPolicy,
    SendFrame,
    StartTimer,
    TimerId,
)
from .rounds import ReplicaRound, ReplicaRounds
from .routing import attempt_scoped_id
from .stats import BatchStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .client import ClientSessionEngine

__all__ = ["ClientLink"]


@dataclass(eq=False)
class _ProxyLeg:
    """What the link holds for one proxy besides its queue."""

    proxy_id: str
    #: (forwarded op id, round trip) -> the round out on this proxy.
    rounds: Dict[Tuple[str, int], ReplicaRound] = field(default_factory=dict)
    watching: bool = False
    #: When the proxy last acked since the watchdog was armed (the link's
    #: clock), or None.
    last_ack: Optional[float] = None


class ClientLink(ReplicaRounds):
    """One process's rounds, to the replicas and through proxies
    (transport-agnostic).

    Its rounds are the sessions' pending operations: each names its owner as
    ``round.session``.  Sessions reach it through :meth:`attach`,
    :meth:`~.rounds.ReplicaRounds.enqueue`, :meth:`forward`,
    :meth:`withdraw` and :meth:`release`; the adapter feeds it ``batch-ack``
    and ``proxy-ack`` frames, timer fires, connection outcomes and transport
    notifications.  ``lease_ttl`` is the deployment's read-lease TTL: how
    long a replica may withhold a write's ack behind a proxy's lease.
    ``clock`` tells the time in the policy's units; only the proxy watchdog
    reads it, so a link whose policy arms none needs none.
    """

    def __init__(
        self,
        link_id: str,
        policy: Optional[RetryPolicy] = None,
        max_batch: int = 1,
        observer: Optional[EngineObserver] = None,
        stats: Optional[BatchStats] = None,
        proxy_stats: Optional[BatchStats] = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.link_id = link_id
        self.policy = policy or DEFAULT_RETRY_POLICY
        if clock is None and self.policy.failover_timeout is not None:
            raise ValueError("a link with a failover watchdog needs a clock")
        self._clock = clock
        self.max_batch = max_batch
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.stats = stats if stats is not None else BatchStats()
        self.proxy_stats = proxy_stats if proxy_stats is not None else BatchStats()
        self.sessions: List["ClientSessionEngine"] = []
        self._legs: Dict[str, _ProxyLeg] = {}
        super().__init__(link_id, lease_ttl)
        self._sharing = False

    # -- the sessions' side -------------------------------------------------------

    def attach(self, session: "ClientSessionEngine") -> None:
        """``session`` will send its rounds through this link."""
        self.sessions.append(session)
        self.max_batch = max(self.max_batch, session.max_batch)
        self._sharing = len(self.sessions) > 1

    def release(self, session: "ClientSessionEngine", out: List[Effect]) -> None:
        """Forget ``session`` and every round of it (it is closing), and only
        those.

        Its queued rounds leave the queues, stragglers answering its sent
        ones find nothing, rounds of others riding its queries go back to
        the queues, and the shared timers keep running for everybody else's.
        """
        if session in self.sessions:  # closing twice is harmless
            self.sessions.remove(session)
        self._sharing = len(self.sessions) > 1
        for ident, round in list(self._pending.items()):
            if round.session is session:
                del self._pending[ident]
                round.leader = None
                if round.riders:
                    self._unride(round, out)
        for timer_id, round in list(self._retrying.items()):
            if round.session is session:
                del self._retrying[timer_id]
                out.append(CancelTimer(timer_id))
        for destination in self._queues:
            self._unqueue(destination, session)
        for leg in self._legs.values():
            self._take_sent(leg, session, out)

    def forward(self, round: ReplicaRound, out: List[Effect]) -> None:
        """Queue a round for its session's proxy (the proxy does the
        per-group split, so rounds for different groups share its queue)."""
        proxy_id = round.session.proxy_id
        if proxy_id not in self._legs:
            self._legs[proxy_id] = _ProxyLeg(proxy_id)
        self._queue(proxy_id, round, out)

    def withdraw(
        self, session: "ClientSessionEngine", out: List[Effect]
    ) -> Tuple[List[ReplicaRound], List[ReplicaRound]]:
        """Take ``session``'s rounds off its proxy (it is failing over):
        ``(out on the proxy, still queued)``."""
        leg = self._legs.get(session.proxy_id)
        if leg is None:
            return [], []  # nothing was ever forwarded there
        return (
            self._take_sent(leg, session, out),
            self._unqueue(session.proxy_id, session),
        )

    def _unqueue(
        self, destination: str, session: "ClientSessionEngine"
    ) -> List[ReplicaRound]:
        """Take ``session``'s rounds out of ``destination``'s queue (one left
        empty still flushes, sending nothing)."""
        queue = self._queues.get(destination, [])
        taken = [round for round in queue if round.session is session]
        queue[:] = [round for round in queue if round.session is not session]
        return taken

    def _take_sent(
        self, leg: _ProxyLeg, session: "ClientSessionEngine", out: List[Effect]
    ) -> List[ReplicaRound]:
        """Take ``session``'s rounds out on ``leg``'s proxy -- those riding
        another session's query too -- and send the rounds of others riding
        one of its queries back to the queue."""
        sent = [round for round in leg.rounds.values() if round.session is session]
        if sent:
            leg.rounds = {
                key: round for key, round in leg.rounds.items()
                if round.session is not session
            }
            for round in sent:
                if round.riders:
                    self._reforward(round, out)
        for leader in leg.rounds.values():
            for rider in leader.riders:
                if rider.session is session and rider.leader is leader:
                    rider.leader = None
                    sent.append(rider)
        if not leg.rounds:
            self._disarm_watchdog(leg, out)
        return sent

    def _reforward(self, leader: ReplicaRound, out: List[Effect]) -> None:
        """``leader`` left its proxy's table short of an answer: its riders
        go back to their sessions' ingress as ordinary rounds."""
        for rider in self._detach(leader):
            rider.shares = False
            rider.session._send(rider, out)

    def _stats_for(self, destination: str) -> BatchStats:
        return self.proxy_stats if destination in self._legs else self.stats

    def _cut(self, destination: str, batch: List[ReplicaRound], out: List[Effect]) -> None:
        """Frame one chunk of a queue.  A destination the link holds a leg
        for is a proxy (``p<n>``, never a group's ``g<n>``): its chunk is one
        ``proxy`` frame, whose rounds go into the leg's table under its
        watchdog."""
        leg = self._legs.get(destination)
        if leg is None:
            super()._cut(destination, batch, out)
            return
        self.proxy_stats.record(len(batch))
        subs = []
        for round in batch:
            session = round.session
            # Scope the forwarded id by the session's failover generation:
            # should the round be replayed through a different proxy, replies
            # relayed by this one miss the new key and are dropped.
            op_id = attempt_scoped_id(round.op_id, session._proxy_generation)
            leg.rounds[(op_id, round.round_trip)] = round
            request = round.request
            subs.append(ProxySubRequest(
                key=round.key,
                op_kind=round.kind.value,
                kind=request.kind,
                payload=request.payload,
                op_id=op_id,
                round_trip=round.round_trip,
                wait_for=request.wait_for,
                per_server=request.per_server_payload or None,
                trace=round.trace,
                client=None if session.client_id == self.link_id else session.client_id,
            ))
        self.proxy_stats.record_frames(sent=1)
        counts = self.observer.frame_sent
        if counts is None:
            self.observer.emit(FRAME_SENT, kind=PROXY_KIND, dest=leg.proxy_id)
        else:
            counts["frames_sent"] += 1
        out.append(
            SendFrame(leg.proxy_id, make_proxy_request(self.link_id, leg.proxy_id, subs))
        )
        self._arm_watchdog(leg, out)

    # -- proxy failover -------------------------------------------------------------

    def _arm_watchdog(
        self, leg: _ProxyLeg, out: List[Effect], delay: Optional[float] = None
    ) -> None:
        """Watch for a proxy that stops answering while rounds are out.

        Where the transport drops a crashed process's traffic *silently*
        (the simulator), proxy death has no connection-reset edge to
        observe; instead one timer per leg watches for ``failover_timeout``
        of silence, measured from the later of its arming and the proxy's
        last ack: a fire that finds an ack since the arm re-arms for what is
        left of the window that ack opened, so a proxy that dies right
        after acking is lost one window later, not two.  The leg's rounds
        all completing cancels it (so an idle link schedules nothing and
        quiescence-driven runs terminate at the workload's natural end).
        Only a proxy that is silent for the whole window -- with rounds
        still outstanding -- trips failover, and a spurious trip is merely
        wasteful, never unsafe: rounds are idempotent and replays are
        generation-scoped.  Transports that do observe connection death
        disable the watchdog (``failover_timeout=None``) and report via
        :meth:`on_peer_lost` instead.
        """
        if self.policy.failover_timeout is None or leg.watching or not leg.rounds:
            return
        leg.watching = True
        leg.last_ack = None
        if delay is None:
            delay = self.policy.failover_timeout
        out.append(StartTimer(("watchdog", leg.proxy_id), delay))

    def _disarm_watchdog(self, leg: _ProxyLeg, out: List[Effect]) -> None:
        if leg.watching:
            leg.watching = False
            out.append(CancelTimer(("watchdog", leg.proxy_id)))

    def _lose_proxy(self, proxy_id: str, out: List[Effect]) -> None:
        """``proxy_id`` is dead: every session on it walks its own list."""
        for session in list(self.sessions):
            if session.proxy_id == proxy_id and session._ingress_ready:
                session._failover(out)

    def on_connected(self, target: str) -> List[Effect]:
        """The adapter established the ingress path ``target`` (a proxy, or
        the replicas): every session waiting on it takes it."""
        out: List[Effect] = []
        for session in list(self.sessions):
            session._connected(target, out)
        return out

    def on_connect_failed(self, target: str) -> List[Effect]:
        """The adapter could not establish ``target``: every session waiting
        on it walks on."""
        out: List[Effect] = []
        for session in list(self.sessions):
            session._connect_failed(target, out)
        return out

    # -- the adapter's side ---------------------------------------------------------

    def on_frame(self, message: Message) -> List[Effect]:
        out: List[Effect] = []
        if message.kind == BATCH_ACK_KIND:
            self._on_batch_ack(message, out)
        elif message.kind == PROXY_ACK_KIND:
            self._on_proxy_ack(message, out)
        return out

    def _on_proxy_ack(self, message: Message, out: List[Effect]) -> None:
        self.proxy_stats.record_frames(received=1)
        counts = self.observer.frame_received
        if counts is None:
            self.observer.emit(FRAME_RECEIVED, kind=PROXY_ACK_KIND, source=message.sender)
        else:
            counts["frames_received"] += 1
        leg = self._legs.get(message.sender)
        if leg is None:
            return  # nothing was ever forwarded there
        if leg.watching:
            leg.last_ack = self._clock()
        for sub_reply in unpack_proxy_ack(message):
            round = leg.rounds.pop((sub_reply.op_id, sub_reply.round_trip), None)
            if round is None:
                continue  # straggler from a completed or replayed attempt
            if sub_reply.error is not None:
                if round.riders:
                    self._reforward(round, out)
                round.session._fail(
                    round,
                    ProtocolError(
                        f"proxy failed operation {sub_reply.op_id}: {sub_reply.error}"
                    ),
                    out,
                )
                continue
            # The proxy delivers the whole quorum at once (it already waited
            # for wait_for distinct replicas and absorbed any stale-epoch
            # replays).
            replies = round.replies = list(sub_reply.replies)
            round.wait_for = len(replies)
            if not round.riders:
                round.session._advance(round, out)
                continue
            riders = self._detach(round)
            round.session._advance(round, out)
            for rider in riders:
                rider.replies = replies
                rider.wait_for = len(replies)
                rider.session._advance(rider, out)
        if not leg.rounds:
            self._disarm_watchdog(leg, out)

    def on_peer_lost(self, peer_id: str) -> List[Effect]:
        """The transport observed ``peer_id``'s connection die terminally.

        For a proxy some session is on this triggers their failover (the
        connection-reset edge the watchdog exists to approximate); anything
        else is a replica, the direct ingress's loss.
        """
        if not any(
            session.proxy_id == peer_id and session._ingress_ready
            for session in self.sessions
        ):
            return super().on_peer_lost(peer_id)
        out: List[Effect] = []
        self._lose_proxy(peer_id, out)
        return out

    def on_frame_undeliverable(
        self, frame: Message, error: BaseException, retryable: bool = True
    ) -> List[Effect]:
        """A frame this link emitted could not be delivered."""
        if frame.kind != PROXY_KIND:
            return super().on_frame_undeliverable(frame, error, retryable)
        out: List[Effect] = []
        self.proxy_stats.record_frames(sent=-1)  # it never reached the wire either
        if retryable:
            self._lose_proxy(frame.receiver, out)
            return out
        leg = self._legs[frame.receiver]
        for sub in unpack_proxy_request(frame):
            round = leg.rounds.pop((sub.op_id, sub.round_trip), None)
            if round is not None:
                if round.riders:
                    self._reforward(round, out)
                round.session._fail(round, error, out)
        return out

    def on_timer(self, timer_id: TimerId) -> List[Effect]:
        kind = timer_id[0]
        if kind == "watchdog":
            out: List[Effect] = []
            leg = self._legs[timer_id[1]]
            leg.watching = False
            if not leg.rounds:
                return out
            if leg.last_ack is not None:
                # Alive, just slow: silence is measured from the last ack.
                left = leg.last_ack + self.policy.failover_timeout - self._clock()
                self._arm_watchdog(leg, out, left)
            else:
                self._lose_proxy(leg.proxy_id, out)
            return out
        return super().on_timer(timer_id)

    # -- what the multiplexer asks: all of it is the owning session's ----------------

    def _plan(self, round: ReplicaRound) -> None:
        round.session._plan(round)

    def _reroute(self, round: ReplicaRound, out: List[Effect]) -> Tuple[str, int]:
        return round.session._reroute(round, out)

    def _retry_timer(self, round: ReplicaRound) -> TimerId:
        return ("retry", round.op_id)  # op ids are unique across sessions

    def _on_quorum(self, round: ReplicaRound, out: List[Effect]) -> None:
        round.session._advance(round, out)

    def _on_failed(
        self, round: ReplicaRound, error: BaseException, out: List[Effect]
    ) -> None:
        round.session._fail(round, error, out)

    def _counted(self, round: ReplicaRound) -> "ClientSessionEngine":
        return round.session
