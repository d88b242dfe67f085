"""The direct link: client sessions' rounds, multiplexed straight to the replicas.

A :class:`DirectLink` is one of the two owners of the replica-round
multiplexer (:class:`~.rounds.ReplicaRounds`), beside the proxy: it carries
the rounds of every :class:`~.client.ClientSessionEngine` that holds it.  A
session built on its own gets a private link and is, effect for effect, the
one-client engine it always was; an adapter that runs several sessions in one
process hands them all the same link, and then rounds opened by different
sessions in the same flush window leave in **one** ``batch`` frame per asked
replica and come back in one ``batch-ack`` -- the merge a proxy does across a
network hop, without the hop.

**Shared:** the pending table, the per-group queues and their flush timers,
the quorum rotation (``_turns``), the suspects, the one silence timer, the
frame cap (the largest ``max_batch`` an attached session asked for) and the
``BatchStats`` -- every frame on the link is counted once, here.

**Not shared:** identity.  Every sub-message still names its own session as
``sender`` (the protocols' crucial-info bookkeeping -- the per-client
``updated`` sets behind the paper's ``R < S/t - 2`` -- counts reader
*identities*, not sockets), every attempt keeps its own ``(op_id,
round_trip)``, and the hooks below hand each round back to the session that
owns it: routing, per-key order, the generators, the recorder, ``op.*`` and
``round.opened`` events and the ``stale_replays`` / ``drain_backoffs``
counters stay per session.  Only the link's frames name the link
(``link_id``) as their sender, which is whom the replicas answer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from ...messages import BATCH_ACK_KIND, Message
from ...observe.events import NULL_OBSERVER, EngineObserver
from .effects import DEFAULT_RETRY_POLICY, CancelTimer, Effect, RetryPolicy, TimerId
from .rounds import ReplicaRound, ReplicaRounds
from .stats import BatchStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .client import ClientSessionEngine

__all__ = ["DirectLink"]


class DirectLink(ReplicaRounds):
    """One process's replica-round multiplexer (transport-agnostic).

    Its rounds are the sessions' pending operations: each names its owner as
    ``round.session``.  Sessions reach it through :meth:`attach`,
    :meth:`~.rounds.ReplicaRounds.enqueue` and :meth:`release`; the adapter
    feeds it ``batch-ack`` frames, timer fires and transport notifications.
    """

    def __init__(
        self,
        link_id: str,
        policy: Optional[RetryPolicy] = None,
        max_batch: int = 1,
        flush_delay: float = 0.0,
        observer: Optional[EngineObserver] = None,
        stats: Optional[BatchStats] = None,
    ) -> None:
        self.link_id = link_id
        self.policy = policy or DEFAULT_RETRY_POLICY
        self.max_batch = max_batch
        self.flush_delay = flush_delay
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.stats = stats if stats is not None else BatchStats()
        # No per-round timers on the direct ingress: the multiplexer's silence
        # timer widens a quorum-first round a replica leaves short, and fails
        # one the whole group leaves short.
        super().__init__(link_id, round_timeout=None)

    # -- the sessions' side -------------------------------------------------------

    def attach(self, session: "ClientSessionEngine") -> None:
        """``session`` will send its direct rounds through this link."""
        self.max_batch = max(self.max_batch, session.max_batch)

    def release(self, session: "ClientSessionEngine", out: List[Effect]) -> None:
        """Forget every round of ``session`` (it is closing), and only those.

        Its queued rounds are skipped at the flush (they are no longer
        pending), stragglers answering its sent ones find nothing, and the
        shared timers keep running for everybody else's.
        """
        for ident, round in list(self._pending.items()):
            if round.session is session:
                del self._pending[ident]
        for timer_id, round in list(self._retrying.items()):
            if round.session is session:
                del self._retrying[timer_id]
                out.append(CancelTimer(timer_id))

    # -- the adapter's side ---------------------------------------------------------

    def on_frame(self, message: Message) -> List[Effect]:
        out: List[Effect] = []
        if message.kind == BATCH_ACK_KIND:
            self._on_batch_ack(message, out)
        return out

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
