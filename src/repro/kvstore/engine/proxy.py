"""The proxy engine: cross-client merging behind a cached shard view.

One :class:`ProxyEngine` is one site-local ingress proxy.  It holds no
register state: every pending entry is one in-flight quorum round, so a
proxy can be added or removed per site without any data migration.  It is a
:class:`~.rounds.ReplicaRounds` fed by *many clients*: forwarded rounds that
resolve to the same replica group coalesce into one shared batch frame per
targeted replica -- the cross-client merge the per-client batching layer
cannot do.  Replica-bound sub-messages keep the **originating client** as
their sender -- the sub's ``client``, or the frame's sender where that is
unset (the protocols' crucial-info bookkeeping is per client) -- while the
round's ack goes back over the connection the round arrived on: to the
frame's sender, never to a name read from a sub.

**One ack frame per destination per turn.**  A turn answers all the rounds
it completes for one destination in one ``proxy-ack``, its sub-replies in
completion order, whether a round was served from the cache, rode a fill or
collected its quorum from the replicas.  Behind a process's shared link every
round of the process answers to one destination, so one batch-ack from a
replica that completes ten rounds is one ack frame, not ten.  A turn is one
input -- ``on_frame``, ``on_timer``, ``on_peer_lost``,
``on_frame_undeliverable`` -- unless the adapter holds the proxy's acks
(:attr:`ProxyEngine.holds_acks`): then it lasts until the adapter writes them
and calls :meth:`ProxyEngine.end_turn`, so the asyncio proxy answers the
cache hits, every replica's batch-ack and the timer fires of the event-loop
turns it holds them for in one frame per link (while
:attr:`ProxyEngine.rounds_out` is not 0, until a replica answers it).  The
simulator keeps one turn per input: there the replicas' acks arrive at
different instants, and merging them would mean waiting.  A sub-reply is relayed as it stands: its replica replies keep the
attempt-scoped ids they came back under, and the client never reads them --
it routes by the sub-reply's own ``(op_id, round_trip)`` and reads
``(sender, kind, payload)`` of each reply, all the wire carries of one.

Routing is through a :class:`~.routing.CachedShardView`: a stale-epoch
bounce refreshes it and the round replays without the client noticing, and
control-plane ``"view-push"`` frames (one delta each) are adopted through the
same view, so live rebalancing is handled *once* here for both backends.

With ``read_cache`` enabled the proxy also keeps a bounded (key -> quorum
replies) **read cache** backed by server-granted leases.  A read that
misses becomes the entry's *fill*: its sub-requests carry the lease mark,
each serving replica registers this proxy as a lease holder (confirmed in
the ``grants`` of its batch-ack, credited before the ack's replies count
toward any quorum), and the recorded
quorum replies of every round-trip are replayed verbatim to later reads of
the same key -- zero replica sub-ops per hit.  A read served from an entry
takes the rounds its fill took: a fill whose first quorum is unanimous ends
there, and so does every read served from it.
Atomicity rides the quorum intersection: replicas defer (and withhold acks
for) any write against a leased key, so while grants from a write-blocking
set of replicas stand, no superseding write can complete, and a cached read
linearizes before it.
``"lease-invalidate"`` frames evict the entry and release its lease,
unblocking the writer; the proxy self-expires entries at half the lease TTL
(clock-skew margin against the server-side expiry), so an entry serves only
while a write-blocking quorum holds its lease.  Every release
-- eviction, expiry, answer to an invalidation, orphaned grant -- joins the
queue of the replica's group and rides the next ``batch`` frame to it (see
:mod:`~.rounds`): ``releases_carried`` counts those, ``releases_alone`` the
``lease-release`` frames a flush sends to replicas it had no frame for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ...observe.events import (
    CACHE_HIT,
    CACHE_INVALIDATE,
    CACHE_MISS,
    FRAME_RECEIVED,
    FRAME_SENT,
    LEASE_EXPIRED,
    NULL_OBSERVER,
    ROUND_CLOSED,
    ROUND_OPENED,
    EngineObserver,
)
from ...messages import (
    BATCH_ACK_KIND,
    DEFAULT_LEASE_TTL,
    LEASE_INVALIDATE_KIND,
    PROXY_ACK_KIND,
    PROXY_KIND,
    VIEW_PUSH_ACK_KIND,
    VIEW_PUSH_KIND,
    Message,
    ProxySubReply,
    ProxySubRequest,
    unpack_lease_invalidate,
    unpack_proxy_request,
    unpack_view_push,
)
from ...protocols.base import RegisterProtocol
from .cache import CacheEntry, ReadCache, payload_fingerprint
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
from .routing import (
    CachedShardView,
    ProxyRoute,
    ReadRoutingPolicy,
    attempt_scoped_id,
)
from .stats import BatchStats

__all__ = ["ProxyEngine"]


@dataclass
class _ProxyPending(ReplicaRound):
    """One forwarded round the proxy is driving against a replica group.

    ``sender`` is the originating client, whom the replicas see;
    ``reply_to`` the sender of the frame it came in, whom its sub-reply goes
    back to.
    """

    request: ProxySubRequest
    reply_to: str
    route: Optional[ProxyRoute] = None
    #: The cache entry this round is filling, if any.  Detached (set back to
    #: None) when the entry is evicted mid-flight; the round then completes
    #: as an ordinary leaseless read.
    fill_entry: Optional[CacheEntry] = None


def _forwarded(reply_to: str, sub: ProxySubRequest) -> _ProxyPending:
    return _ProxyPending(
        op_id=sub.op_id, key=sub.key, trace=sub.trace,
        sender=sub.client or reply_to, request=sub, reply_to=reply_to,
    )


class ProxyEngine(ReplicaRounds):
    """One ingress proxy's protocol state machine (transport-agnostic).

    ``read_round_trips`` is accepted and ignored: the steady benchmark's
    fabric (``benchmarks/steady/fabric.py``) still passes it.
    """

    def __init__(
        self,
        proxy_id: str,
        view: CachedShardView,
        read_policy: Optional[ReadRoutingPolicy] = None,
        policy: Optional[RetryPolicy] = None,
        max_batch: int = 64,
        flush_delay: float = 0.0,
        observer: Optional[EngineObserver] = None,
        read_cache: int = 0,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        read_round_trips: int = 2,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        if read_cache < 0:
            raise ValueError("read_cache capacity cannot be negative")
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        self.proxy_id = proxy_id
        self.view = view
        #: ``None``: rounds go quorum-first (see :mod:`~.rounds`).
        self.read_policy = read_policy
        self.policy = policy or DEFAULT_RETRY_POLICY
        self.max_batch = max_batch
        self.flush_delay = flush_delay
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.stats = BatchStats()
        self.stale_replays = 0
        self.drain_backoffs = 0
        self._attempts = 0
        super().__init__(proxy_id, lease_ttl)
        #: Monotonic fill counter: combined with the fill op id it makes
        #: each cache entry's lease nonce unique across this proxy's life.
        self._fill_seq = 0
        # -- read cache (0 capacity disables it entirely) -----------------------
        self._cache: Optional[ReadCache] = (
            ReadCache(read_cache) if read_cache else None
        )
        self.lease_ttl = lease_ttl
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_invalidations = 0
        self.leases_expired = 0
        #: Replica-bound sub-requests belonging to *read* ops -- the traffic
        #: the cache exists to remove (the benchmark's sub-ops/op metric).
        self.read_subs_sent = 0
        #: The sub-replies of the open turn, per destination, and the effect
        #: list of the input that opened it (see :meth:`_ack`).
        self._acks: Dict[str, List[ProxySubReply]] = {}
        self._acks_out: Optional[List[Effect]] = None
        #: Set by an adapter that holds this proxy's ``proxy-ack`` frames
        #: until its turn ends and then calls :meth:`end_turn`; while unset,
        #: every input is a turn.
        self.holds_acks = False

    # -- admission and routing --------------------------------------------------

    def on_frame(self, message: Message) -> List[Effect]:
        out: List[Effect] = []
        if message.kind == PROXY_KIND:
            counts = self.observer.frame_received
            if counts is None:
                self.observer.emit(
                    FRAME_RECEIVED, kind=PROXY_KIND, source=message.sender
                )
            else:
                counts["frames_received"] += 1
            for sub in unpack_proxy_request(message):
                self._admit(message.sender, sub, out)
        elif message.kind == BATCH_ACK_KIND:
            grants = message.payload.get("grants")
            if grants:
                # Before the replies: by the time this replica's ack counts
                # toward a fill's quorum, its grant is credited.
                self._credit(message.sender, grants, out)
            self._on_batch_ack(message, out)
        elif message.kind == LEASE_INVALIDATE_KIND:
            self._on_lease_invalidate(message, out)
        elif message.kind == VIEW_PUSH_KIND:
            # Control-plane push at a live rebalance: adopt the routing
            # delta so subsequent rounds route correctly on the first
            # attempt instead of paying a stale-epoch bounce each, then ack
            # so the pusher knows routing is current.
            self.view.apply_push(unpack_view_push(message))
            if self._cache is not None:
                # Entries whose key no longer routes to the group that
                # granted the lease cannot stay servable: the new owner
                # group knows nothing about our lease.
                for entry in self._cache.entries():
                    if not self._route_current(entry):
                        self._cache.pop(entry.key)
                        self._evict(entry, out, reason="route-changed")
            out.append(
                SendFrame(
                    message.sender,
                    Message(
                        sender=self.proxy_id,
                        receiver=message.sender,
                        kind=VIEW_PUSH_ACK_KIND,
                        payload={"ring_epoch": self.view.ring_epoch},
                    ),
                )
            )
        return out

    def _dispatch_safe(self, pending: _ProxyPending, out: List[Effect]) -> None:
        """Dispatch one round, turning any failure into an error ack.

        Anything unexpected (a routing bug, a policy raising, ...) must
        still produce an error ack: a swallowed dispatch exception would
        leave the downstream client awaiting a reply that never comes.
        """
        try:
            self._open(pending, out)
        except Exception as exc:  # noqa: BLE001 - never strand a client
            self._on_failed(pending, exc, out)

    # -- the read cache ---------------------------------------------------------

    def _admit(self, reply_to: str, sub: ProxySubRequest, out: List[Effect]) -> None:
        """Route one forwarded round through the cache (when enabled)."""
        pending = _forwarded(reply_to, sub)
        cache = self._cache
        if cache is None:
            self._dispatch_safe(pending, out)
            return
        if sub.op_kind == "write":
            # Write-through, on the round that mutates: our own cached copy
            # is about to be superseded, and releasing *before* that round
            # hits the replicas (per-destination ordering again) keeps the
            # write from deferring against our own lease.  The write's query
            # round changes nothing, so the entry keeps serving through it.
            if sub.kind in RegisterProtocol.mutating_kinds:
                entry = cache.pop(sub.key)
                if entry is not None:
                    self._evict(entry, out, reason="local-write")
            self._dispatch_safe(pending, out)
            return
        if sub.op_kind != "read" or sub.per_server:
            self._dispatch_safe(pending, out)
            return
        entry = cache.get(sub.key)
        if entry is not None and not self._route_current(entry):
            cache.pop(sub.key)
            self._evict(entry, out, reason="route-changed")
            entry = None
        rt = sub.round_trip
        if entry is not None:
            if rt in entry.rounds:
                replies = (
                    entry.replies_for(rt, sub.wait_for)
                    if entry.granted and entry.matches(rt, sub)
                    else None
                )
                if replies is not None:
                    if rt == 1:
                        self.cache_hits += 1
                        counts = self.observer.cache_hit
                        if counts is None:
                            self.observer.emit(
                                CACHE_HIT, op_id=sub.op_id, key=sub.key,
                                trace=sub.trace,
                            )
                        else:
                            counts["cache_hits"] += 1
                    self._serve_cached(reply_to, sub, replies, out)
                    return
                self._dispatch_safe(pending, out)
                return
            if entry.fill_client == pending.sender and entry.fill_op_id == sub.op_id:
                # The fill read's next round-trip: drive it with the lease
                # mark (replicas exempt it from deferral -- it can only
                # re-write the tag the lease already covers).
                entry.round_payloads[rt] = (
                    sub.kind, payload_fingerprint(sub.payload)
                )
                entry.inflight.add(rt)
                pending.fill_entry = entry
                entry.fill_pending = pending
                self._dispatch_safe(pending, out)
                return
            if rt in entry.inflight:
                # Single-flight: ride the fill's round while it is in the air
                # instead of opening a second identical quorum round.  Only
                # then: a read whose first round was not served from this
                # entry (it was not granted yet) may ask for a second round
                # the fill, unanimous, will never send.
                entry.followers.setdefault(rt, []).append((reply_to, sub))
                if rt == 1:
                    self.cache_misses += 1
                    counts = self.observer.cache_miss
                    if counts is None:
                        self.observer.emit(
                            CACHE_MISS, op_id=sub.op_id, key=sub.key,
                            trace=sub.trace, shared=True,
                        )
                    else:
                        counts["cache_misses"] += 1
                return
            self._dispatch_safe(pending, out)
            return
        if rt != 1:
            # A later round of an op whose entry is gone (evicted mid-read):
            # complete it as an ordinary leaseless round.
            self._dispatch_safe(pending, out)
            return
        # Miss: this read becomes the fill.
        self.cache_misses += 1
        counts = self.observer.cache_miss
        if counts is None:
            self.observer.emit(
                CACHE_MISS, op_id=sub.op_id, key=sub.key, trace=sub.trace
            )
        else:
            counts["cache_misses"] += 1
        self._fill_seq += 1
        entry = CacheEntry(
            key=sub.key, fill_client=pending.sender, fill_op_id=sub.op_id,
            nonce=f"{sub.op_id}/{self._fill_seq}",
        )
        pending.fill_entry = entry
        entry.fill_pending = pending
        try:
            self._open(pending, out)
        except Exception as exc:  # noqa: BLE001 - never strand a client
            pending.fill_entry = None
            entry.fill_pending = None
            self._on_failed(pending, exc, out)
            return
        entry.route = pending.route
        entry.wait_for = pending.wait_for
        entry.round_payloads[1] = (sub.kind, payload_fingerprint(sub.payload))
        entry.inflight.add(1)
        displaced = cache.insert(sub.key, entry)
        if displaced is not None:
            self._evict(displaced, out, reason="capacity")
        # Self-expire at *half* the lease TTL: the server expires at the
        # full TTL from a later start (its serve time), so the margin
        # absorbs clock skew and frame latency -- the proxy always stops
        # serving before any replica stops deferring.
        out.append(StartTimer(("lease", sub.key), self.lease_ttl * 0.5))

    def _route_current(self, entry: CacheEntry) -> bool:
        """Whether the view still routes the entry's key where it was filled."""
        if entry.route is None:
            return True
        try:
            fresh = self.view.resolve(entry.key)
        except Exception:  # noqa: BLE001 - unresolvable == not current
            return False
        return (fresh.group_id == entry.route.group_id
                and fresh.epoch == entry.route.epoch)

    def _serve_cached(
        self,
        reply_to: str,
        sub: ProxySubRequest,
        replies: List[Message],
        out: List[Effect],
    ) -> None:
        """Answer one round from the cache: no pending, no replica traffic."""
        self.observer.emit(
            ROUND_CLOSED, op_id=sub.op_id, key=sub.key, trace=sub.trace,
            cached=True,
        )
        self._ack(
            reply_to,
            ProxySubReply(op_id=sub.op_id, round_trip=sub.round_trip,
                          replies=tuple(replies)),
            out,
        )

    def _ack(self, reply_to: str, sub_reply: ProxySubReply, out: List[Effect]) -> None:
        """Answer one round in this turn's one ``proxy-ack`` for ``reply_to``.

        An input's effects are one list, executed after the input returns:
        the first round of a turn answered to a destination appends the
        frame to it, and the turn's later ones join that frame's payload --
        before the input returns, or while the adapter holds the frame.  The
        sub-reply goes in as it stands (see the module notes).
        """
        if not self.holds_acks and self._acks_out is not out:
            self._acks_out, self._acks = out, {}
        acks = self._acks.get(reply_to)
        if acks is None:
            acks = self._acks[reply_to] = []
            # Not counted in stats: proxy acks are tallied once, at the client
            # receiver (the counted-exactly-once invariant); the observer
            # event still records the frame leaving this component, once per
            # frame however many inputs fill it.
            counts = self.observer.frame_sent
            if counts is None:
                self.observer.emit(FRAME_SENT, kind=PROXY_ACK_KIND, dest=reply_to)
            else:
                counts["frames_sent"] += 1
            out.append(SendFrame(reply_to, Message(
                self.proxy_id, reply_to, PROXY_ACK_KIND, {"acks": acks}
            )))
        acks.append(sub_reply)

    def end_turn(self) -> None:
        """The adapter wrote the turn's ``proxy-ack`` frames: the next round
        answered to a destination opens a new one."""
        self._acks = {}

    @property
    def rounds_out(self) -> int:
        """The replica rounds this proxy has open, queued or sent: a replica
        may still answer one (what an adapter that holds acks waits for)."""
        return len(self._pending)

    def _record_fill(
        self, entry: CacheEntry, pending: _ProxyPending, out: List[Effect]
    ) -> None:
        """A fill round completed: record its quorum and flush followers."""
        rt = pending.request.round_trip
        entry.inflight.discard(rt)
        entry.rounds[rt] = list(pending.replies)
        for reply_to, fsub in entry.followers.pop(rt, []):
            replies = (
                entry.replies_for(rt, fsub.wait_for)
                if entry.granted and entry.matches(rt, fsub)
                else None
            )
            if replies is not None:
                self._serve_cached(reply_to, fsub, replies, out)
            else:
                # The lease never reached a write-blocking quorum (or the
                # follower asked a different round): fall back to a plain
                # quorum round for this follower.
                self._dispatch_safe(_forwarded(reply_to, fsub), out)

    def _evict(
        self, entry: CacheEntry, out: List[Effect], *, reason: str
    ) -> None:
        """Run the protocol side of dropping one cache entry.

        The caller has already removed (or never inserted) the map slot;
        this releases the lease at every replica the fill asked, detaches
        an in-flight fill, cancels the entry's timers, and re-dispatches any
        parked followers as ordinary rounds.
        """
        current = self._cache.peek(entry.key) if self._cache is not None else None
        if current is entry:
            self._cache.pop(entry.key)
        out.append(CancelTimer(("lease", entry.key)))
        pending = entry.fill_pending
        if pending is not None:
            entry.fill_pending = None
            pending.fill_entry = None
        self._release_lease(entry, out)
        self.cache_invalidations += 1
        counts = self.observer.cache_invalidate
        if counts is None:
            self.observer.emit(CACHE_INVALIDATE, key=entry.key, reason=reason)
        else:
            counts["cache_invalidations"] += 1
        followers = entry.followers
        entry.followers = {}
        for subs in followers.values():
            for reply_to, fsub in subs:
                self._dispatch_safe(_forwarded(reply_to, fsub), out)

    def _release_lease(self, entry: CacheEntry, out: List[Effect]) -> None:
        """Hand ``entry``'s lease back wherever its fill asked for it."""
        for server_id in sorted(entry.asked):
            self._release(entry.route.group_id, server_id, [entry.key], out)

    def _release_unheld(
        self, server_id: str, keys: List[str], out: List[Effect]
    ) -> None:
        """Hand back leases ``server_id`` holds for no entry of ours."""
        group_id = self.view.group_of(server_id) or server_id
        self._release(group_id, server_id, keys, out)

    def _credit(
        self, server_id: str, grants: List[Tuple[str, str]], out: List[Effect]
    ) -> None:
        """Credit the leases a replica's batch-ack says it registered."""
        orphaned: List[str] = []
        for key, nonce in grants:
            entry = self._cache.peek(key) if self._cache is not None else None
            if (entry is not None and entry.nonce == nonce
                    and server_id in entry.asked):
                entry.grants.add(server_id)
            elif entry is None:
                # The entry died before the grant landed (eviction raced the
                # fill): hand the lease back so the replica does not defer
                # writers against a ghost holder for a full TTL.
                orphaned.append(key)
            # else: a delayed grant for an evicted *predecessor* entry of
            # the key, whose release left after the sub that asked for it.
            # Drop it -- crediting it would count a lease the replica is
            # about to clear, and releasing again could clear the live
            # fill's fresh lease instead: that release would follow the
            # live fill's sub.
        if orphaned:
            self._release_unheld(server_id, orphaned, out)

    def _on_lease_invalidate(self, message: Message, out: List[Effect]) -> None:
        counts = self.observer.frame_received
        if counts is None:
            self.observer.emit(
                FRAME_RECEIVED, kind=message.kind, source=message.sender
            )
        else:
            counts["frames_received"] += 1
        payload = unpack_lease_invalidate(message)
        unheld: List[str] = []
        for key in payload["keys"]:
            entry = self._cache.pop(key) if self._cache is not None else None
            if entry is not None:
                self._evict(entry, out, reason="invalidated")
            else:
                # Nothing cached here; answer anyway so the chasing
                # replica's deferral clears (releases are idempotent).
                unheld.append(key)
        if unheld:
            self._release_unheld(message.sender, unheld, out)

    # -- the replica rounds -----------------------------------------------------

    def _plan(self, pending: _ProxyPending) -> None:
        """Route one attempt (fresh or replayed) through the current view.

        A round waits for ``sub.wait_for`` replies, else the owner group's
        quorum, and targets the whole group unless a read policy picks at
        least that many (the multiplexer then asks a quorum first).  The
        attempt-scoped op id is what keeps a replayed round from mixing
        replies of the pre- and post-rebalance owner groups.
        """
        sub = pending.request
        route = pending.route = self.view.resolve(sub.key)
        wait_for = sub.wait_for if sub.wait_for is not None else route.quorum_size
        targets = route.servers
        if self.read_policy is not None and sub.op_kind == "read":
            picked = tuple(self.read_policy.read_targets(
                self.proxy_id, route.servers, wait_for, key=sub.key
            ))
            if len(picked) >= wait_for:
                targets = picked
        self._attempts += 1
        pending.ident = (attempt_scoped_id(sub.op_id, self._attempts), sub.round_trip)
        pending.group_id = route.group_id
        pending.shard_id = route.shard_id
        pending.epoch = route.epoch
        pending.targets = targets
        pending.wait_for = wait_for
        # A fill's rounds carry the lease mark: they are single-flight already.
        pending.shares = (
            sub.kind in self.view.shareable_kinds
            and not sub.per_server
            and pending.fill_entry is None
        )
        self.observer.emit(
            ROUND_OPENED, op_id=sub.op_id, key=sub.key, trace=sub.trace,
            round_trip=sub.round_trip, targets=len(targets),
        )

    def _reroute(self, pending: _ProxyPending, out: List[Effect]) -> Tuple[str, int]:
        """A replica fenced this round: refresh the view and re-resolve."""
        if pending.fill_entry is not None:
            # A bounced fill means the key's range is moving: caching it
            # now would race the migration.  Drop the entry (releasing
            # whatever grants the partial fill collected) and let this
            # round -- and any parked followers -- replay leaseless.
            self._evict(pending.fill_entry, out, reason="stale-bounce")
        self.view.refresh()
        fresh = self.view.resolve(pending.key)
        return fresh.group_id, fresh.epoch

    def _framed(
        self, pending: _ProxyPending, servers: Sequence[str]
    ) -> Optional[str]:
        """Subs of one attempt go on the wire: count them, and mark a fill's."""
        if pending.request.op_kind == "read":
            self.read_subs_sent += len(servers)
        # Evictions detach fills before this point, so the mark reflects the
        # entry's liveness as the subs leave.
        entry = pending.fill_entry
        if entry is None:
            return None
        entry.asked.update(servers)  # where a lease may now stand
        return entry.nonce

    def _retry_timer(self, pending: _ProxyPending) -> TimerId:
        return ("pretry", *pending.ident)

    def _on_failed(
        self, pending: _ProxyPending, error: BaseException, out: List[Effect]
    ) -> None:
        self._finish(pending, out, error=f"{type(error).__name__}: {error}")

    def _finish(
        self, pending: _ProxyPending, out: List[Effect], error: Optional[str] = None
    ) -> None:
        entry = pending.fill_entry
        if entry is not None:
            pending.fill_entry = None
            if entry.fill_pending is pending:
                entry.fill_pending = None
            live = (
                self._cache is not None
                and self._cache.peek(pending.key) is entry
            )
            if live:
                if error is None:
                    self._record_fill(entry, pending, out)
                else:
                    self._evict(entry, out, reason="fill-error")
        self.observer.emit(
            ROUND_CLOSED, op_id=pending.op_id, key=pending.key,
            trace=pending.trace, error=error,
        )
        self._ack(
            pending.reply_to,
            ProxySubReply(
                op_id=pending.op_id,
                round_trip=pending.request.round_trip,
                # A round that failed short of its quorum has nothing to deliver.
                replies=tuple(pending.replies) if error is None else (),
                error=error,
            ),
            out,
        )

    _on_quorum = _finish

    # -- timer fires ------------------------------------------------------------

    def on_timer(self, timer_id: TimerId) -> List[Effect]:
        if timer_id[0] != "lease":
            return super().on_timer(timer_id)
        out: List[Effect] = []
        key = timer_id[1]
        entry = self._cache.peek(key) if self._cache is not None else None
        if entry is not None:
            self.leases_expired += 1
            counts = self.observer.lease_expired
            if counts is None:
                self.observer.emit(LEASE_EXPIRED, key=key)
            else:
                counts["leases_expired"] += 1
            self._evict(entry, out, reason="expired")
        return out

    # -- lifecycle --------------------------------------------------------------

    def sever(self) -> None:
        """Drop every in-flight round and queue (the proxy was killed).

        Clients behind a killed proxy fail over and replay under fresh
        attempt scopes, so the stranded rounds here can never complete --
        clearing them keeps a restarted proxy from acking ghosts.  The
        adapter cancels its own outstanding timers alongside.
        """
        self._clear_rounds()
        self.end_turn()  # the adapter dropped the frames it held
        if self._cache is not None:
            # No releases are possible from a dead proxy (the queued ones
            # went with the rounds): the server-side lease timers expire the
            # orphaned grants within lease_ttl, which is what unblocks any
            # writers they were deferring.
            self._cache.clear()
