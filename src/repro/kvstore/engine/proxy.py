"""The proxy engine: cross-client merging behind a cached shard view.

One :class:`ProxyEngine` is one site-local ingress proxy.  It holds no
register state: every pending entry is one in-flight quorum round, so a
proxy can be added or removed per site without any data migration.  Rounds
forwarded by *different clients* that resolve to the same replica group
coalesce into one shared batch frame per targeted replica -- the
cross-client merge the per-client batching layer cannot do.  Replica-bound
sub-messages keep the **originating client** as their sender (the
protocols' crucial-info bookkeeping is per client), while their op ids are
attempt-scoped so a replayed round can never mix replies from the pre- and
post-rebalance owner groups.

The engine consumes decoded frames -- ``"proxy"`` requests from clients,
``"batch-ack"`` replies from replicas, ``"view-push"`` frames from the
control plane -- plus timer fires and transport notifications, and emits
:mod:`~repro.kvstore.engine.effects`.  Stale-epoch bounces refresh the
:class:`~repro.kvstore.engine.routing.CachedShardView` and replay
transparently; view pushes (full or delta) are adopted through the same
view, so live rebalancing is handled *once* here for both backends.

With ``read_cache`` enabled the proxy also keeps a bounded (key -> quorum
replies) **read cache** backed by server-granted leases.  A read that
misses becomes the entry's *fill*: its sub-requests carry the lease mark,
each serving replica registers this proxy as a lease holder (confirmed by
a ``"lease-grant"`` frame ordered before the batch-ack), and the recorded
quorum replies of every round-trip are replayed verbatim to later reads of
the same key -- zero replica sub-ops per hit.  ``read_round_trips`` is the
most rounds a read may take, not how many every read takes: a fill whose
first quorum is unanimous ends there, and so does every read served from it.
Atomicity rides the quorum intersection: replicas defer (and withhold acks
for) any write against a leased key, so while grants from a write-blocking
set of replicas stand, no superseding write can complete, and a cached read
linearizes before it.
``"lease-invalidate"`` frames evict the entry and trigger a
``"lease-release"``, unblocking the writer; the proxy self-expires entries
at half the lease TTL (clock-skew margin against the server-side expiry),
optionally serving expired-but-recent entries when ``bounded_staleness``
is on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ...observe.events import (
    BATCH_CUT,
    CACHE_HIT,
    CACHE_INVALIDATE,
    CACHE_MISS,
    FRAME_RECEIVED,
    FRAME_SENT,
    LEASE_EXPIRED,
    NULL_OBSERVER,
    ROUND_CLOSED,
    ROUND_OPENED,
    ROUND_REPLAYED,
    EngineObserver,
)
from ...messages import (
    BATCH_ACK_KIND,
    BATCH_KIND,
    DEFAULT_LEASE_TTL,
    LEASE_GRANT_KIND,
    LEASE_INVALIDATE_KIND,
    PROXY_KIND,
    VIEW_PUSH_ACK_KIND,
    VIEW_PUSH_KIND,
    Message,
    ProxySubReply,
    ProxySubRequest,
    SubRequest,
    make_batch,
    make_lease_release,
    make_proxy_ack,
    unpack_batch,
    unpack_batch_ack,
    unpack_lease_grant,
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
from .routing import (
    BroadcastReads,
    CachedShardView,
    ProxyRoute,
    ReadRoutingPolicy,
    attempt_scoped_id,
    plan_round,
)
from .server import MAX_STALE_RETRIES, is_stale_reply
from .stats import BatchStats

__all__ = ["ProxyEngine"]


@dataclass
class _ProxyPending:
    """One forwarded round the proxy is driving against a replica group."""

    client: str
    sub: ProxySubRequest
    route: Optional[ProxyRoute] = None
    scoped_id: str = ""
    targets: Tuple[str, ...] = ()
    wait_for: int = 0
    replies: List[Message] = field(default_factory=list)
    lost_targets: Set[str] = field(default_factory=set)
    stale_retries: int = 0
    drain_backoffs: int = 0
    timeouts: int = 0
    transient_retries: int = 0
    queued: bool = False
    awaiting_retry: bool = False
    #: The cache entry this round is filling, if any.  Detached (set back to
    #: None) when the entry is evicted mid-flight; the round then completes
    #: as an ordinary leaseless read.
    fill_entry: Optional[CacheEntry] = None


class ProxyEngine:
    """One ingress proxy's protocol state machine (transport-agnostic)."""

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
        bounded_staleness: bool = False,
        read_round_trips: int = 2,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        if read_cache < 0:
            raise ValueError("read_cache capacity cannot be negative")
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        if read_round_trips < 1:
            raise ValueError("read_round_trips must be positive")
        self.proxy_id = proxy_id
        self.view = view
        self.read_policy = read_policy or BroadcastReads()
        self.policy = policy or DEFAULT_RETRY_POLICY
        self.max_batch = max_batch
        self.flush_delay = flush_delay
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.stats = BatchStats()
        self.stale_replays = 0
        self.drain_backoffs = 0
        self._attempts = 0
        self._pending: Dict[Tuple[str, int], _ProxyPending] = {}
        self._queues: Dict[str, List[_ProxyPending]] = {}
        self._flush_scheduled: Set[str] = set()
        #: Monotonic fill counter: combined with the fill op id it makes
        #: each cache entry's lease nonce unique across this proxy's life.
        self._fill_seq = 0
        # -- read cache (0 capacity disables it entirely) -----------------------
        self._cache: Optional[ReadCache] = (
            ReadCache(read_cache) if read_cache else None
        )
        self.lease_ttl = lease_ttl
        self.bounded_staleness = bounded_staleness
        self.read_round_trips = read_round_trips
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_invalidations = 0
        self.leases_expired = 0
        #: Replica-bound sub-requests belonging to *read* ops -- the traffic
        #: the cache exists to remove (the benchmark's sub-ops/op metric).
        self.read_subs_sent = 0

    # -- admission and routing --------------------------------------------------

    def on_frame(self, message: Message) -> List[Effect]:
        out: List[Effect] = []
        if message.kind == PROXY_KIND:
            self.observer.emit(
                FRAME_RECEIVED, kind=PROXY_KIND, source=message.sender
            )
            for sub in unpack_proxy_request(message):
                self._admit(message.sender, sub, out)
        elif message.kind == BATCH_ACK_KIND:
            self._on_replica_ack(message, out)
        elif message.kind == LEASE_GRANT_KIND:
            self._on_lease_grant(message, out)
        elif message.kind == LEASE_INVALIDATE_KIND:
            self._on_lease_invalidate(message, out)
        elif message.kind == VIEW_PUSH_KIND:
            # Control-plane push at a live rebalance: adopt the fresh view
            # (snapshot or delta) so subsequent rounds route correctly on
            # the first attempt instead of paying a stale-epoch bounce
            # each, then ack so the pusher knows routing is current.
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
            self._dispatch(pending, out)
        except Exception as exc:  # noqa: BLE001 - never strand a client
            self._finish(pending, out, error=f"{type(exc).__name__}: {exc}")

    # -- the read cache ---------------------------------------------------------

    def _admit(self, client: str, sub: ProxySubRequest, out: List[Effect]) -> None:
        """Route one forwarded round through the cache (when enabled)."""
        pending = _ProxyPending(client=client, sub=sub)
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
                serves = (
                    self.bounded_staleness if entry.stale else entry.granted
                )
                replies = (
                    entry.replies_for(rt, sub.wait_for)
                    if serves and entry.matches(rt, sub)
                    else None
                )
                if replies is not None:
                    if rt == 1:
                        self.cache_hits += 1
                        self.observer.emit(
                            CACHE_HIT, op_id=sub.op_id, key=sub.key,
                            trace=sub.trace, stale=entry.stale,
                        )
                    self._serve_cached(client, sub, replies, out)
                    return
                self._dispatch_safe(pending, out)
                return
            if (entry.fill_client == client and entry.fill_op_id == sub.op_id
                    and not entry.stale):
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
            if not entry.stale and rt <= self.read_round_trips:
                # Single-flight: ride the fill already in the air instead of
                # opening a second identical quorum round.  A follower only
                # asks for a round past the first when the recorded first
                # quorum was split, and then the fill asks for it too.
                entry.followers.setdefault(rt, []).append((client, sub))
                if rt == 1:
                    self.cache_misses += 1
                    self.observer.emit(
                        CACHE_MISS, op_id=sub.op_id, key=sub.key,
                        trace=sub.trace, shared=True,
                    )
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
        self.observer.emit(
            CACHE_MISS, op_id=sub.op_id, key=sub.key, trace=sub.trace
        )
        self._fill_seq += 1
        entry = CacheEntry(
            key=sub.key, fill_client=client, fill_op_id=sub.op_id,
            nonce=f"{sub.op_id}/{self._fill_seq}",
        )
        pending.fill_entry = entry
        entry.fill_pending = pending
        try:
            self._dispatch(pending, out)
        except Exception as exc:  # noqa: BLE001 - never strand a client
            pending.fill_entry = None
            entry.fill_pending = None
            self._finish(pending, out, error=f"{type(exc).__name__}: {exc}")
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
        client: str,
        sub: ProxySubRequest,
        replies: List[Message],
        out: List[Effect],
    ) -> None:
        """Answer one round from the cache: no pending, no replica traffic."""
        self.observer.emit(
            ROUND_CLOSED, op_id=sub.op_id, key=sub.key, trace=sub.trace,
            cached=True,
        )
        sub_reply = ProxySubReply(
            op_id=sub.op_id,
            round_trip=sub.round_trip,
            replies=tuple(replies),
        )
        self.observer.emit(FRAME_SENT, kind="proxy-ack", dest=client)
        out.append(
            SendFrame(
                client, make_proxy_ack(self.proxy_id, client, [sub_reply])
            )
        )

    def _record_fill(
        self, entry: CacheEntry, pending: _ProxyPending, out: List[Effect]
    ) -> None:
        """A fill round completed: record its quorum and flush followers."""
        rt = pending.sub.round_trip
        entry.inflight.discard(rt)
        entry.rounds[rt] = list(pending.replies)
        for client, fsub in entry.followers.pop(rt, []):
            serves = self.bounded_staleness if entry.stale else entry.granted
            replies = (
                entry.replies_for(rt, fsub.wait_for)
                if serves and entry.matches(rt, fsub)
                else None
            )
            if replies is not None:
                self._serve_cached(client, fsub, replies, out)
            else:
                # The lease never reached a write-blocking quorum (or the
                # follower asked a different round): fall back to a plain
                # quorum round for this follower.
                self._dispatch_safe(
                    _ProxyPending(client=client, sub=fsub), out
                )

    def _evict(
        self, entry: CacheEntry, out: List[Effect], *, reason: str
    ) -> None:
        """Run the protocol side of dropping one cache entry.

        The caller has already removed (or never inserted) the map slot;
        this releases the lease at every route replica, detaches an
        in-flight fill, cancels the entry's timers, and re-dispatches any
        parked followers as ordinary rounds.
        """
        current = self._cache.peek(entry.key) if self._cache is not None else None
        if current is entry:
            self._cache.pop(entry.key)
        out.append(CancelTimer(("lease", entry.key)))
        if entry.stale:
            out.append(CancelTimer(("stale", entry.key)))
        pending = entry.fill_pending
        if pending is not None:
            entry.fill_pending = None
            pending.fill_entry = None
        if not entry.stale and entry.route is not None:
            # A stale entry already handed its lease back when it expired.
            self._release_lease(entry.route.servers, [entry.key], out)
        self.cache_invalidations += 1
        self.observer.emit(CACHE_INVALIDATE, key=entry.key, reason=reason)
        followers = entry.followers
        entry.followers = {}
        for subs in followers.values():
            for client, fsub in subs:
                self._dispatch_safe(_ProxyPending(client=client, sub=fsub), out)

    def _release_lease(
        self, servers: Tuple[str, ...], keys: List[str], out: List[Effect]
    ) -> None:
        for server_id in servers:
            self.observer.emit(
                FRAME_SENT, kind="lease-release", dest=server_id
            )
            out.append(
                SendFrame(
                    server_id,
                    make_lease_release(self.proxy_id, server_id, keys),
                )
            )

    def _on_lease_grant(self, message: Message, out: List[Effect]) -> None:
        self.observer.emit(
            FRAME_RECEIVED, kind=message.kind, source=message.sender
        )
        payload = unpack_lease_grant(message)
        orphaned: List[str] = []
        for key, nonce in zip(payload["keys"], payload["nonces"]):
            entry = self._cache.peek(key) if self._cache is not None else None
            if (entry is not None and not entry.stale
                    and entry.nonce == nonce
                    and entry.route is not None
                    and message.sender in entry.route.servers):
                entry.grants.add(message.sender)
            elif entry is None or entry.stale:
                # The entry died before the grant landed (eviction raced the
                # fill): hand the lease straight back so the replica does
                # not defer writers against a ghost holder for a full TTL.
                orphaned.append(key)
            # else: a delayed grant for an evicted *predecessor* entry of
            # the key crossed that entry's release on the wire.  Drop it --
            # crediting it would count a lease the replica is about to
            # clear, and releasing again could race ahead and clear the
            # live fill's fresh lease instead.  The predecessor's eviction
            # already sent the release that retires this grant's lease.
        if orphaned:
            self._release_lease((message.sender,), orphaned, out)

    def _on_lease_invalidate(self, message: Message, out: List[Effect]) -> None:
        self.observer.emit(
            FRAME_RECEIVED, kind=message.kind, source=message.sender
        )
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
            self._release_lease((message.sender,), unheld, out)

    def _dispatch(self, pending: _ProxyPending, out: List[Effect]) -> None:
        """Route one round (fresh or replayed) through the current view."""
        sub = pending.sub
        plan = plan_round(self.view, self.read_policy, self.proxy_id, sub)
        self._attempts += 1
        pending.route = plan.route
        pending.targets = plan.targets
        pending.wait_for = plan.wait_for
        pending.scoped_id = attempt_scoped_id(sub.op_id, self._attempts)
        pending.replies = []
        pending.lost_targets = set()
        pending.awaiting_retry = False
        self._pending[(pending.scoped_id, sub.round_trip)] = pending
        self.observer.emit(
            ROUND_OPENED, op_id=sub.op_id, key=sub.key, trace=sub.trace,
            round_trip=sub.round_trip, targets=len(plan.targets),
        )
        if self.policy.round_timeout is not None:
            # Bound the attempt: a targeted replica can die after the frame
            # left the socket (restrictive read policies only -- broadcast
            # rounds always have a live quorum), and on transports with
            # silent loss the timer turns that into a replay.
            out.append(
                StartTimer(self._round_timer(pending), self.policy.round_timeout)
            )
        group_id = plan.route.group_id
        queue = self._queues.setdefault(group_id, [])
        pending.queued = True
        queue.append(pending)
        if len(queue) >= self.max_batch:
            self._flush(group_id, out)
        elif group_id not in self._flush_scheduled:
            self._flush_scheduled.add(group_id)
            out.append(StartTimer(("flush", group_id), self.flush_delay))

    def _round_timer(self, pending: _ProxyPending) -> TimerId:
        return ("round", pending.scoped_id, pending.sub.round_trip)

    # -- the shared replica rounds ----------------------------------------------

    def _flush(self, group_id: str, out: List[Effect]) -> None:
        self._flush_scheduled.discard(group_id)
        queue = [
            p
            for p in self._queues.get(group_id, [])
            if self._pending.get((p.scoped_id, p.sub.round_trip)) is p
        ]
        if not queue:
            self._queues.pop(group_id, None)
            return
        batch, rest = queue[: self.max_batch], queue[self.max_batch :]
        self._queues[group_id] = rest
        if rest and group_id not in self._flush_scheduled:
            self._flush_scheduled.add(group_id)
            out.append(StartTimer(("flush", group_id), 0.0))
        for pending in batch:
            pending.queued = False
        self.stats.record(len(batch))
        self.observer.emit(BATCH_CUT, size=len(batch), queue=group_id)
        # One frame per replica targeted by at least one round of the batch;
        # reads restricted by the routing policy simply skip the far replicas.
        servers: List[str] = []
        seen: Set[str] = set()
        for pending in batch:
            for server in pending.targets:
                if server not in seen:
                    seen.add(server)
                    servers.append(server)
        for server_id in servers:
            subs = [
                SubRequest(
                    p.sub.key,
                    Message(
                        p.client,
                        server_id,
                        p.sub.kind,
                        p.sub.payload_for(server_id),
                        p.scoped_id,
                        p.sub.round_trip,
                        trace=p.sub.trace,
                    ),
                    p.route.shard_id,
                    p.route.epoch,
                    # Evictions detach fills before this point, so the mark
                    # reflects the entry's liveness at flush time.
                    p.fill_entry.nonce if p.fill_entry is not None else None,
                )
                for p in batch
                if server_id in p.targets
            ]
            self.read_subs_sent += sum(
                1 for p in batch
                if server_id in p.targets and p.sub.op_kind == "read"
            )
            self.stats.record_frames(sent=1)
            self.observer.emit(FRAME_SENT, kind=BATCH_KIND, dest=server_id)
            out.append(
                SendFrame(server_id, make_batch(self.proxy_id, server_id, subs))
            )

    # -- replica replies --------------------------------------------------------

    def _on_replica_ack(self, message: Message, out: List[Effect]) -> None:
        self.stats.record_frames(received=1)
        self.observer.emit(
            FRAME_RECEIVED, kind=BATCH_ACK_KIND, source=message.sender
        )
        for _key, reply in unpack_batch_ack(message):
            if reply is None or reply.op_id is None:
                continue
            pending = self._pending.get((reply.op_id, reply.round_trip))
            if pending is None or pending.awaiting_retry:
                continue  # straggler from a completed or replayed attempt
            if is_stale_reply(reply):
                self._replay(pending, out)
                continue
            pending.replies.append(reply)
            if len(pending.replies) == pending.wait_for:
                self._finish(pending, out)

    def _replay(self, pending: _ProxyPending, out: List[Effect]) -> None:
        """A replica fenced this round: refresh the view and re-route it."""
        if pending.fill_entry is not None:
            # A bounced fill means the key's range is moving: caching it
            # now would race the migration.  Drop the entry (releasing
            # whatever grants the partial fill collected) and let this
            # round -- and any parked followers -- replay leaseless.
            self._evict(pending.fill_entry, out, reason="stale-bounce")
        self.view.refresh()
        route = pending.route
        fresh = self.view.resolve(pending.sub.key)
        if (
            route is not None
            and fresh.group_id == route.group_id
            and fresh.epoch == route.epoch
        ):
            # The refreshed view still routes the key exactly where the
            # bounce came from, so the fence belongs to a *draining* key
            # range (donor fenced, receiver not yet installed) -- not to a
            # stale view.  Replaying immediately would spin against the
            # fence until the range installs; back off instead.
            pending.drain_backoffs += 1
            self.drain_backoffs += 1
            self.observer.emit(
                ROUND_REPLAYED, op_id=pending.sub.op_id, key=pending.sub.key,
                trace=pending.sub.trace, retries=pending.drain_backoffs,
                reason="drain-backoff",
            )
            if pending.drain_backoffs > self.policy.max_transient_retries:
                self._finish(
                    pending,
                    out,
                    error=(
                        "round bounced off a draining range "
                        f"{pending.drain_backoffs} times; the drain never "
                        "completed"
                    ),
                )
                return
            pending.awaiting_retry = True
            out.append(
                StartTimer(
                    ("pretry", pending.scoped_id, pending.sub.round_trip),
                    self.policy.drain_backoff_interval,
                )
            )
            return
        self._drop(pending, out)
        pending.stale_retries += 1
        self.stale_replays += 1
        self.observer.emit(
            ROUND_REPLAYED, op_id=pending.sub.op_id, key=pending.sub.key,
            trace=pending.sub.trace, retries=pending.stale_retries,
        )
        if pending.stale_retries > MAX_STALE_RETRIES:
            self._finish(
                pending,
                out,
                error=(
                    f"shard map never converged after {pending.stale_retries} "
                    "stale replays"
                ),
            )
            return
        self._dispatch(pending, out)

    def _drop(self, pending: _ProxyPending, out: List[Effect]) -> None:
        """Forget the current attempt (cancelling its round timer)."""
        if self._pending.pop((pending.scoped_id, pending.sub.round_trip), None):
            if self.policy.round_timeout is not None:
                out.append(CancelTimer(self._round_timer(pending)))

    def _finish(
        self, pending: _ProxyPending, out: List[Effect], error: Optional[str] = None
    ) -> None:
        self._drop(pending, out)
        entry = pending.fill_entry
        if entry is not None:
            pending.fill_entry = None
            if entry.fill_pending is pending:
                entry.fill_pending = None
            live = (
                self._cache is not None
                and self._cache.peek(pending.sub.key) is entry
            )
            if live:
                if error is None:
                    self._record_fill(entry, pending, out)
                else:
                    self._evict(entry, out, reason="fill-error")
        self.observer.emit(
            ROUND_CLOSED, op_id=pending.sub.op_id, key=pending.sub.key,
            trace=pending.sub.trace, error=error,
        )
        sub_reply = ProxySubReply(
            op_id=pending.sub.op_id,
            round_trip=pending.sub.round_trip,
            replies=tuple(pending.replies),
            error=error,
        )
        # Not counted in stats: proxy acks are tallied once, at the client
        # receiver (the counted-exactly-once invariant); the observer event
        # still records the frame leaving this component.
        self.observer.emit(FRAME_SENT, kind="proxy-ack", dest=pending.client)
        out.append(
            SendFrame(
                pending.client,
                make_proxy_ack(self.proxy_id, pending.client, [sub_reply]),
            )
        )

    # -- transport notifications ------------------------------------------------

    def on_frame_undeliverable(
        self, frame: Message, error: BaseException, retryable: bool = True
    ) -> List[Effect]:
        """A replica-bound batch frame could not be delivered."""
        out: List[Effect] = []
        if frame.kind != BATCH_KIND:
            return out
        # The frame never reached the wire: uncount it (replays count their
        # own frames), preserving the counted-exactly-once invariant.
        self.stats.record_frames(sent=-1)
        for sub in unpack_batch(frame):
            op_id, round_trip = sub.message.op_id, sub.message.round_trip
            pending = self._pending.get((op_id, round_trip)) if op_id else None
            if pending is None:
                continue
            self._lose_target(pending, frame.receiver, error, retryable, out)
        return out

    def on_peer_lost(self, server_id: str) -> List[Effect]:
        """A replica connection died terminally (reconnect gave up)."""
        out: List[Effect] = []
        for pending in list(self._pending.values()):
            if (
                not pending.queued
                and server_id in pending.targets
                and len(pending.replies) < pending.wait_for
            ):
                self._lose_target(
                    pending, server_id,
                    ConnectionError(f"replica {server_id} is unreachable"),
                    retryable=True, out=out,
                )
        return out

    def _lose_target(
        self,
        pending: _ProxyPending,
        server_id: str,
        error: BaseException,
        retryable: bool,
        out: List[Effect],
    ) -> None:
        if pending.awaiting_retry:
            return
        pending.lost_targets.add(server_id)
        reachable = len(pending.targets) - len(pending.lost_targets)
        if reachable >= pending.wait_for:
            return  # a quorum is still possible on the surviving targets
        if not retryable:
            self._finish(pending, out, error=f"{type(error).__name__}: {error}")
            return
        pending.transient_retries += 1
        if pending.transient_retries > self.policy.max_transient_retries:
            self._finish(pending, out, error=f"replica quorum unreachable: {error}")
            return
        # Wait out the reconnect window, then re-plan the idempotent round
        # (the redial may have landed by then, or the view moved on).
        pending.awaiting_retry = True
        out.append(
            StartTimer(
                ("pretry", pending.scoped_id, pending.sub.round_trip),
                self.policy.reconnect_interval,
            )
        )

    # -- timer fires ------------------------------------------------------------

    def on_timer(self, timer_id: TimerId) -> List[Effect]:
        out: List[Effect] = []
        kind = timer_id[0]
        if kind == "flush":
            self._flush(timer_id[1], out)
        elif kind == "lease":
            key = timer_id[1]
            entry = self._cache.peek(key) if self._cache is not None else None
            if entry is None or entry.stale:
                return out
            self.leases_expired += 1
            self.observer.emit(LEASE_EXPIRED, key=key)
            if self.bounded_staleness and entry.granted and entry.complete():
                # Bounded-staleness mode: hand the lease back (writers stop
                # blocking on us) but keep serving the expired entry for
                # one more half-TTL -- its age then stays under lease_ttl,
                # the bound the staleness checker verifies.
                entry.stale = True
                entry.grants.clear()
                if entry.route is not None:
                    self._release_lease(entry.route.servers, [key], out)
                out.append(StartTimer(("stale", key), self.lease_ttl * 0.5))
            else:
                self._evict(entry, out, reason="expired")
        elif kind == "stale":
            entry = self._cache.pop(timer_id[1]) if self._cache is not None else None
            if entry is not None:
                self._evict(entry, out, reason="staleness-budget")
        elif kind == "pretry":
            pending = self._pending.get((timer_id[1], timer_id[2]))
            if pending is not None and pending.awaiting_retry:
                self._drop(pending, out)
                self._dispatch(pending, out)
        elif kind == "round":
            pending = self._pending.get((timer_id[1], timer_id[2]))
            if pending is None or pending.queued or pending.awaiting_retry:
                return out
            # The attempt went silent: a targeted replica died after the
            # frame left the socket.  Replay the idempotent round -- the
            # redial may have landed by now -- or error the ack after
            # max_round_timeouts so the client is never left hanging.
            pending.timeouts += 1
            self._drop(pending, out)
            if pending.timeouts > self.policy.max_round_timeouts:
                self._finish(
                    pending,
                    out,
                    error=(
                        "round got no quorum within "
                        f"{pending.timeouts * self.policy.round_timeout:.0f}s; "
                        "with a restrictive read policy, give it spare >= the "
                        "fault budget to ride out crashed replicas"
                    ),
                )
            else:
                self._dispatch(pending, out)
        return out

    # -- lifecycle --------------------------------------------------------------

    def sever(self) -> None:
        """Drop every in-flight round and queue (the proxy was killed).

        Clients behind a killed proxy fail over and replay under fresh
        attempt scopes, so the stranded rounds here can never complete --
        clearing them keeps a restarted proxy from acking ghosts.  The
        adapter cancels its own outstanding timers alongside.
        """
        self._pending.clear()
        self._queues.clear()
        self._flush_scheduled.clear()
        if self._cache is not None:
            # No releases are possible from a dead proxy: the server-side
            # lease timers expire the orphaned grants within lease_ttl,
            # which is what unblocks any writers they were deferring.
            self._cache.clear()
