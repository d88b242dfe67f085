"""Message envelopes and frames, shared by every transport.

This module is deliberately transport-neutral: the simulator delivers these
objects directly, the asyncio codec (:mod:`repro.asyncio_net.codec`) puts
them on the wire as length-prefixed JSON arrays, and the sans-I/O kvstore
engines (:mod:`repro.kvstore.engine`) consume and emit them without knowing
which transport is underneath.

A frame's payload holds its **typed records themselves** -- ``{"ops":
[SubRequest, ...]}``, ``{"acks": [(key, reply) | None, ...]}``, ``{"ops":
[ProxySubRequest, ...]}``, ``{"acks": [ProxySubReply, ...]}``, the batch
kinds with their lease traffic when they carry some (``"releases": [key,
...]``, ``"grants": [(key, nonce), ...]``).  ``make_*`` puts them in the
payload as they stand, ``unpack_*`` is a kind check plus a field access, and
in between an in-process transport moves the frame with no packing at all;
only the wire codec turns records into positional rows, straight from (and
back into) these objects.  Receivers must therefore treat an inbound record
and its payload dict as read-only: in-process it *is* the sender's object --
one sub-request object may even sit in the frames to every replica a round
asks.

**The frame is addressed; its records are not.**  A sub-record's
``receiver`` (and, inside a ``proxy-ack``, a reply's ``op_id`` /
``round_trip``) is whatever its builder set -- a round's group id, a proxy's
attempt-scoped id -- and nothing routes by it: the wire does not carry it,
and the decoder stamps the frame's receiver (and the sub-reply's identity)
on every record it rebuilds.  Replicas answer as themselves
(:meth:`~repro.protocols.base.ServerLogic.reply` sends as ``server_id``),
batch-acks are demultiplexed by each reply's ``(op_id, round_trip)``, and a
``proxy-ack`` by its :class:`ProxySubReply`'s own pair, of whose replies the
client reads only ``(sender, kind, payload)``.

Besides the plain :class:`Message` envelope this module defines the **batch
frame** used by the sharded key-value store (:mod:`repro.kvstore`): several
sub-requests destined for the same server are packed into one ``"batch"``
message and answered with one ``"batch-ack"``, amortizing per-message
overhead (framing, delivery scheduling, syscalls on the asyncio transport)
across every operation coalesced into the round.  The read-lease bookkeeping
of the proxies' cache rides the same two frames (see the lease block below).

Since the placement layer decoupled shards from replica groups, one group
server multiplexes the per-key registers of *many* shards, so every
sub-request is **shard-tagged**: it names the shard it believes owns its key
and the per-shard epoch it resolved against (:class:`SubRequest`).  Servers
fence requests whose epoch is stale -- the mechanism that makes live
rebalancing (``ShardMap.resize`` / ``move_shard``) safe under concurrent
client load.

The **proxy frames** serve the site-local ingress tier
(:mod:`repro.kvstore.engine.proxy`): a client packs the quorum rounds it has in
flight into one ``"proxy"`` frame for its proxy (:class:`ProxySubRequest` --
no shard tag: routing is the proxy's job), and the proxy answers with
``"proxy-ack"`` frames, each round's sub-reply carrying its whole quorum of
replica replies at once (:class:`ProxySubReply`) -- one frame per client
connection for all the rounds one proxy input completed.  Between the two,
the proxy merges rounds *across client connections* into shared
shard-tagged batch frames, which is where the replica-side message-cost drop
comes from.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

__all__ = [
    "Message",
    "SubRequest",
    "BATCH_KIND",
    "BATCH_ACK_KIND",
    "make_batch",
    "unpack_batch",
    "make_batch_ack",
    "unpack_batch_ack",
    "PROXY_KIND",
    "PROXY_ACK_KIND",
    "ProxySubRequest",
    "ProxySubReply",
    "make_proxy_request",
    "unpack_proxy_request",
    "make_proxy_ack",
    "unpack_proxy_ack",
    "VIEW_PUSH_KIND",
    "VIEW_PUSH_ACK_KIND",
    "make_view_push",
    "unpack_view_push",
    "DRAIN_FENCE_KIND",
    "DRAIN_FENCE_ACK_KIND",
    "DRAIN_HOST_KIND",
    "DRAIN_TRANSFER_KIND",
    "DRAIN_TRANSFER_ACK_KIND",
    "DRAIN_INSTALL_KIND",
    "DRAIN_COMPLETE_KIND",
    "DRAIN_ACK_KIND",
    "make_drain_fence",
    "unpack_drain_fence",
    "make_drain_host",
    "unpack_drain_host",
    "make_drain_transfer",
    "unpack_drain_transfer",
    "make_drain_install",
    "unpack_drain_install",
    "make_drain_complete",
    "unpack_drain_complete",
    "LEASE_INVALIDATE_KIND",
    "LEASE_RELEASE_KIND",
    "DEFAULT_LEASE_TTL",
    "make_lease_invalidate",
    "unpack_lease_invalidate",
    "make_lease_release",
    "unpack_lease_release",
]

_message_counter = itertools.count(1)


@dataclass
class Message:
    """A network message.

    Attributes:
        sender: id of the sending process.
        receiver: id of the destination process.
        kind: message kind, e.g. ``"read"``, ``"write"``, ``"READACK"``,
            ``"WRITEACK"`` (following the names in Algorithms 1 and 2).
        payload: protocol-specific dictionary.
        op_id: the client operation this message belongs to, if any.
        round_trip: 1-based index of the round-trip within the operation.
        msg_id: globally unique message id (assigned automatically).
        trace: cross-tier trace-context id.  Unlike ``op_id`` -- which both
            the client and the proxy rewrite to attempt-scoped ids on retry
            and failover -- the trace id is stamped once when the application
            op enters the system and carried verbatim through every tier, so
            observability tooling can stitch one op's full journey.
    """

    sender: str
    receiver: str
    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)
    op_id: Optional[str] = None
    round_trip: int = 0
    msg_id: int = field(default_factory=_message_counter.__next__)
    trace: Optional[str] = None

    def reply(self, kind: str, payload: Optional[Dict[str, Any]] = None) -> "Message":
        """Construct a reply addressed back to the sender, tagged with the
        same operation id, round-trip index, and trace context."""
        return Message(
            self.receiver,
            self.sender,
            kind,
            payload if payload is not None else {},
            self.op_id,
            self.round_trip,
            trace=self.trace,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message(#{self.msg_id} {self.sender}->{self.receiver} {self.kind} "
            f"op={self.op_id} rt={self.round_trip})"
        )


# -- batch frames (repro.kvstore) ----------------------------------------------

#: Kind of a request frame packing several sub-requests for one server.
BATCH_KIND = "batch"
#: Kind of the reply frame carrying the sub-replies of one batch.
BATCH_ACK_KIND = "batch-ack"


class SubRequest(NamedTuple):
    """One sub-request of a batch frame: a keyed message plus its route tag.

    ``shard`` and ``epoch`` are the client's belief about the key's owner:
    the shard it resolved through its hash ring and that shard's epoch at
    resolution time.  A multiplexed group server fences the sub-request when
    the belief is stale (shard not hosted, or epoch superseded by a resize or
    move), bouncing it back so the client re-resolves.  ``shard=None`` (the
    legacy single-shard form) is never considered fresh by a group server.

    ``lease`` marks a sub-request that belongs to a *cache fill* of the
    sending proxy's read cache; its value is the fill's **nonce**, a string
    unique to the cache entry being filled.  On a non-mutating sub it asks
    the server to grant a read lease for the key (the grant rides back in
    the batch-ack's ``grants``, echoing the nonce, so the proxy can tie the
    grant to the exact fill that requested it), and on a mutating
    sub (the fill's writeback round) it exempts the sub from deferral
    against the *sender's own* lease only -- a fill writeback can only
    re-write a tag the sender's lease already covers, so deferring it
    against that lease would deadlock the fill, but leases held by *other*
    proxies still defer it like any write.
    """

    key: str
    message: Message
    shard: Optional[str] = None
    epoch: int = 0
    lease: Optional[str] = None


#: What callers may pass to :func:`make_batch`: full route-tagged sub-requests
#: or bare ``(key, message)`` pairs (coerced to untagged :class:`SubRequest`).
SubRequestLike = Union[SubRequest, Tuple[str, Message]]


def make_batch(
    sender: str,
    receiver: str,
    sub_messages: Sequence[SubRequestLike],
    releases: Optional[List[str]] = None,
) -> Message:
    """Pack sub-requests into one batch frame for ``receiver``.

    Each sub-message keeps its own ``op_id``/``round_trip`` so replies can be
    routed back to the operation that issued it; the ``key`` names the
    register the sub-message addresses and the optional ``shard``/``epoch``
    tag names the owning shard the client resolved (see :class:`SubRequest`).
    The frame carries the :class:`SubRequest` objects themselves, however
    their messages are addressed (the frame is; see the module notes); only a
    bare pair is rebuilt.  ``releases`` names the keys whose read leases the
    sender hands back to ``receiver``; the receiver applies them before any
    of the frame's subs.
    """
    if not sub_messages:
        raise ValueError("a batch frame must contain at least one sub-message")
    ops = [
        sub if type(sub) is SubRequest else SubRequest(*sub)
        for sub in sub_messages
    ]
    payload: Dict[str, Any] = {"ops": ops}
    if releases:
        payload["releases"] = releases
    return Message(sender, receiver, BATCH_KIND, payload)


def unpack_batch(message: Message) -> List[SubRequest]:
    """Inverse of :func:`make_batch`: the route-tagged sub-requests."""
    if message.kind != BATCH_KIND:
        raise ValueError(f"not a batch frame: kind={message.kind!r}")
    return message.payload["ops"]


def make_batch_ack(
    request: Message,
    sub_replies: Sequence[Tuple[str, Optional[Message]]],
    grants: Optional[List[Tuple[str, str]]] = None,
) -> Message:
    """Pack the per-sub-request replies of one batch into one ack frame.

    ``sub_replies`` pairs each key with the reply the per-key server logic
    produced; a ``None`` reply -- a logic that chose not to reply -- becomes
    a ``None`` entry, preserved positionally so the client can account for
    it.  Replies travel as the logic built them: the ack frame is addressed
    to the batch's sender, and behind a proxy a reply names the *client*
    whose identity the sub carried, which nothing reads.  ``grants`` are the
    ``(key, fill nonce)`` pairs of the read leases the frame's lease-marked
    subs registered for the ack's receiver.
    """
    payload: Dict[str, Any] = {"acks": [
        None if reply is None else (key, reply) for key, reply in sub_replies
    ]}
    if grants:
        payload["grants"] = grants
    return Message(
        request.receiver, request.sender, BATCH_ACK_KIND, payload,
        request.op_id, request.round_trip,
    )


def unpack_batch_ack(message: Message) -> List[Tuple[str, Optional[Message]]]:
    """Inverse of :func:`make_batch_ack`: ``(key, sub-reply | None)`` pairs."""
    if message.kind != BATCH_ACK_KIND:
        raise ValueError(f"not a batch ack frame: kind={message.kind!r}")
    return [("", None) if ack is None else ack for ack in message.payload["acks"]]


# -- proxy frames (repro.kvstore.engine.proxy) ---------------------------------

#: Kind of a client -> proxy frame packing several forwarded quorum rounds.
PROXY_KIND = "proxy"
#: Kind of a proxy -> client frame carrying completed rounds' quorum replies.
PROXY_ACK_KIND = "proxy-ack"


class ProxySubRequest(NamedTuple):
    """One quorum round forwarded through the ingress proxy.

    Unlike :class:`SubRequest` there is no (shard, epoch) tag: resolving the
    key against the ring is the *proxy's* job (its cached shard-map view),
    which is what lets the proxy absorb stale-epoch bounces without the
    client ever noticing a live resize.  ``op_kind`` ("read" / "write") is
    what the proxy's :class:`~repro.kvstore.engine.routing.ReadRoutingPolicy` keys on;
    ``kind``/``payload``/``per_server`` are the protocol round exactly as the
    per-key client generator yielded it, and ``wait_for`` is its explicit ack
    threshold (``None`` means the owner group's quorum size, resolved by the
    proxy so a client with a stale view cannot under-wait).  ``trace`` is the
    op's cross-tier trace-context id (see :class:`Message`); the proxy stamps
    it on the replica-bound sub-messages it fans out.  ``client`` is the
    store client whose round this is -- whom the replicas see as its sender
    -- when one frame carries the rounds of several (a process's shared
    link); ``None`` means the frame's sender.  The ack still goes to the
    frame's sender, never to ``client``.
    """

    key: str
    op_kind: str
    kind: str
    payload: Dict[str, Any]
    op_id: str
    round_trip: int
    wait_for: Optional[int] = None
    per_server: Optional[Dict[str, Dict[str, Any]]] = None
    trace: Optional[str] = None
    client: Optional[str] = None

    def payload_for(self, server_id: str) -> Dict[str, Any]:
        if self.per_server and server_id in self.per_server:
            return self.per_server[server_id]
        return self.payload

    @property
    def per_server_payload(self) -> Optional[Dict[str, Dict[str, Any]]]:
        """``per_server`` under the name the client's ``Broadcast`` gives it."""
        return self.per_server


class ProxySubReply(NamedTuple):
    """The completed round for one forwarded sub-request.

    ``replies`` is the full quorum the proxy collected, each reply keeping
    the *replica* as its sender (protocols count distinct servers and read
    crucial info off ``reply.sender``).  ``error`` is set instead of replies
    when the proxy gave up (e.g. the shard map never converged within
    :data:`~repro.kvstore.engine.server.MAX_STALE_RETRIES` replays).
    """

    op_id: str
    round_trip: int
    replies: Tuple[Message, ...] = ()
    error: Optional[str] = None


def make_proxy_request(
    sender: str, receiver: str, subs: Sequence[ProxySubRequest]
) -> Message:
    """Pack forwarded rounds into one proxy frame (client -> proxy).

    The frame's ``sender`` is whom the proxy answers.  Each sub's ``client``
    -- or, where it is ``None``, the frame's sender -- is the identity the
    proxy propagates as the sender of the round's replica-bound
    sub-messages, so the per-reader / per-writer bookkeeping the register
    protocols keep (``updated`` sets -- the paper's crucial info) is
    indistinguishable from a direct connection.
    """
    if not subs:
        raise ValueError("a proxy frame must contain at least one sub-request")
    return Message(sender, receiver, PROXY_KIND, {"ops": list(subs)})


def unpack_proxy_request(message: Message) -> List[ProxySubRequest]:
    """Inverse of :func:`make_proxy_request`."""
    if message.kind != PROXY_KIND:
        raise ValueError(f"not a proxy frame: kind={message.kind!r}")
    return message.payload["ops"]


def make_proxy_ack(
    sender: str, receiver: str, sub_replies: Sequence[ProxySubReply]
) -> Message:
    """Pack completed rounds into one proxy ack frame (proxy -> client), each
    reply rebuilt as the wire decoder rebuilds it: (sender, kind, payload)
    addressed to ``receiver`` under its sub-reply's ``(op_id, round_trip)``.

    The proxy engine does not rebuild: it relays each :class:`ProxySubReply`
    as it stands, the proxy's attempt-scoped ids on its replies, because the
    client never reads them (see the module notes).
    """
    if not sub_replies:
        raise ValueError("a proxy ack frame must contain at least one reply")
    acks = [
        ProxySubReply(
            sub.op_id,
            sub.round_trip,
            tuple(
                Message(r.sender, receiver, r.kind, r.payload,
                        sub.op_id, sub.round_trip)
                for r in sub.replies
            ),
            sub.error,
        )
        for sub in sub_replies
    ]
    return Message(sender, receiver, PROXY_ACK_KIND, {"acks": acks})


def unpack_proxy_ack(message: Message) -> List[ProxySubReply]:
    """Inverse of :func:`make_proxy_ack`: the completed rounds.  (Off the
    wire, each reply carries the round's (op_id, round_trip) and is addressed
    to the receiving client; in process it is the replica's own.)"""
    if message.kind != PROXY_ACK_KIND:
        raise ValueError(f"not a proxy ack frame: kind={message.kind!r}")
    return message.payload["acks"]


# -- view push frames (control plane -> proxies) --------------------------------

#: Kind of a control-plane frame pushing a fresh shard-map view to a proxy.
VIEW_PUSH_KIND = "view-push"
#: Kind of the proxy's acknowledgement that the pushed view was applied.
VIEW_PUSH_ACK_KIND = "view-push-ack"

#: The fields of a pushed view -- a per-rebalance routing delta
#: (``ShardMap.view_delta``) -- and of each of its routes; their types are
#: in ``_FIELD_TYPES``.
_VIEW_FIELDS = (
    "ring_epoch", "base_ring_epoch", "virtual_nodes", "added", "removed", "routes",
)
_ROUTE_FIELDS = ("epoch", "group", "servers", "quorum")


def _checked_view(view: Any) -> Dict[str, Any]:
    """``view`` if it is a well-formed routing delta, else ``ValueError``: a
    malformed push is refused before it touches any routing state."""
    if not isinstance(view, dict):
        raise ValueError("a view push must carry a view mapping")
    name = _mistyped(view, _VIEW_FIELDS)
    if name is not None:
        raise ValueError(f"view push is missing field {name!r} (or it is mistyped)")
    routes = view["routes"]
    for shard_id, route in routes.items():
        if not (type(shard_id) is str and isinstance(route, dict)
                and _mistyped(route, _ROUTE_FIELDS) is None):
            raise ValueError(f"view push route {shard_id!r} is mistyped")
    if view["virtual_nodes"] < 1 or not set(view["added"]) <= set(routes):
        raise ValueError(
            "a view push needs positive virtual_nodes and a route per added shard"
        )
    return view


def make_view_push(sender: str, receiver: str, view: Dict[str, Any]) -> Message:
    """Pack one rebalance's routing delta into a push frame.

    The control plane sends one push per proxy on every live
    ``resize()``/``move_shard()`` so proxies re-route *proactively* -- one
    message per proxy per rebalance instead of one stale-epoch bounce (and
    replayed round) per proxy; the bounce fence stays in place as the safety
    net for pushes that race in-flight frames or get lost.  A push carries
    only the entries the rebalance touched (O(moved), not O(shards)) plus
    the ring epoch it was computed against.
    """
    return Message(
        sender=sender,
        receiver=receiver,
        kind=VIEW_PUSH_KIND,
        payload={"view": _checked_view(view)},
    )


def unpack_view_push(message: Message) -> Dict[str, Any]:
    """Inverse of :func:`make_view_push`: the pushed routing delta."""
    if message.kind != VIEW_PUSH_KIND:
        raise ValueError(f"not a view push frame: kind={message.kind!r}")
    return _checked_view(message.payload.get("view"))


# -- drain frames (control plane <-> replicas, incremental migration) ------------
#
# The incremental key-range drain replaces the old single-process migration
# critical section with a frame protocol the control plane drives against
# the replicas of the donor and receiver groups:
#
#   fence    -> donor replicas bump the shard's epoch (older tags bounce from
#               now on) and answer with their key census;
#   host     -> receiver replicas start hosting the shard at its new epoch
#               with the incoming keys marked *pending* (served requests for
#               a pending key bounce until its range is installed);
#   transfer -> one donor replica exports copies of a key range's register
#               state (the registers stay in place until ``complete``);
#   install  -> the paired receiver replica absorbs the exported blobs and
#               clears the range's keys from its pending set;
#   complete -> donors drop the moved registers (or evict the whole shard),
#               receivers clear their migration bookkeeping.
#
# Every frame carries the migration id (``mig``) and a per-send ``token`` so
# the control plane can match acks and drive per-frame retry timers; every
# handler is idempotent, so a retried frame that raced its ack is harmless.

#: Control plane -> donor replica: fence a shard at a new epoch, return census.
DRAIN_FENCE_KIND = "drain-fence"
#: Donor's fence acknowledgement, carrying its key census for the shard.
DRAIN_FENCE_ACK_KIND = "drain-fence-ack"
#: Control plane -> receiver replica: host a shard with pending incoming keys.
DRAIN_HOST_KIND = "drain-host"
#: Control plane -> donor replica: export one key range's register state.
DRAIN_TRANSFER_KIND = "drain-transfer"
#: Donor's transfer acknowledgement, carrying the exported state blobs.
DRAIN_TRANSFER_ACK_KIND = "drain-transfer-ack"
#: Control plane -> receiver replica: install one key range's state blobs.
DRAIN_INSTALL_KIND = "drain-install"
#: Control plane -> replica: the migration is over for this shard.
DRAIN_COMPLETE_KIND = "drain-complete"
#: Generic acknowledgement for host/install/complete frames.
DRAIN_ACK_KIND = "drain-ack"


def _make_drain(sender: str, receiver: str, kind: str, mig: str, token: str,
                shard: str, extra: Dict[str, Any]) -> Message:
    payload = {"mig": mig, "token": token, "shard": shard}
    payload.update(extra)
    return Message(sender=sender, receiver=receiver, kind=kind, payload=payload)


#: What each named field of a drain, lease or view-push frame (or of a
#: pushed route) must be for the engines to index by it safely (a ``list``
#: is a list of strings: keys, shard ids or servers).
_FIELD_TYPES: Dict[str, Any] = {
    "mig": str, "token": str, "shard": str, "epoch": int, "evict": bool,
    "keys": list, "drop_keys": list, "states": dict,
    "ring_epoch": int, "base_ring_epoch": int, "virtual_nodes": int,
    "added": list, "removed": list, "routes": dict,
    "group": str, "servers": list, "quorum": int,
}


def _mistyped(record: Dict[str, Any], fields: Tuple[str, ...]) -> Optional[str]:
    """The first of ``fields`` that ``record`` lacks or holds mistyped."""
    for name in fields:
        value, expected = record.get(name), _FIELD_TYPES[name]
        if not isinstance(value, expected) or (
            expected is list and not all(type(item) is str for item in value)
        ):
            return name
    return None


def _unpack(message: Message, kind: str, fields: Tuple[str, ...]) -> Dict[str, Any]:
    """The payload of a drain or lease frame, its ``fields`` checked.

    Runs wherever the frame is consumed and, for frames off the wire, once
    in the codec, so a peer's malformed frame is a decode error there
    instead of a ``KeyError`` inside an engine.
    """
    if message.kind != kind:
        raise ValueError(f"not a {kind} frame: kind={message.kind!r}")
    name = _mistyped(message.payload, fields)
    if name is not None:
        raise ValueError(f"{kind} frame is missing field {name!r} (or it is mistyped)")
    return message.payload


_DRAIN_FIELDS = ("mig", "token", "shard")


def make_drain_fence(sender: str, receiver: str, mig: str, token: str,
                     shard: str, epoch: int) -> Message:
    """Fence ``shard`` at ``epoch`` on one donor replica."""
    return _make_drain(sender, receiver, DRAIN_FENCE_KIND, mig, token, shard,
                       {"epoch": epoch})


def unpack_drain_fence(message: Message) -> Dict[str, Any]:
    return _unpack(message, DRAIN_FENCE_KIND, _DRAIN_FIELDS + ("epoch",))


def make_drain_host(sender: str, receiver: str, mig: str, token: str,
                    shard: str, epoch: int, keys: Sequence[str]) -> Message:
    """Host ``shard`` at ``epoch`` with ``keys`` pending on one receiver."""
    return _make_drain(sender, receiver, DRAIN_HOST_KIND, mig, token, shard,
                       {"epoch": epoch, "keys": list(keys)})


def unpack_drain_host(message: Message) -> Dict[str, Any]:
    return _unpack(message, DRAIN_HOST_KIND, _DRAIN_FIELDS + ("epoch", "keys"))


def make_drain_transfer(sender: str, receiver: str, mig: str, token: str,
                        shard: str, keys: Sequence[str]) -> Message:
    """Export the state of ``keys`` under ``shard`` from one donor replica."""
    return _make_drain(sender, receiver, DRAIN_TRANSFER_KIND, mig, token,
                       shard, {"keys": list(keys)})


def unpack_drain_transfer(message: Message) -> Dict[str, Any]:
    return _unpack(message, DRAIN_TRANSFER_KIND, _DRAIN_FIELDS + ("keys",))


def make_drain_install(sender: str, receiver: str, mig: str, token: str,
                       shard: str, epoch: int, keys: Sequence[str],
                       states: Dict[str, List[Dict[str, Any]]]) -> Message:
    """Install one range: ``keys`` lists every key of the range (all leave
    the receiver's pending set), ``states`` maps the subset with exported
    blobs to the (possibly several, one per donor replica) blobs to absorb."""
    return _make_drain(sender, receiver, DRAIN_INSTALL_KIND, mig, token,
                       shard, {"epoch": epoch, "keys": list(keys),
                               "states": states})


def unpack_drain_install(message: Message) -> Dict[str, Any]:
    return _unpack(
        message, DRAIN_INSTALL_KIND, _DRAIN_FIELDS + ("epoch", "keys", "states")
    )


def make_drain_complete(sender: str, receiver: str, mig: str, token: str,
                        shard: str, drop_keys: Sequence[str] = (),
                        evict: bool = False) -> Message:
    """Finish the migration at one replica: drop the moved registers (donor),
    evict the shard outright (removed/moved-away donor), and clear
    pending/installed bookkeeping (receiver)."""
    return _make_drain(sender, receiver, DRAIN_COMPLETE_KIND, mig, token,
                       shard, {"drop_keys": list(drop_keys), "evict": evict})


def unpack_drain_complete(message: Message) -> Dict[str, Any]:
    return _unpack(
        message, DRAIN_COMPLETE_KIND, _DRAIN_FIELDS + ("drop_keys", "evict")
    )


# -- lease traffic (replica <-> proxy, server-assisted read caching) -----------
#
# The proxy-side hot-key read cache stays atomic because every cached entry
# is backed by a bounded-duration read lease registered at the replicas that
# served the fill:
#
#   grant      -> a replica that served a lease-marked read sub-request
#                 registers the proxy as a lease holder for the key and says
#                 so in that frame's batch-ack (``grants``: one ``[key,
#                 nonce]`` pair per lease), echoing the fill nonce so a grant
#                 for an evicted entry is never credited to a later fill of
#                 the same key.  The proxy credits an ack's grants before its
#                 replies count toward any quorum;
#   invalidate -> a replica that received a write for a leased key tells
#                 every holder to drop its cached entry *now* (a frame of
#                 its own); the write's application (and its ack) is
#                 deferred until the holders release or their leases expire;
#   release    -> a holder gives the lease back -- its answer to an
#                 invalidation, and also what it sends when it evicts an
#                 entry on its own (LRU pressure, view change, self-expiry).
#                 A release waits in the queue of the replica's group and
#                 leaves at its flush, in the first ``batch`` frame to that
#                 replica (``releases``: a key list the replica applies before
#                 the frame's subs); a replica the flush sends no batch frame
#                 gets one ``lease-release`` frame, keys coalesced.
#
# So a release reaches a replica no later than any sub queued after it, and
# an evicted entry's release can never clear a later fill's lease.

#: Replica -> lease holder: a write arrived, drop the cached entries now.
LEASE_INVALIDATE_KIND = "lease-invalidate"
#: Holder -> replica: the holder no longer claims leases on these keys.
LEASE_RELEASE_KIND = "lease-release"

#: Default server-side lease duration (the simulator's virtual time units;
#: the asyncio backend configures a wall-clock-appropriate value).
DEFAULT_LEASE_TTL = 60.0


def _make_lease(sender: str, receiver: str, kind: str,
                keys: Sequence[str]) -> Message:
    if not keys:
        raise ValueError(f"a {kind} frame must name at least one key")
    return Message(sender=sender, receiver=receiver, kind=kind,
                   payload={"keys": list(keys)})


def make_lease_invalidate(sender: str, receiver: str,
                          keys: Sequence[str]) -> Message:
    """Tell holder ``receiver`` to drop its cached entries for ``keys``."""
    return _make_lease(sender, receiver, LEASE_INVALIDATE_KIND, keys)


def unpack_lease_invalidate(message: Message) -> Dict[str, Any]:
    return _unpack(message, LEASE_INVALIDATE_KIND, ("keys",))


def make_lease_release(sender: str, receiver: str,
                       keys: Sequence[str]) -> Message:
    """Give the leases on ``keys`` back to replica ``receiver``."""
    return _make_lease(sender, receiver, LEASE_RELEASE_KIND, keys)


def unpack_lease_release(message: Message) -> Dict[str, Any]:
    return _unpack(message, LEASE_RELEASE_KIND, ("keys",))
