"""The group-server engine: batch multiplexing behind the epoch fence.

One :class:`GroupServerEngine` runs per replica of a *replica group* and
hosts the per-key registers of every shard placed on that group,
demultiplexing each shard-tagged sub-request to per-key single-register
server logic (created on demand from the group's protocol), then packing the
sub-replies into one ``batch-ack``.  Because the per-key logic objects are
the unmodified ones the single-register emulations use, every correctness
property (and every proof obligation) carries over key by key.

The engine also enforces the **epoch fence** that makes live rebalancing
safe: a sub-request whose (shard, epoch) tag does not match a hosted shard
is answered with a ``"stale-shard"`` bounce instead of touching any
register, and the client re-resolves its ring and replays the round.  The
hosting table is a control-plane surface (``host_shard`` / ``evict_shard``
/ ``extract_keys`` / ``install_keys``) driven by the migration module.

The engine is also the server half of the **read-lease protocol** behind
the proxies' hot-key read cache: a lease-marked read sub-request registers
its proxy as a lease holder for the key (confirmed in the ``grants`` of the
frame's batch-ack), and any *mutating* sub-request for a leased key is
**deferred** -- its application and its reply are withheld -- while
``"lease-invalidate"`` frames chase the holders.  Served subs of the same
batch frame ack immediately in a *partial* batch-ack (one deferred write must
not stall unrelated keys' replies for up to the lease TTL); each deferred
sub's reply follows in its own batch-ack once every holder of its key
releases it or expires on the server-side timer.  A holder's releases ride
its next batch frame (``releases``, applied before the frame's subs) or,
when it has none for this replica, a ``"lease-release"`` frame.
A lease-marked *mutating* sub (a fill's writeback) is exempt only from the
sender's own lease: leases held by other proxies defer it like any write,
else a fill could complete a read of a half-applied write that another
proxy's still-granted cache entry orders after its old value.  Because a
cached entry is only served while a write-blocking set of replicas holds
the lease, no write can *complete* while any proxy serves the key from
cache -- which is exactly the intersection argument that keeps cached
reads atomic.

This is the server third of the sans-I/O core: ``on_frame`` -- its one
entry point for frames -- consumes one decoded frame and returns effects
(sends and lease timers), with no transport, runtime, or clock anywhere in
sight.  The simulator
wraps the engine in a process that models service time; the asyncio
backend serves it behind a TCP listener; the tests drive it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ...core.errors import ProtocolError
from ...messages import (
    BATCH_KIND,
    DEFAULT_LEASE_TTL,
    DRAIN_ACK_KIND,
    DRAIN_COMPLETE_KIND,
    DRAIN_FENCE_ACK_KIND,
    DRAIN_FENCE_KIND,
    DRAIN_HOST_KIND,
    DRAIN_INSTALL_KIND,
    DRAIN_TRANSFER_ACK_KIND,
    DRAIN_TRANSFER_KIND,
    LEASE_RELEASE_KIND,
    Message,
    SubRequest,
    make_batch_ack,
    make_lease_invalidate,
    unpack_batch,
    unpack_drain_complete,
    unpack_drain_fence,
    unpack_drain_host,
    unpack_drain_install,
    unpack_drain_transfer,
    unpack_lease_release,
)
from ...observe.events import (
    FRAME_RECEIVED,
    FRAME_SENT,
    LEASE_EXPIRED,
    LEASE_GRANTED,
    NULL_OBSERVER,
    STALE_BOUNCE,
    SUB_SERVED,
    EngineObserver,
)
from ...protocols.base import RegisterProtocol, ServerLogic
from .effects import CancelTimer, Effect, SendFrame, StartTimer, TimerId

__all__ = [
    "STALE_SHARD_KIND",
    "MAX_STALE_RETRIES",
    "StaleShardError",
    "make_stale_reply",
    "is_stale_reply",
    "GroupServerEngine",
]

#: Reply kind bouncing a sub-request whose (shard, epoch) tag is stale.
STALE_SHARD_KIND = "stale-shard"

#: Stale-epoch bounces one operation may absorb (re-resolving and replaying
#: its round each time) before the driver gives up -- shared by both
#: backends so they tolerate the same amount of rebalancing churn.
MAX_STALE_RETRIES = 16


class StaleShardError(ProtocolError):
    """A round-trip hit a server that no longer serves the shard at that epoch.

    Raised client-side so drivers re-resolve the ring and replay the round
    against the shard's current owner group.
    """

    def __init__(self, shard: Optional[str], sent_epoch: int,
                 current_epoch: Optional[int]) -> None:
        super().__init__(
            f"shard {shard!r} epoch {sent_epoch} is stale "
            f"(server hosts epoch {current_epoch})"
        )
        self.shard = shard
        self.sent_epoch = sent_epoch
        self.current_epoch = current_epoch


def make_stale_reply(
    server: "GroupServerEngine", sub: SubRequest, current_epoch: Optional[int]
) -> Message:
    """The bounce ``server`` sends for one stale sub-request, echoing its
    routing tag (sent as ``server.server_id``, like every reply)."""
    return server.reply(
        sub.message, STALE_SHARD_KIND,
        {"shard": sub.shard, "sent_epoch": sub.epoch, "epoch": current_epoch},
    )


def is_stale_reply(message: Optional[Message]) -> bool:
    return message is not None and message.kind == STALE_SHARD_KIND


@dataclass
class _HostedShard:
    """One shard's slice of a group server: its epoch and per-key registers.

    During an incremental drain, ``pending`` holds the keys whose state is
    still in flight from the donor replicas: a sub-request for a pending key
    bounces exactly like a stale epoch (the client replays after a delay)
    until the key's range is installed.  ``installed`` remembers which keys
    a drain already delivered, so a retried ``drain-host`` frame cannot
    resurrect pending-ness for a key that has already arrived.
    """

    epoch: int
    registers: Dict[str, ServerLogic] = field(default_factory=dict)
    pending: Set[str] = field(default_factory=set)
    installed: Set[str] = field(default_factory=set)


class GroupServerEngine:
    """One replica of a replica group, serving many shards' keys.

    The only message kind it accepts is ``"batch"``; the kv-store client
    drivers wrap even solitary sub-requests in a batch of one, so the wire
    protocol stays uniform.  Sub-requests of different shards hosted by the
    same group coalesce into the same frame.
    """

    #: Every reply leaves as this replica: the per-key logics' one helper.
    reply = ServerLogic.reply

    def __init__(
        self,
        server_id: str,
        protocol: RegisterProtocol,
        shard_epochs: Optional[Dict[str, int]] = None,
        observer: Optional[EngineObserver] = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
    ) -> None:
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        self.server_id = server_id
        self.protocol = protocol
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.lease_ttl = lease_ttl
        self._shards: Dict[str, _HostedShard] = {}
        for shard_id, epoch in (shard_epochs or {}).items():
            self.host_shard(shard_id, epoch)
        self.batches_served = 0
        self.sub_ops_served = 0
        self.largest_batch = 0
        self.stale_bounces = 0
        # -- read-lease state ---------------------------------------------------
        #: key -> the proxies currently holding a read lease on it.
        self._leases: Dict[str, Set[str]] = {}
        #: key -> holders already chased with an invalidation this episode.
        self._invalidated: Dict[str, Set[str]] = {}
        #: key -> FIFO of (batch frame, sub index) awaiting the key's leases.
        self._deferred: Dict[str, List[Tuple[Message, int]]] = {}
        self.leases_granted = 0
        self.leases_expired = 0
        self.write_deferrals = 0

    # -- control plane (hosting table) -----------------------------------------

    def host_shard(
        self,
        shard_id: str,
        epoch: int,
        registers: Optional[Dict[str, ServerLogic]] = None,
    ) -> None:
        """Start serving ``shard_id`` at ``epoch`` (with migrated registers)."""
        hosted = _HostedShard(epoch=epoch)
        if registers:
            for logic in registers.values():
                logic.server_id = self.server_id
            hosted.registers.update(registers)
        self._shards[shard_id] = hosted

    def evict_shard(self, shard_id: str) -> Dict[str, ServerLogic]:
        """Stop serving ``shard_id``; returns its registers for migration."""
        hosted = self._shards.pop(shard_id, None)
        return hosted.registers if hosted is not None else {}

    def set_epoch(self, shard_id: str, epoch: int) -> None:
        """Fence ``shard_id`` at a new epoch (older tags bounce from now on)."""
        self._shards[shard_id].epoch = epoch

    def hosted_epoch(self, shard_id: str) -> Optional[int]:
        hosted = self._shards.get(shard_id)
        return hosted.epoch if hosted is not None else None

    def hosted_shards(self) -> List[str]:
        return list(self._shards)

    def keys_for(self, shard_id: str) -> List[str]:
        """The keys with materialized registers under ``shard_id`` here."""
        hosted = self._shards.get(shard_id)
        return list(hosted.registers) if hosted is not None else []

    def extract_keys(
        self, shard_id: str, keys: Iterable[str]
    ) -> Dict[str, ServerLogic]:
        """Remove and return the registers of ``keys`` (for migration)."""
        hosted = self._shards[shard_id]
        extracted: Dict[str, ServerLogic] = {}
        for key in keys:
            logic = hosted.registers.pop(key, None)
            if logic is not None:
                extracted[key] = logic
        return extracted

    def install_keys(self, shard_id: str, registers: Dict[str, ServerLogic]) -> None:
        """Adopt migrated registers under ``shard_id`` (which must be hosted)."""
        hosted = self._shards[shard_id]
        for key, logic in registers.items():
            logic.server_id = self.server_id
            hosted.registers[key] = logic

    # -- data plane -------------------------------------------------------------

    def register_for(self, shard_id: str, key: str) -> ServerLogic:
        """The per-key single-register server logic, created on first use."""
        hosted = self._shards[shard_id]
        logic = hosted.registers.get(key)
        if logic is None:
            logic = self.protocol.make_server(self.server_id)
            hosted.registers[key] = logic
        return logic

    @property
    def keys_hosted(self) -> int:
        return sum(len(hosted.registers) for hosted in self._shards.values())

    def on_frame(self, frame: Message) -> List[Effect]:
        """Consume one decoded frame, return the effects it causes."""
        out: List[Effect] = []
        drain_handler = self._DRAIN_HANDLERS.get(frame.kind)
        if drain_handler is not None:
            counts = self.observer.frame_received
            if counts is None:
                self.observer.emit(
                    FRAME_RECEIVED, kind=frame.kind, source=frame.sender
                )
            else:
                counts["frames_received"] += 1
            if (frame.kind == DRAIN_TRANSFER_KIND
                    and self._defer_transfer(frame, out)):
                # Deferral by silence: the control plane retries unacked
                # transfer frames on its timer, so withholding the ack until
                # the range's lease holders clear needs no bookkeeping here.
                return out
            reply = drain_handler(self, frame)
            if reply is not None:
                out.append(SendFrame(reply.receiver, reply))
            return out
        if frame.kind == LEASE_RELEASE_KIND:
            counts = self.observer.frame_received
            if counts is None:
                self.observer.emit(
                    FRAME_RECEIVED, kind=frame.kind, source=frame.sender
                )
            else:
                counts["frames_received"] += 1
            self._release(frame.sender, unpack_lease_release(frame)["keys"], out)
            return out
        if frame.kind != BATCH_KIND:
            raise ValueError(
                f"GroupServerEngine only handles batch frames, got {frame.kind!r}"
            )
        self._serve_batch(frame, out)
        return out

    def _stale_reply_for(self, sub: SubRequest) -> Optional[Message]:
        """The stale bounce for ``sub``, or ``None`` when it is serveable."""
        hosted = self._shards.get(sub.shard) if sub.shard is not None else None
        if (hosted is None or sub.epoch != hosted.epoch
                or sub.key in hosted.pending):
            self.stale_bounces += 1
            current = hosted.epoch if hosted is not None else None
            self.observer.emit(
                STALE_BOUNCE, op_id=sub.message.op_id, key=sub.key,
                trace=sub.message.trace, shard=sub.shard,
                sent_epoch=sub.epoch, epoch=current,
            )
            return make_stale_reply(self, sub, current)
        return None

    def _serve_sub(self, sub: SubRequest) -> Optional[Message]:
        self.observer.emit(
            SUB_SERVED, op_id=sub.message.op_id, key=sub.key,
            trace=sub.message.trace, shard=sub.shard,
        )
        return self.register_for(sub.shard, sub.key).handle(sub.message)

    def _serve_batch(self, message: Message, out: List[Effect]) -> None:
        subs = unpack_batch(message)
        self.batches_served += 1
        self.sub_ops_served += len(subs)
        self.largest_batch = max(self.largest_batch, len(subs))
        counts = self.observer.frame_received
        if counts is None:
            self.observer.emit(
                FRAME_RECEIVED, kind=BATCH_KIND, source=message.sender, size=len(subs)
            )
        else:
            counts["frames_received"] += 1
        holder = message.sender
        releases = message.payload.get("releases")
        if releases:
            # Before any sub: a release queued ahead of a fill's sub must not
            # clear the lease that sub registers.
            self._release(holder, releases, out)
        mutating_kinds = self.protocol.mutating_kinds
        entries: List[Tuple[str, Optional[Message]]] = []
        grants: Optional[List[Tuple[str, str]]] = None
        invalidations: Dict[str, List[str]] = {}
        for index, sub in enumerate(subs):
            stale = self._stale_reply_for(sub)
            if stale is not None:
                entries.append((sub.key, stale))
                continue
            holders = self._leases.get(sub.key)
            if holders and sub.message.kind in mutating_kinds:
                # A lease-marked mutation (a fill's writeback of an
                # already-existing tag) is exempt from the *sender's own*
                # lease only -- deferring it against that lease would
                # deadlock the fill.  Other proxies' leases defer it like
                # any write: their granted cache entries may still order
                # the key *before* the tag this writeback would complete.
                blockers = (holders - {holder} if sub.lease is not None
                            else holders)
                if blockers:
                    # A write against a leased key: chase every holder with
                    # an invalidation (once per episode) and withhold both
                    # the write's application and its reply until they
                    # release or expire.  The sender is chased too when its
                    # own fill is the deferred sub, so the holder set can
                    # drain (its invalidate detaches the fill proxy-side).
                    self.write_deferrals += 1
                    chased = self._invalidated.setdefault(sub.key, set())
                    # Sorted: a set of strings iterates in the process's
                    # hash order, and the frames' order reaches the run.
                    for lease_holder in sorted(holders - chased):
                        chased.add(lease_holder)
                        invalidations.setdefault(lease_holder, []).append(
                            sub.key
                        )
                    self._deferred.setdefault(sub.key, []).append(
                        (message, index)
                    )
                    continue
            entries.append((sub.key, self._serve_sub(sub)))
            if (sub.lease is not None
                    and sub.message.kind not in mutating_kinds
                    and sub.key not in self._deferred):
                # Register (or refresh) the proxy's read lease.  Keys with
                # queued writes never grant: handing out fresh leases while
                # writers wait would starve them.
                self._leases.setdefault(sub.key, set()).add(holder)
                self._invalidated.get(sub.key, set()).discard(holder)
                out.append(
                    StartTimer(("lease", sub.key, holder), self.lease_ttl)
                )
                self.leases_granted += 1
                counts = self.observer.lease_granted
                if counts is None:
                    self.observer.emit(
                        LEASE_GRANTED, key=sub.key, holder=holder,
                        ttl=self.lease_ttl,
                    )
                else:
                    counts["leases_granted"] += 1
                if grants is None:
                    grants = []
                grants.append((sub.key, sub.lease))
        self._chase(invalidations, out)
        if entries:
            # A *partial* ack when some subs deferred: the served replies
            # must not wait out another key's lease TTL, and the proxy
            # matches sub-replies positionally by op id, not per frame.
            # The grants ride in it (a granted sub is a served one), echoing
            # each fill's nonce so the proxy drops grants meant for an
            # evicted entry, and are credited before its replies count.
            self._ack_batch(message, entries, out, grants)

    def _ack_batch(
        self,
        request: Message,
        entries: List[Tuple[str, Optional[Message]]],
        out: List[Effect],
        grants: Optional[List[Tuple[str, str]]] = None,
    ) -> None:
        counts = self.observer.frame_sent
        if counts is None:
            self.observer.emit(FRAME_SENT, kind="batch-ack", dest=request.sender)
        else:
            counts["frames_sent"] += 1
        ack = make_batch_ack(request, entries, grants)
        out.append(SendFrame(ack.receiver, ack))

    # -- the lease protocol (proxy read cache <-> this replica) ------------------

    def lease_holders(self, key: str) -> Set[str]:
        """The proxies currently holding a read lease on ``key``."""
        return set(self._leases.get(key, ()))

    @property
    def deferred_subs(self) -> int:
        """Sub-requests currently withheld behind lease deferrals."""
        return sum(len(queue) for queue in self._deferred.values())

    def _release(self, holder: str, keys: List[str], out: List[Effect]) -> None:
        for key in keys:
            self._drop_holder(key, holder, out, cancel_timer=True)

    def _drop_holder(
        self, key: str, holder: str, out: List[Effect], cancel_timer: bool
    ) -> None:
        holders = self._leases.get(key)
        if holders is None or holder not in holders:
            return
        holders.discard(holder)
        if cancel_timer:
            out.append(CancelTimer(("lease", key, holder)))
        chased = self._invalidated.get(key)
        if chased is not None:
            chased.discard(holder)
        if not holders:
            del self._leases[key]
            self._invalidated.pop(key, None)
            self._flush_deferred(key, out)

    def _flush_deferred(self, key: str, out: List[Effect]) -> None:
        """Apply the writes a key's leases were holding back, oldest first.

        Each applied sub's reply goes out in a follow-up partial batch-ack
        (replies of one original frame coalesce); the served subs of that
        frame were acked when it arrived.  The stale check re-runs at
        application time: a drain may have fenced the shard while the write
        sat deferred, and applying it under the old epoch would slip it
        past the migration's census.
        """
        queue = self._deferred.pop(key, None)
        if not queue:
            return
        acks: Dict[int, Tuple[Message, List[Tuple[str, Optional[Message]]]]]
        acks = {}
        for request, index in queue:
            sub = unpack_batch(request)[index]
            stale = self._stale_reply_for(sub)
            reply = stale if stale is not None else self._serve_sub(sub)
            acks.setdefault(id(request), (request, []))[1].append(
                (sub.key, reply)
            )
        for request, entries in acks.values():
            self._ack_batch(request, entries, out)

    def on_timer(self, timer_id: TimerId) -> List[Effect]:
        """A server-side lease deadline passed without a release."""
        out: List[Effect] = []
        if timer_id[0] == "lease":
            _, key, holder = timer_id
            if holder in self._leases.get(key, ()):
                self.leases_expired += 1
                counts = self.observer.lease_expired
                if counts is None:
                    self.observer.emit(LEASE_EXPIRED, key=key, holder=holder)
                else:
                    counts["leases_expired"] += 1
                self._drop_holder(key, holder, out, cancel_timer=False)
        return out

    def _defer_transfer(self, frame: Message, out: List[Effect]) -> bool:
        """Whether a drain transfer must wait for lease holders to clear.

        A migrated key's new owner group knows nothing about leases granted
        here, so cutting a leased key over would let writes apply at the
        receiver while a proxy still serves the key from cache.  Chasing the
        holders and withholding the transfer ack (which gates the range's
        install, and therefore the receiver serving the key at all) closes
        that hole; the control plane's retry timer re-asks after the
        holders release.
        """
        payload = unpack_drain_transfer(frame)
        invalidations: Dict[str, List[str]] = {}
        for key in payload["keys"]:
            holders = self._leases.get(key)
            if not holders:
                continue
            chased = self._invalidated.setdefault(key, set())
            for holder in sorted(holders - chased):
                chased.add(holder)
                invalidations.setdefault(holder, []).append(key)
        self._chase(invalidations, out)
        return bool(invalidations) or any(
            self._leases.get(key) for key in payload["keys"]
        )

    def _chase(self, invalidations: Dict[str, List[str]], out: List[Effect]) -> None:
        """One ``lease-invalidate`` frame per holder, naming its keys."""
        for target, keys in invalidations.items():
            counts = self.observer.frame_sent
            if counts is None:
                self.observer.emit(FRAME_SENT, kind="lease-invalidate", dest=target)
            else:
                counts["frames_sent"] += 1
            out.append(
                SendFrame(
                    target, make_lease_invalidate(self.server_id, target, keys)
                )
            )

    # -- the incremental drain protocol (control plane -> this replica) ----------
    #
    # Every handler is idempotent: the control plane retries unacked frames
    # on a timer, so a frame can arrive twice (or after a duplicate raced a
    # slow ack) and must leave the same state behind.

    def _drain_ack(self, message: Message, kind: str,
                   extra: Optional[Dict[str, Any]] = None) -> Message:
        payload = {
            "mig": message.payload["mig"],
            "token": message.payload["token"],
            "shard": message.payload["shard"],
        }
        if extra:
            payload.update(extra)
        counts = self.observer.frame_sent
        if counts is None:
            self.observer.emit(FRAME_SENT, kind=kind, dest=message.sender)
        else:
            counts["frames_sent"] += 1
        return self.reply(message, kind, payload)

    def _handle_drain_fence(self, message: Message) -> Message:
        """Fence a donor shard and answer with this replica's key census.

        The epoch only moves forward (``max``), so duplicated or reordered
        fence frames cannot roll a shard back behind a later rebalance.
        Once the fence is applied, no sub-request can create or mutate a
        register under the old epoch, so the census in the ack is complete
        for this replica.
        """
        p = unpack_drain_fence(message)
        hosted = self._shards.get(p["shard"])
        if hosted is not None:
            hosted.epoch = max(hosted.epoch, p["epoch"])
            keys = sorted(hosted.registers)
        else:
            keys = []
        return self._drain_ack(
            message, DRAIN_FENCE_ACK_KIND,
            {"epoch": self.hosted_epoch(p["shard"]), "keys": keys},
        )

    def _handle_drain_host(self, message: Message) -> Message:
        """Start hosting a receiver shard with its incoming keys pending.

        Unlike :meth:`host_shard` this never replaces existing registers:
        a retried host frame on a replica that already absorbed some ranges
        must not wipe them, and the ``installed`` set keeps already-arrived
        keys from going pending again.
        """
        p = unpack_drain_host(message)
        hosted = self._shards.get(p["shard"])
        if hosted is None:
            hosted = _HostedShard(epoch=p["epoch"])
            self._shards[p["shard"]] = hosted
        else:
            hosted.epoch = max(hosted.epoch, p["epoch"])
        hosted.pending |= set(p["keys"]) - hosted.installed
        return self._drain_ack(message, DRAIN_ACK_KIND)

    def _handle_drain_transfer(self, message: Message) -> Message:
        """Export (copies of) one key range's register state.

        The registers stay in place until ``drain-complete`` -- exporting a
        copy keeps the transfer idempotent and the donor authoritative if
        the migration has to retry.  Keys with no materialized register here
        are simply absent from the ack; the control plane still clears them
        from the paired receiver's pending set via the install frame's
        explicit key list.
        """
        p = unpack_drain_transfer(message)
        hosted = self._shards.get(p["shard"])
        states: Dict[str, Dict[str, Any]] = {}
        if hosted is not None:
            for key in p["keys"]:
                logic = hosted.registers.get(key)
                if logic is not None:
                    states[key] = logic.export_state()
        return self._drain_ack(
            message, DRAIN_TRANSFER_ACK_KIND, {"states": states}
        )

    def _handle_drain_install(self, message: Message) -> Message:
        """Absorb one range's state blobs and un-pend every key of the range.

        ``absorb_state`` on a fresh register is a restore and merging the
        same blob twice is a no-op, so a duplicated install frame is
        harmless.  All of the range's keys leave ``pending`` -- including
        keys whose state existed on no donor replica paired with this one
        (a partial write): the per-replica pairing preserves exactly the
        replica counts the quorum-intersection arguments need.
        """
        p = unpack_drain_install(message)
        hosted = self._shards.get(p["shard"])
        if hosted is None:
            hosted = _HostedShard(epoch=p["epoch"])
            self._shards[p["shard"]] = hosted
        else:
            hosted.epoch = max(hosted.epoch, p["epoch"])
        absorbed = 0
        for key, blobs in p["states"].items():
            logic = self.register_for(p["shard"], key)
            for blob in blobs:
                logic.absorb_state(blob)
                absorbed += 1
        for key in p["keys"]:
            hosted.pending.discard(key)
            hosted.installed.add(key)
        return self._drain_ack(message, DRAIN_ACK_KIND, {"absorbed": absorbed})

    def _handle_drain_complete(self, message: Message) -> Message:
        """Finish a migration at this replica (donor or receiver role)."""
        p = unpack_drain_complete(message)
        hosted = self._shards.get(p["shard"])
        if hosted is not None:
            for key in p["drop_keys"]:
                hosted.registers.pop(key, None)
            hosted.pending.clear()
            hosted.installed.clear()
            if p["evict"]:
                self.evict_shard(p["shard"])
        return self._drain_ack(message, DRAIN_ACK_KIND)

    _DRAIN_HANDLERS = {
        DRAIN_FENCE_KIND: _handle_drain_fence,
        DRAIN_HOST_KIND: _handle_drain_host,
        DRAIN_TRANSFER_KIND: _handle_drain_transfer,
        DRAIN_INSTALL_KIND: _handle_drain_install,
        DRAIN_COMPLETE_KIND: _handle_drain_complete,
    }
