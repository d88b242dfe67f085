"""The control-plane engine: incremental key-range drains and autoscaling.

:class:`ControlPlaneEngine` is the fourth sans-I/O engine of the kvstore
core.  It owns the authoritative :class:`~repro.kvstore.sharding.ShardMap`
and turns ``resize()``/``move_shard()`` metadata flips into a *frame-based*
data migration: instead of transplanting every register object in one
synchronous critical section (the old single-process drain), it speaks the
``drain-*`` frame family of :mod:`repro.messages` to the group-server
replicas and moves one key **range** at a time.  Client ops on keys outside
the range in flight keep completing throughout, so the cutover pause a
migration imposes on the cluster is bounded by ``drain_range_size``, not by
shard size.

One migration runs through five stages, advancing whenever the outstanding
acks of the current stage are all in (or given up on):

1. **fencing** -- every donor replica gets a ``drain-fence`` carrying the
   post-flip epoch; its ack returns the replica's key census.  Once fenced,
   no request can create or mutate a donor register, so the census is
   complete.
2. **hosting** -- the censuses are routed through the *plan's* ring to find
   each moved key's new owner; every receiver replica gets a ``drain-host``
   listing its incoming keys, which it marks *pending* (requests for them
   bounce like a stale epoch until their range installs -- this is what
   keeps a fresh empty register from ever shadowing live donor state).
3. **draining** -- the moved keys are chunked into sorted ranges of
   ``drain_range_size``; ranges run sequentially, but within a range all
   replica indexes run in parallel: ``drain-transfer`` exports copies of
   the range's register state from donor replica *i*, then ``drain-install``
   delivers them to receiver replica *i*.  Index pairing preserves "value
   on >= S-t replicas" and with it every quorum-intersection argument.  A
   dead donor replica's paired receiver instead absorbs the merged blobs of
   all live donors (counts only grow, so the bound still holds); a dead
   receiver replica is skipped (it is one of the t faults the quorum
   already tolerates).
4. **completing** -- donors drop (growth) or evict (shrink/move) the moved
   registers; receivers clear their pending/installed bookkeeping.
5. **done** -- the :class:`~repro.kvstore.migration.MigrationReport` gets
   its final counters and its ``on_done`` callbacks fire.

Metadata flips *synchronously* at ``start_resize``/``start_move`` (callers
immediately see the new shard set, and view pushes go out in the returned
effects), but the drains themselves are **serialized**: a rebalance
requested while another is draining queues behind it.  Serialization is
what lets each drain trust its own census -- the next migration's fences
see everything the previous one installed.

The engine also embeds the metrics-driven **autoscaler**: the adapter feeds
per-shard served-op counts into :meth:`record_op` (e.g. from ``sub.served``
trace events) and arms the ``("autoscale",)`` timer; each tick folds the
counts per group and, when the hottest group's load exceeds
``autoscale_ratio`` times the mean, moves that group's hottest shard to the
coldest group -- chasing a moving hotspot with ordinary ``start_move``
migrations.

Like every engine here it is pure: frames and timer fires in, effects out,
no transport, runtime, or clock anywhere.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from ...messages import (
    DRAIN_ACK_KIND,
    DRAIN_FENCE_ACK_KIND,
    DRAIN_TRANSFER_ACK_KIND,
    VIEW_PUSH_ACK_KIND,
    Message,
    make_drain_complete,
    make_drain_fence,
    make_drain_host,
    make_drain_install,
    make_drain_transfer,
)
from ...observe.events import (
    AUTOSCALE_ACTION,
    DRAIN_COMPLETED,
    DRAIN_RANGE_CLOSED,
    DRAIN_RANGE_OPENED,
    DRAIN_STARTED,
    FRAME_RECEIVED,
    FRAME_SENT,
    NULL_OBSERVER,
    SUB_SERVED,
    BoundHandler,
    EngineObserver,
)
from ..migration import MigrationReport
from ..placement import pick_coldest_group
from ..sharding import HashRing, ResizePlan, ShardMap
from .effects import CancelTimer, Effect, SendFrame, StartTimer, TimerId
from .routing import CONTROL_PLANE, view_push_frames

__all__ = [
    "DRAIN_RANGE_SIZE",
    "DRAIN_RETRY_DELAY",
    "DRAIN_MAX_RETRIES",
    "AUTOSCALE_INTERVAL",
    "AUTOSCALE_RATIO",
    "AUTOSCALE_MIN_OPS",
    "AutoscaleFeed",
    "ControlPlaneEngine",
]

#: Keys per drained range.  The knob that trades migration duration (more
#: ranges, more round trips) against the per-range cutover pause (bigger
#: transfer/install frames occupy a replica for longer).
DRAIN_RANGE_SIZE = 64

#: How long to wait for a drain ack before resending, and how many resends
#: before declaring the replica dead for this migration.  In the adapter's
#: time unit -- each backend passes its own.
DRAIN_RETRY_DELAY = 0.2
DRAIN_MAX_RETRIES = 5

#: Autoscaler defaults: fold served-op counts every ``interval``, act when
#: the hottest group carries more than ``ratio`` times the mean group load,
#: and never act on fewer than ``min_ops`` ops per window (a quiet cluster
#: is never "imbalanced").
AUTOSCALE_INTERVAL = 100.0
AUTOSCALE_RATIO = 1.5
AUTOSCALE_MIN_OPS = 50


class AutoscaleFeed:
    """An observer sink piping served-op counts into the autoscaler.

    Every ``sub.served`` event carries the shard that served it; the
    control engine folds them per group at each autoscale tick.  Both
    backends subscribe one of these to their observer hub -- the PR-6
    metrics stream feeding the control plane, with no new plumbing.
    """

    def __init__(self, engine: "ControlPlaneEngine") -> None:
        self.engine = engine

    def bind(
        self, tier: str, component: str, kind: str, now: Callable[[], float],
    ) -> Optional[BoundHandler]:
        """Hub sink hook: a handler for ``sub.served``, no other kind."""
        if kind != SUB_SERVED:
            return None
        record_op = self.engine.record_op

        def served(op_id, key, trace, attrs):
            shard = attrs.get("shard")
            if shard is not None:
                record_op(shard)

        return served


@dataclass
class _Range:
    """One drained key range: a chunk of one donor->receiver key flow."""

    index: int
    donor: str
    target: str
    keys: List[str]


@dataclass
class _Outstanding:
    """One unacked drain frame: resent on timer, given up after retries."""

    token: str
    mig: "_Migration"
    destination: str
    frame: Message
    retries: int = 0


class _Migration:
    """The full state of one queued or draining migration."""

    def __init__(
        self,
        mig_id: str,
        kind: str,
        report: MigrationReport,
        ring: Optional[HashRing],
    ) -> None:
        self.mig_id = mig_id
        self.kind = kind                      # "resize" | "move"
        self.report = report
        self.ring = ring                      # routes moved keys (resize only)
        self.move_target: Optional[str] = None
        # Donor shards: replica servers (index-paired with receivers), the
        # epoch each donor fences at, and whether it is evicted at the end.
        self.donors: Dict[str, List[str]] = {}
        self.donor_epochs: Dict[str, int] = {}
        self.donor_evict: Dict[str, bool] = {}
        # Receiver shards: (epoch, replica servers).
        self.receivers: Dict[str, Tuple[int, List[str]]] = {}
        self.stage = "queued"
        self.waiting: Set[str] = set()
        self.census: Dict[Tuple[str, str], List[str]] = {}
        self.transfer_states: Dict[str, Dict[str, Any]] = {}
        self.ranges: List[_Range] = []
        self.range_index = 0
        self.moved_keys: Set[str] = set()
        self.registers_moved = 0
        self.dead: Set[str] = set()
        self.pending_by_receiver: Dict[str, Set[str]] = {}
        self.drop_by_donor: Dict[str, Set[str]] = {}


class ControlPlaneEngine:
    """Sans-I/O control plane: metadata flips, incremental drains, autoscaling.

    The adapter registers the engine at ``control_id`` on its transport,
    delivers every frame addressed there to :meth:`on_frame`, executes the
    returned effects, and routes timer fires to :meth:`on_timer`.
    ``proxy_ids`` is the live proxy set view pushes go to; backends update
    it in place as proxies come and go.
    """

    def __init__(
        self,
        shard_map: ShardMap,
        *,
        control_id: str = CONTROL_PLANE,
        proxy_ids: Sequence[str] = (),
        drain_range_size: int = DRAIN_RANGE_SIZE,
        retry_delay: float = DRAIN_RETRY_DELAY,
        max_retries: int = DRAIN_MAX_RETRIES,
        autoscale_interval: float = AUTOSCALE_INTERVAL,
        autoscale_ratio: float = AUTOSCALE_RATIO,
        autoscale_min_ops: int = AUTOSCALE_MIN_OPS,
        observer: Optional[EngineObserver] = None,
    ) -> None:
        if drain_range_size < 1:
            raise ValueError("drain_range_size must be positive")
        self.shard_map = shard_map
        self.control_id = control_id
        self.proxy_ids: List[str] = list(proxy_ids)
        self.drain_range_size = drain_range_size
        self.retry_delay = retry_delay
        self.max_retries = max_retries
        self.autoscale_interval = autoscale_interval
        self.autoscale_ratio = autoscale_ratio
        self.autoscale_min_ops = autoscale_min_ops
        self.observer = observer if observer is not None else NULL_OBSERVER

        self._queue: Deque[_Migration] = deque()
        self._outstanding: Dict[str, _Outstanding] = {}
        self._mig_seq = 0
        self._token_seq = 0

        self.view_pushes_sent = 0
        self.view_push_acks = 0
        self.drains_started = 0
        self.drains_completed = 0
        self.ranges_drained = 0

        self._autoscaling = False
        self._op_counts: Dict[str, int] = {}
        self.autoscale_actions: List[Dict[str, Any]] = []

    # -- introspection ----------------------------------------------------------

    @property
    def busy(self) -> bool:
        """True while any migration is draining or queued."""
        return bool(self._queue)

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    # -- rebalance entry points -------------------------------------------------

    def start_resize(
        self, new_num_shards: int
    ) -> Tuple[MigrationReport, List[Effect]]:
        """Resize the map (synchronously) and queue the incremental drain.

        The returned report's shard-set fields are final immediately; its
        data counters fill when the drain completes (``report.on_done``).
        The returned effects carry the view pushes plus -- when no other
        migration is draining -- the first fence frames.
        """
        plan = self.shard_map.resize(new_num_shards)
        report = MigrationReport(
            shards_added=[spec.shard_id for spec in plan.added],
            shards_removed=[spec.shard_id for spec in plan.removed],
            shards_fenced=sorted(plan.fenced),
        )
        effects = self._push_views(plan)
        mig = self._build_resize(plan, report)
        if mig is None:
            report._complete()
            return report, effects
        effects.extend(self._enqueue(mig))
        return report, effects

    def start_move(
        self, shard_id: str, group_id: str
    ) -> Tuple[MigrationReport, List[Effect]]:
        """Re-home one shard (synchronously) and queue its drain."""
        plan = self.shard_map.move_shard(shard_id, group_id)
        report = MigrationReport(shards_fenced=[shard_id])
        effects = self._push_views(plan)
        if plan.old_group.group_id == plan.new_group.group_id:
            report._complete()
            return report, effects
        mig = _Migration(self._next_mig_id(), "move", report, ring=None)
        mig.move_target = shard_id
        mig.donors[shard_id] = list(plan.old_group.servers)
        mig.donor_epochs[shard_id] = plan.spec.epoch
        mig.donor_evict[shard_id] = True
        mig.receivers[shard_id] = (plan.spec.epoch, list(plan.new_group.servers))
        effects.extend(self._enqueue(mig))
        return report, effects

    def _push_views(self, plan) -> List[Effect]:
        frames = view_push_frames(
            self.shard_map, self.proxy_ids, plan=plan, sender=self.control_id,
        )
        self.view_pushes_sent += len(frames)
        return [SendFrame(frame.receiver, frame) for frame in frames]

    def _next_mig_id(self) -> str:
        self._mig_seq += 1
        return f"m{self._mig_seq}"

    def _build_resize(
        self, plan: ResizePlan, report: MigrationReport
    ) -> Optional[_Migration]:
        if not plan.added and not plan.removed and not plan.fenced:
            return None
        mig = _Migration(self._next_mig_id(), "resize", report, ring=plan.new_ring)
        if plan.added:
            # Growth: the fenced survivors donate the stolen arcs; every
            # added shard is a receiver (hosted even if no keys move yet).
            for shard_id, epoch in plan.fenced.items():
                spec = self.shard_map.shards[shard_id]
                mig.donors[shard_id] = list(spec.group.servers)
                mig.donor_epochs[shard_id] = epoch
                mig.donor_evict[shard_id] = False
            for spec in plan.added:
                mig.receivers[spec.shard_id] = (spec.epoch, list(spec.group.servers))
        else:
            # Shrink: the removed shards donate everything (their replicas
            # fence one past the final epoch and are evicted at the end);
            # the fenced arc-receiving survivors are the receivers.
            for spec in plan.removed:
                mig.donors[spec.shard_id] = list(spec.group.servers)
                mig.donor_epochs[spec.shard_id] = spec.epoch
                mig.donor_evict[spec.shard_id] = True
            for shard_id, epoch in plan.fenced.items():
                spec = self.shard_map.shards[shard_id]
                mig.receivers[shard_id] = (epoch, list(spec.group.servers))
        return mig

    def _enqueue(self, mig: _Migration) -> List[Effect]:
        self._queue.append(mig)
        if len(self._queue) == 1:
            return self._begin(mig)
        return []

    # -- frame and timer input --------------------------------------------------

    def on_frame(self, frame: Message) -> List[Effect]:
        """Consume one frame addressed to the control plane."""
        if frame.kind == VIEW_PUSH_ACK_KIND:
            self.view_push_acks += 1
            return []
        if frame.kind in (
            DRAIN_ACK_KIND, DRAIN_FENCE_ACK_KIND, DRAIN_TRANSFER_ACK_KIND
        ):
            return self._on_drain_ack(frame)
        return []  # tolerate strays (late acks of kinds we no longer track)

    def _on_drain_ack(self, frame: Message) -> List[Effect]:
        token = frame.payload.get("token")
        pending = self._outstanding.pop(token, None)
        if pending is None:
            return []  # duplicate or given-up ack
        counts = self.observer.frame_received
        if counts is None:
            self.observer.emit(FRAME_RECEIVED, kind=frame.kind, source=frame.sender)
        else:
            counts["frames_received"] += 1
        mig = pending.mig
        effects: List[Effect] = [CancelTimer(("drain", token))]
        if frame.kind == DRAIN_FENCE_ACK_KIND:
            shard = frame.payload.get("shard")
            mig.census[(shard, frame.sender)] = list(frame.payload.get("keys", ()))
        elif frame.kind == DRAIN_TRANSFER_ACK_KIND:
            mig.transfer_states[frame.sender] = dict(
                frame.payload.get("states", {})
            )
        mig.waiting.discard(token)
        if not mig.waiting and self._queue and self._queue[0] is mig:
            effects.extend(self._advance(mig))
        return effects

    def on_timer(self, timer_id: TimerId) -> List[Effect]:
        """Consume one timer fire (drain retry or autoscale tick)."""
        if not timer_id:
            return []
        if timer_id[0] == "autoscale":
            return self._autoscale_tick()
        if timer_id[0] != "drain":
            return []
        pending = self._outstanding.get(timer_id[1])
        if pending is None:
            return []
        pending.retries += 1
        if pending.retries > self.max_retries:
            # The replica is unreachable: give up on it for the rest of
            # this migration.  The drain is built to survive up to t dead
            # replicas per group, the same bound the quorums tolerate.
            del self._outstanding[pending.token]
            mig = pending.mig
            mig.dead.add(pending.destination)
            mig.waiting.discard(pending.token)
            if not mig.waiting and self._queue and self._queue[0] is mig:
                return self._advance(mig)
            return []
        counts = self.observer.frame_sent
        if counts is None:
            self.observer.emit(
                FRAME_SENT, kind=pending.frame.kind, dest=pending.destination,
                retry=pending.retries,
            )
        else:
            counts["frames_sent"] += 1
        return [
            SendFrame(pending.destination, pending.frame),
            StartTimer(("drain", pending.token), self.retry_delay),
        ]

    # -- the drain state machine ------------------------------------------------

    def _send(
        self, mig: _Migration, destination: str, frame: Message
    ) -> List[Effect]:
        if destination in mig.dead:
            return []
        token = frame.payload["token"]
        self._outstanding[token] = _Outstanding(
            token=token, mig=mig, destination=destination, frame=frame
        )
        mig.waiting.add(token)
        counts = self.observer.frame_sent
        if counts is None:
            self.observer.emit(FRAME_SENT, kind=frame.kind, dest=destination)
        else:
            counts["frames_sent"] += 1
        return [
            SendFrame(destination, frame),
            StartTimer(("drain", token), self.retry_delay),
        ]

    def _token(self) -> str:
        self._token_seq += 1
        return f"t{self._token_seq}"

    def _advance(self, mig: _Migration) -> List[Effect]:
        if mig.stage == "fencing":
            return self._enter_hosting(mig)
        if mig.stage == "hosting":
            mig.range_index = 0
            return self._enter_transfer(mig)
        if mig.stage == "transfer":
            return self._enter_install(mig)
        if mig.stage == "install":
            return self._close_range(mig)
        if mig.stage == "completing":
            return self._finish(mig)
        return []

    def _begin(self, mig: _Migration) -> List[Effect]:
        mig.stage = "fencing"
        self.drains_started += 1
        self.observer.emit(
            DRAIN_STARTED, mig=mig.mig_id, kind=mig.kind,
            donors=sorted(mig.donors), receivers=sorted(mig.receivers),
        )
        effects: List[Effect] = []
        for shard, servers in mig.donors.items():
            epoch = mig.donor_epochs[shard]
            for server in servers:
                effects.extend(self._send(mig, server, make_drain_fence(
                    self.control_id, server, mig.mig_id, self._token(),
                    shard, epoch,
                )))
        if not mig.waiting:
            effects.extend(self._advance(mig))
        return effects

    def _enter_hosting(self, mig: _Migration) -> List[Effect]:
        # Union each donor's censuses across its replicas (replicas may
        # hold different key sets after crashes or partial writes), then
        # route every key through the plan's ring to find its new owner.
        mig.stage = "hosting"
        flows: Dict[Tuple[str, str], Set[str]] = {}
        for shard in mig.donors:
            union: Set[str] = set()
            for server in mig.donors[shard]:
                union.update(mig.census.get((shard, server), ()))
            for key in union:
                target = (
                    mig.move_target if mig.move_target is not None
                    else mig.ring.owner_of(key)
                )
                if target == shard and mig.move_target is None:
                    continue  # the key's arc did not move
                flows.setdefault((shard, target), set()).add(key)
                mig.moved_keys.add(key)
                mig.drop_by_donor.setdefault(shard, set()).add(key)
                mig.pending_by_receiver.setdefault(target, set()).add(key)
        index = 0
        for donor, target in sorted(flows):
            keys = sorted(flows[(donor, target)])
            for start in range(0, len(keys), self.drain_range_size):
                mig.ranges.append(_Range(
                    index=index, donor=donor, target=target,
                    keys=keys[start:start + self.drain_range_size],
                ))
                index += 1
        effects: List[Effect] = []
        for target, (epoch, servers) in mig.receivers.items():
            keys = sorted(mig.pending_by_receiver.get(target, ()))
            for server in servers:
                effects.extend(self._send(mig, server, make_drain_host(
                    self.control_id, server, mig.mig_id, self._token(),
                    target, epoch, keys,
                )))
        if not mig.waiting:
            effects.extend(self._advance(mig))
        return effects

    def _enter_transfer(self, mig: _Migration) -> List[Effect]:
        if mig.range_index >= len(mig.ranges):
            return self._enter_completing(mig)
        rng = mig.ranges[mig.range_index]
        mig.stage = "transfer"
        mig.transfer_states = {}
        self.observer.emit(
            DRAIN_RANGE_OPENED, mig=mig.mig_id, range=rng.index,
            shard=rng.donor, target=rng.target, size=len(rng.keys),
        )
        effects: List[Effect] = []
        for server in mig.donors[rng.donor]:
            effects.extend(self._send(mig, server, make_drain_transfer(
                self.control_id, server, mig.mig_id, self._token(),
                rng.donor, rng.keys,
            )))
        if not mig.waiting:
            effects.extend(self._advance(mig))
        return effects

    def _enter_install(self, mig: _Migration) -> List[Effect]:
        rng = mig.ranges[mig.range_index]
        mig.stage = "install"
        epoch, servers = mig.receivers[rng.target]
        donor_servers = mig.donors[rng.donor]
        merged: Optional[Dict[str, List[Dict[str, Any]]]] = None
        effects: List[Effect] = []
        for index, server in enumerate(servers):
            if server in mig.dead:
                continue
            donor = donor_servers[index] if index < len(donor_servers) else None
            if donor is not None and donor in mig.transfer_states:
                states: Dict[str, List[Dict[str, Any]]] = {
                    key: [blob]
                    for key, blob in mig.transfer_states[donor].items()
                }
            else:
                # The paired donor replica is dead: deliver the merged
                # blobs of every live donor instead.  The receiver replica
                # ends up with at least as much state as any donor had, so
                # per-key replica counts (and quorum intersection) only
                # improve.
                if merged is None:
                    merged = {}
                    for acked in mig.transfer_states.values():
                        for key, blob in acked.items():
                            merged.setdefault(key, []).append(blob)
                states = merged
            mig.registers_moved += len(states)
            effects.extend(self._send(mig, server, make_drain_install(
                self.control_id, server, mig.mig_id, self._token(),
                rng.target, epoch, rng.keys, states,
            )))
        if not mig.waiting:
            effects.extend(self._advance(mig))
        return effects

    def _close_range(self, mig: _Migration) -> List[Effect]:
        rng = mig.ranges[mig.range_index]
        self.ranges_drained += 1
        self.observer.emit(
            DRAIN_RANGE_CLOSED, mig=mig.mig_id, range=rng.index,
            shard=rng.donor, target=rng.target, size=len(rng.keys),
        )
        mig.range_index += 1
        return self._enter_transfer(mig)

    def _enter_completing(self, mig: _Migration) -> List[Effect]:
        mig.stage = "completing"
        effects: List[Effect] = []
        for shard, servers in mig.donors.items():
            drop = sorted(mig.drop_by_donor.get(shard, ()))
            evict = mig.donor_evict.get(shard, False)
            for server in servers:
                effects.extend(self._send(mig, server, make_drain_complete(
                    self.control_id, server, mig.mig_id, self._token(),
                    shard, drop, evict,
                )))
        for target, (_epoch, servers) in mig.receivers.items():
            for server in servers:
                effects.extend(self._send(mig, server, make_drain_complete(
                    self.control_id, server, mig.mig_id, self._token(),
                    target, (), False,
                )))
        if not mig.waiting:
            effects.extend(self._advance(mig))
        return effects

    def _finish(self, mig: _Migration) -> List[Effect]:
        mig.stage = "done"
        mig.report.keys_moved = len(mig.moved_keys)
        mig.report.registers_moved = mig.registers_moved
        self.drains_completed += 1
        self.observer.emit(
            DRAIN_COMPLETED, mig=mig.mig_id, kind=mig.kind,
            keys_moved=mig.report.keys_moved,
            registers_moved=mig.report.registers_moved,
            dead_replicas=sorted(mig.dead),
        )
        assert self._queue and self._queue[0] is mig
        self._queue.popleft()
        mig.report._complete()
        if self._queue:
            return self._begin(self._queue[0])
        return []

    # -- the autoscaler ---------------------------------------------------------

    def record_op(self, shard_id: str, count: int = 1) -> None:
        """Fold ``count`` served ops on ``shard_id`` into the current window.

        The adapter calls this from its metrics stream (one call per
        ``sub.served`` event, or batched); the autoscale tick consumes and
        resets the window.
        """
        self._op_counts[shard_id] = self._op_counts.get(shard_id, 0) + count

    @property
    def autoscaling(self) -> bool:
        return self._autoscaling

    def start_autoscaler(self) -> List[Effect]:
        """Arm the recurring autoscale tick."""
        self._autoscaling = True
        return [StartTimer(("autoscale",), self.autoscale_interval)]

    def stop_autoscaler(self) -> List[Effect]:
        """Disarm the tick (so an adapter's event loop can drain and stop)."""
        self._autoscaling = False
        return [CancelTimer(("autoscale",))]

    def _autoscale_tick(self) -> List[Effect]:
        if not self._autoscaling:
            return []
        effects: List[Effect] = [
            StartTimer(("autoscale",), self.autoscale_interval)
        ]
        window, self._op_counts = self._op_counts, {}
        if self.busy:
            return effects  # never stack migrations on top of a live drain
        shard_loads = {
            shard_id: count
            for shard_id, count in window.items()
            if shard_id in self.shard_map.shards
        }
        total = sum(shard_loads.values())
        if total < self.autoscale_min_ops:
            return effects
        group_loads: Dict[str, int] = {gid: 0 for gid in self.shard_map.groups}
        for shard_id, count in shard_loads.items():
            group_loads[self.shard_map.shards[shard_id].group.group_id] += count
        mean = total / len(group_loads)
        order = list(group_loads)
        hottest = max(order, key=lambda gid: (group_loads[gid], -order.index(gid)))
        if group_loads[hottest] <= self.autoscale_ratio * mean:
            return effects
        coldest = pick_coldest_group(group_loads, exclude=(hottest,))
        if coldest is None or group_loads[coldest] >= group_loads[hottest]:
            return effects
        hot_shards = [
            spec.shard_id for spec in self.shard_map.shards_on(hottest)
        ]
        if len(hot_shards) < 2:
            # Moving a group's only shard just relocates the hotspot; a
            # real fix would be a split (resize), which is the operator's
            # call, not the autoscaler's.
            return effects
        victim = max(
            hot_shards,
            key=lambda sid: (shard_loads.get(sid, 0), -hot_shards.index(sid)),
        )
        report, move_effects = self.start_move(victim, coldest)
        self.autoscale_actions.append({
            "shard": victim,
            "from": hottest,
            "to": coldest,
            "group_load": group_loads[hottest],
            "mean_load": mean,
            "window_ops": total,
            "report": report,
        })
        self.observer.emit(
            AUTOSCALE_ACTION, shard=victim, source=hottest, target=coldest,
            group_load=group_loads[hottest], mean_load=mean, window_ops=total,
        )
        effects.extend(move_effects)
        return effects
