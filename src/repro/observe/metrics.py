"""Counters, gauges, and fixed-bucket latency histograms.

The registry is keyed by ``(tier, component, name)`` so one registry serves a
whole cluster run: every client, proxy, and replica writes its own series and
``snapshot()`` aggregates them per tier for reporting.  Buckets are fixed and
geometric so histograms from different components (and different runs) merge
exactly; the span is wide enough to cover both simulator virtual-time units
and asyncio seconds.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .events import (
    AUTOSCALE_ACTION,
    BATCH_CUT,
    CACHE_HIT,
    CACHE_INVALIDATE,
    CACHE_MISS,
    DRAIN_COMPLETED,
    DRAIN_RANGE_CLOSED,
    DRAIN_RANGE_OPENED,
    DRAIN_STARTED,
    FAILOVER_HOP,
    FRAME_RECEIVED,
    FRAME_SENT,
    LEASE_EXPIRED,
    LEASE_GRANTED,
    OP_COMPLETED,
    OP_FAILED,
    OP_INVOKED,
    ROUND_CLOSED,
    ROUND_OPENED,
    ROUND_REPLAYED,
    ROUND_WIDENED,
    STALE_BOUNCE,
    SUB_SERVED,
    TIMER_ARMED,
    TIMER_CANCELLED,
    TIMER_FIRED,
    BoundHandler,
    TraceEvent,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "MetricsObserver",
    "KIND_METRICS",
    "validate_metrics_snapshot",
    "REQUIRED_TIER_KEYS",
]

# Geometric bucket upper bounds: 1e-5 .. ~5.5e6 doubling each step.  Asyncio
# op latencies land around 1e-3..1 s, simulator ones around 1..1e3 virtual
# units; both fit with room on either side.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(1e-5 * (2.0 ** i) for i in range(40))


class Histogram:
    """A fixed-bucket histogram with exact merge and estimated percentiles."""

    __slots__ = ("bounds", "counts", "count", "total", "minimum", "maximum")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.bounds: Tuple[float, ...] = tuple(bounds)
        # counts[i] tallies values <= bounds[i]; the final slot is overflow.
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        # First bound >= value; past the last bound is the overflow slot.
        self.counts[bisect_left(self.bounds, value)] += 1

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.total += other.total
        if other.minimum is not None:
            self.minimum = (other.minimum if self.minimum is None
                            else min(self.minimum, other.minimum))
        if other.maximum is not None:
            self.maximum = (other.maximum if self.maximum is None
                            else max(self.maximum, other.maximum))

    def percentile(self, p: float) -> float:
        """Estimate the p-th percentile by interpolating within a bucket."""
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100]")
        if self.count == 0:
            return 0.0
        target = (p / 100.0) * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= target and bucket_count:
                lower = self.bounds[i - 1] if i > 0 else 0.0
                upper = (self.bounds[i] if i < len(self.bounds)
                         else (self.maximum or lower))
                frac = (target - (cumulative - bucket_count)) / bucket_count
                estimate = lower + (upper - lower) * frac
                break
        else:  # pragma: no cover - counts always sum to self.count
            estimate = self.maximum or 0.0
        # Clamp to the observed range: interpolation never beats exact bounds.
        if self.minimum is not None:
            estimate = max(estimate, self.minimum)
        if self.maximum is not None:
            estimate = min(estimate, self.maximum)
        return estimate

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.minimum if self.minimum is not None else 0.0,
            "max": self.maximum if self.maximum is not None else 0.0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Counters, gauges, and histograms keyed by ``(tier, component, name)``.

    The counters :data:`KIND_METRICS` names live in per-scope *slots*
    (:meth:`slots`): one dict per ``(tier, component)``, so an engine can
    add to a quiet kind's counter without a call.  Every reader folds the
    slots in; a slot shows once it is non-zero.
    """

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, str, str], float] = {}
        self._gauges: Dict[Tuple[str, str, str], float] = {}
        self._histograms: Dict[Tuple[str, str, str], Histogram] = {}
        self._slots: Dict[Tuple[str, str], Dict[str, int]] = {}

    # -- writers --------------------------------------------------------------

    def counter(self, tier: str, component: str, name: str, delta: float = 1) -> None:
        key = (tier, component, name)
        self._counters[key] = self._counters.get(key, 0) + delta

    def declare_counter(self, tier: str, component: str, name: str) -> None:
        """Ensure a counter exists (at zero) so snapshots have stable keys."""
        self._counters.setdefault((tier, component, name), 0)

    def slots(self, tier: str, component: str) -> Dict[str, int]:
        """The scope's count slots: every event-kind counter, from zero."""
        scope = (tier, component)
        slots = self._slots.get(scope)
        if slots is None:
            slots = self._slots[scope] = dict.fromkeys(_SLOT_COUNTERS, 0)
        return slots

    def gauge(self, tier: str, component: str, name: str, value: float) -> None:
        self._gauges[(tier, component, name)] = value

    def histogram(self, tier: str, component: str, name: str) -> Histogram:
        key = (tier, component, name)
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = Histogram()
        return hist

    def observe(self, tier: str, component: str, name: str, value: float) -> None:
        self.histogram(tier, component, name).observe(value)

    # -- readers --------------------------------------------------------------

    def counts(self) -> Dict[Tuple[str, str, str], float]:
        """Every counter by ``(tier, component, name)``, slots folded in."""
        counts = dict(self._counters)
        for (tier, component), slots in self._slots.items():
            for name, value in slots.items():
                if value:
                    key = (tier, component, name)
                    counts[key] = counts.get(key, 0) + value
        return counts

    def counter_value(self, tier: str, name: str, component: Optional[str] = None) -> float:
        """Sum of one counter across every component of a tier (or one)."""
        return sum(v for (t, c, n), v in self.counts().items()
                   if t == tier and n == name and (component is None or c == component))

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's series into this one (same keys add)."""
        for key, value in other._counters.items():
            self._counters[key] = self._counters.get(key, 0) + value
        for (tier, component), slots in other._slots.items():
            mine = self.slots(tier, component)
            for name, value in slots.items():
                mine[name] += value
        self._gauges.update(other._gauges)
        for key, hist in other._histograms.items():
            tier, component, name = key
            self.histogram(tier, component, name).merge(hist)

    def snapshot(self) -> Dict[str, Any]:
        """Aggregate all series per tier: counters sum, histograms merge."""
        tiers: Dict[str, Any] = {}

        def tier_entry(tier: str) -> Dict[str, Any]:
            return tiers.setdefault(
                tier, {"counters": {}, "gauges": {}, "histograms": {}}
            )

        for (tier, _component, name), value in sorted(self.counts().items()):
            counters = tier_entry(tier)["counters"]
            counters[name] = counters.get(name, 0) + value
        for (tier, component, name), value in sorted(self._gauges.items()):
            tier_entry(tier)["gauges"][f"{component}.{name}"] = value
        merged: Dict[Tuple[str, str], Histogram] = {}
        for (tier, _component, name), hist in sorted(self._histograms.items()):
            target = merged.get((tier, name))
            if target is None:
                target = merged[(tier, name)] = Histogram(hist.bounds)
            target.merge(hist)
        for (tier, name), hist in merged.items():
            tier_entry(tier)["histograms"][name] = hist.as_dict()
        return tiers

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


# -- event -> metric translation ----------------------------------------------

# Counters every component of a tier is expected to report even when zero;
# seeded on the first event from a (tier, component) so snapshots keep a
# stable schema regardless of what a particular run exercised.
_BASELINE_COUNTERS: Dict[str, Tuple[str, ...]] = {
    "client": (
        "ops_invoked", "ops_completed", "ops_failed",
        "reads_fast", "reads_slow",
        "rounds_opened", "rounds_widened", "rounds_replayed", "proxy_failovers",
        "frames_sent", "frames_received",
        "timers_armed", "timers_fired", "timers_cancelled",
    ),
    "proxy": (
        "rounds_opened", "rounds_closed", "rounds_widened", "rounds_replayed",
        "cache_hits", "cache_misses", "cache_invalidations",
        "leases_expired",
        "frames_sent", "frames_received",
        "timers_armed", "timers_fired", "timers_cancelled",
    ),
    "replica": (
        "subs_served", "stale_bounces",
        "leases_granted", "leases_expired",
        "frames_sent", "frames_received",
    ),
    "control": (
        "drains_started", "drains_completed", "ranges_drained",
        "autoscale_actions", "frames_sent", "frames_received",
        "timers_armed", "timers_fired", "timers_cancelled",
    ),
}

# Histograms seeded empty per tier for the same schema-stability reason.
_BASELINE_HISTOGRAMS: Dict[str, Tuple[str, ...]] = {
    "client": ("op_latency", "batch_size"),
    "proxy": ("op_latency", "batch_size"),
    "replica": ("batch_size",),
    "control": ("cutover_pause",),
}

#: What :func:`validate_metrics_snapshot` asks of each tier: exactly the
#: series seeding guarantees, so the two cannot drift.
REQUIRED_TIER_KEYS: Dict[str, Dict[str, Tuple[str, ...]]] = {
    tier: {"counters": counters, "histograms": _BASELINE_HISTOGRAMS.get(tier, ())}
    for tier, counters in _BASELINE_COUNTERS.items()
}

# An action is what an event kind does beyond bumping its counter: a
# :data:`BoundHandler` made once per (observer, tier, component) by one of the
# factories below, or None where the kind has nothing more to do on that
# tier.  ``now()`` is the event's timestamp and is called only on the paths
# that use one.
_ActionFactory = Callable[
    ["MetricsObserver", str, str, Callable[[], float]], Optional[BoundHandler]]


def _starts_op(observer: "MetricsObserver", tier: str, component: str,
               now: Callable[[], float]) -> BoundHandler:
    starts = observer._op_starts

    def start(op_id, key, trace, attrs):
        # Only the first start counts: a replayed round re-opens, and the
        # op's latency still spans from its first open.
        if op_id is not None:
            started = (tier, component, op_id)
            if started not in starts:
                starts[started] = now()

    return start


def _starts_proxy_op(observer: "MetricsObserver", tier: str, component: str,
                     now: Callable[[], float]) -> Optional[BoundHandler]:
    # A proxy's op runs from its first round.opened to round.closed; on the
    # client the op.invoked/op.completed pair already covers it.
    return _starts_op(observer, tier, component, now) if tier == "proxy" else None


def _finishes_op(observer: "MetricsObserver", tier: str, component: str,
                 now: Callable[[], float]) -> BoundHandler:
    starts = observer._op_starts
    latency = observer.registry.histogram(tier, component, "op_latency")

    def finish(op_id, key, trace, attrs):
        if op_id is not None:
            start = starts.pop((tier, component, op_id), None)
            if start is not None:
                latency.observe(now() - start)

    return finish


def _finishes_client_op(observer: "MetricsObserver", tier: str, component: str,
                        now: Callable[[], float]) -> BoundHandler:
    # A completed read also lands in ``reads_fast`` (its quorum agreed: one
    # round-trip) or ``reads_slow`` (a write-back, or a replayed round).
    finish = _finishes_op(observer, tier, component, now)
    registry = observer.registry
    registry.declare_counter(tier, component, "reads_fast")
    registry.declare_counter(tier, component, "reads_slow")
    counters = registry._counters
    fast, slow = (tier, component, "reads_fast"), (tier, component, "reads_slow")

    def finish_and_split(op_id, key, trace, attrs):
        finish(op_id, key, trace, attrs)
        if attrs.get("kind") == "read":
            counters[fast if attrs.get("round_trips") == 1 else slow] += 1

    return finish_and_split


def _sizes_batch(observer: "MetricsObserver", tier: str, component: str,
                 now: Callable[[], float]) -> BoundHandler:
    sizes = observer.registry.histogram(tier, component, "batch_size")

    def size_batch(op_id, key, trace, attrs):
        size = attrs.get("size")
        if size is not None:
            sizes.observe(size)

    return size_batch


def _opens_range(observer: "MetricsObserver", tier: str, component: str,
                 now: Callable[[], float]) -> BoundHandler:
    starts = observer._range_starts

    def open_range(op_id, key, trace, attrs):
        starts[(tier, component, attrs.get("mig"), attrs.get("range"))] = now()

    return open_range


def _closes_range(observer: "MetricsObserver", tier: str, component: str,
                  now: Callable[[], float]) -> BoundHandler:
    # The open->close gap of one drained range is the cutover pause that
    # range imposed on its keys: the drain holds them fenced from transfer
    # start until install completes.
    starts = observer._range_starts
    pauses = observer.registry.histogram(tier, component, "cutover_pause")

    def close_range(op_id, key, trace, attrs):
        start = starts.pop(
            (tier, component, attrs.get("mig"), attrs.get("range")), None)
        if start is not None:
            pauses.observe(now() - start)

    return close_range


#: The one event -> metric table: kind -> (counter it bumps, action it runs).
#: To add a metric, add or edit a row here (and, if every component of a tier
#: should report it even at zero, name it in the baseline tables above).  A
#: row with a counter and no action is one engines can count inline: listing
#: its kind in ``events.QUIET_KINDS`` and branching on the kind's slots at
#: every emit site is what takes it off ``emit`` (docs/architecture.md).
KIND_METRICS: Dict[str, Tuple[Optional[str], Optional[_ActionFactory]]] = {
    OP_INVOKED: ("ops_invoked", _starts_op),
    OP_COMPLETED: ("ops_completed", _finishes_client_op),
    OP_FAILED: ("ops_failed", _finishes_op),
    ROUND_OPENED: ("rounds_opened", _starts_proxy_op),
    ROUND_CLOSED: ("rounds_closed", _finishes_op),
    ROUND_REPLAYED: ("rounds_replayed", None),
    ROUND_WIDENED: ("rounds_widened", None),
    FRAME_SENT: ("frames_sent", None),
    FRAME_RECEIVED: ("frames_received", None),
    TIMER_ARMED: ("timers_armed", None),
    TIMER_FIRED: ("timers_fired", None),
    TIMER_CANCELLED: ("timers_cancelled", None),
    STALE_BOUNCE: ("stale_bounces", None),
    FAILOVER_HOP: ("proxy_failovers", None),
    BATCH_CUT: (None, _sizes_batch),
    SUB_SERVED: ("subs_served", None),
    CACHE_HIT: ("cache_hits", None),
    CACHE_MISS: ("cache_misses", None),
    CACHE_INVALIDATE: ("cache_invalidations", None),
    LEASE_GRANTED: ("leases_granted", None),
    LEASE_EXPIRED: ("leases_expired", None),
    DRAIN_STARTED: ("drains_started", None),
    DRAIN_COMPLETED: ("drains_completed", None),
    DRAIN_RANGE_OPENED: (None, _opens_range),
    DRAIN_RANGE_CLOSED: ("ranges_drained", _closes_range),
    AUTOSCALE_ACTION: ("autoscale_actions", None),
}

#: Every counter a row names: the slots of each scope (MetricsRegistry.slots).
_SLOT_COUNTERS: Tuple[str, ...] = tuple(
    counter for counter, _action in KIND_METRICS.values() if counter is not None)


class MetricsObserver:
    """A hub sink that folds engine events into a registry.

    Op latency is measured here, not in the engines: the first ``op.invoked``
    (client) or ``round.opened`` (proxy) for an op records its start
    timestamp, and the matching completion event turns the difference into an
    ``op_latency`` histogram sample.  Engines therefore stay clockless.

    The hub reaches it through :meth:`bind`, so no :class:`TraceEvent` is
    built for it; :meth:`handle` takes one for callers that have an event in
    hand and runs the very same handler.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._op_starts: Dict[Tuple[str, str, str], float] = {}
        self._range_starts: Dict[Tuple[str, str, Any, Any], float] = {}
        self._seeded: set = set()

    def bind(
        self, tier: str, component: str, kind: str, now: Callable[[], float],
    ) -> Optional[BoundHandler]:
        """The handler for one scope's events of one kind (hub sink hook).

        Called on the first such event, so this is also where a scope's
        baseline series are seeded.  ``None`` for a kind that maps to no
        metric.  A counter is an add to the scope's slot for it, and a
        handler that does nothing else carries the slots as ``counts``: the
        hub may then let the engine add to them itself.
        """
        registry = self.registry
        scope = (tier, component)
        if scope not in self._seeded:
            self._seeded.add(scope)
            for name in _BASELINE_COUNTERS.get(tier, ()):
                registry.declare_counter(tier, component, name)
            for name in _BASELINE_HISTOGRAMS.get(tier, ()):
                registry.histogram(tier, component, name)

        counter, make_action = KIND_METRICS.get(kind, (None, None))
        action = None if make_action is None else make_action(
            self, tier, component, now)
        if counter is None:
            return action

        slots = registry.slots(tier, component)
        if action is None:
            def count(op_id, key, trace, attrs):
                slots[counter] += 1
            count.counts = slots  # type: ignore[attr-defined]
            return count

        def count_and_act(op_id, key, trace, attrs):
            slots[counter] += 1
            action(op_id, key, trace, attrs)
        return count_and_act

    def handle(self, event: TraceEvent) -> None:
        """Fold one whole event: :meth:`bind`'s handler, at the event's ``ts``."""
        handler = self.bind(
            event.tier, event.component, event.kind, lambda: event.ts)
        if handler is not None:
            handler(event.op_id, event.key, event.trace, event.attrs)


# -- snapshot schema check ----------------------------------------------------

_HISTOGRAM_KEYS = ("count", "sum", "mean", "min", "max", "p50", "p95", "p99")


def validate_metrics_snapshot(
    snapshot: Dict[str, Any],
    require_tiers: Sequence[str] = ("client", "replica"),
) -> None:
    """Raise ``ValueError`` listing every schema violation in a snapshot.

    Used by the CI artifact check so exporter drift (a renamed counter, a
    dropped percentile key) fails fast instead of silently producing holes in
    BENCH_kv_metrics.json.
    """
    problems: List[str] = []
    for tier in require_tiers:
        if tier not in snapshot:
            problems.append(f"missing tier {tier!r}")
    for tier, entry in snapshot.items():
        spec = REQUIRED_TIER_KEYS.get(tier)
        if spec is None:
            continue
        counters = entry.get("counters", {})
        for name in spec["counters"]:
            if name not in counters:
                problems.append(f"{tier}: missing counter {name!r}")
        histograms = entry.get("histograms", {})
        for name in spec["histograms"]:
            hist = histograms.get(name)
            if hist is None:
                problems.append(f"{tier}: missing histogram {name!r}")
                continue
            for key in _HISTOGRAM_KEYS:
                if key not in hist:
                    problems.append(f"{tier}: histogram {name!r} missing {key!r}")
    if problems:
        raise ValueError("metrics snapshot schema: " + "; ".join(problems))
