"""Structured engine events and the observer seam.

The engines (:mod:`repro.kvstore.engine`) are pure state machines: they never
read a clock or touch a transport.  Observation follows the same discipline --
an engine is handed an :class:`EngineObserver` at construction and calls
``observer.emit(kind, ...)`` at protocol-significant points (round opened,
frame sent, stale bounce, ...).  The observer is supplied by the *adapter*,
which also owns the timestamp source, so the same engine run produces
virtual-clock timestamps on the simulator and wall-clock timestamps on
asyncio without the engine knowing the difference.

Emitting events must never perturb the engine's effect stream: observers only
record, they do not return anything the engine acts on.  The cross-backend
effect-trace equivalence tests run with and without observers attached to
enforce this.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "OP_INVOKED",
    "OP_COMPLETED",
    "OP_FAILED",
    "ROUND_OPENED",
    "ROUND_CLOSED",
    "ROUND_REPLAYED",
    "ROUND_WIDENED",
    "FRAME_SENT",
    "FRAME_RECEIVED",
    "TIMER_ARMED",
    "TIMER_FIRED",
    "TIMER_CANCELLED",
    "STALE_BOUNCE",
    "FAILOVER_HOP",
    "BATCH_CUT",
    "SUB_SERVED",
    "CACHE_HIT",
    "CACHE_MISS",
    "CACHE_INVALIDATE",
    "LEASE_GRANTED",
    "LEASE_EXPIRED",
    "DRAIN_STARTED",
    "DRAIN_COMPLETED",
    "DRAIN_RANGE_OPENED",
    "DRAIN_RANGE_CLOSED",
    "AUTOSCALE_ACTION",
    "EVENT_KINDS",
    "TraceEvent",
    "EngineObserver",
    "NULL_OBSERVER",
    "BoundHandler",
    "ObserverHub",
]

# -- event taxonomy -----------------------------------------------------------
#
# Op lifecycle (client tier): an application call enters the engine and later
# resolves.  Round lifecycle (client + proxy tiers): one quorum round of an
# op, possibly replayed after a stale-shard bounce.  Frame/timer events are
# the engine <-> adapter boundary; timer armed/fired/cancelled are emitted by
# the adapter because only it knows when a scheduled callback actually runs.

OP_INVOKED = "op.invoked"          # client accepted an application op
OP_COMPLETED = "op.completed"      # op resolved with a value
OP_FAILED = "op.failed"            # op resolved with an error
ROUND_OPENED = "round.opened"      # a quorum round was dispatched
ROUND_CLOSED = "round.closed"      # a proxy finished serving a sub-op
ROUND_REPLAYED = "round.replayed"  # a bounce, loss or timeout forced a replay
ROUND_WIDENED = "round.widened"    # a quorum-first round asked the whole group
FRAME_SENT = "frame.sent"          # a wire frame left this component
FRAME_RECEIVED = "frame.received"  # a wire frame arrived at this component
TIMER_ARMED = "timer.armed"        # adapter scheduled a StartTimer effect
TIMER_FIRED = "timer.fired"        # the scheduled callback ran
TIMER_CANCELLED = "timer.cancelled"  # CancelTimer / re-arm / shutdown
STALE_BOUNCE = "stale.bounce"      # replica fenced a sub-op on epoch
FAILOVER_HOP = "failover.hop"      # client abandoned a proxy for the next
BATCH_CUT = "batch.cut"            # a batch was sealed for dispatch
SUB_SERVED = "sub.served"          # replica served one sub-op

# Read-cache lifecycle.  Hit/miss/invalidate are emitted by the proxy's
# read cache; lease granted/expired by both sides of the lease protocol
# (the proxy self-expires entries before the server-side deadline, so one
# logical lease can produce an expiry event on each tier).
CACHE_HIT = "cache.hit"            # proxy served a read from its cache
CACHE_MISS = "cache.miss"          # proxy had to run the quorum round
CACHE_INVALIDATE = "cache.invalidate"  # a cached entry was dropped
LEASE_GRANTED = "lease.granted"    # a read lease was registered
LEASE_EXPIRED = "lease.expired"    # a lease hit its deadline unreleased

# Control-plane lifecycle (emitted by the ControlPlaneEngine): one started/
# completed pair per migration, one opened/closed pair per drained key range
# (their timestamp gap is the range's cutover pause), and one action event
# per rebalance the autoscaler triggers.
DRAIN_STARTED = "drain.started"            # a migration began draining
DRAIN_COMPLETED = "drain.completed"        # a migration finished
DRAIN_RANGE_OPENED = "drain.range.opened"  # one key range entered transfer
DRAIN_RANGE_CLOSED = "drain.range.closed"  # the range installed on receivers
AUTOSCALE_ACTION = "autoscale.action"      # the autoscaler triggered a move

EVENT_KINDS = (
    OP_INVOKED, OP_COMPLETED, OP_FAILED,
    ROUND_OPENED, ROUND_CLOSED, ROUND_REPLAYED, ROUND_WIDENED,
    FRAME_SENT, FRAME_RECEIVED,
    TIMER_ARMED, TIMER_FIRED, TIMER_CANCELLED,
    STALE_BOUNCE, FAILOVER_HOP, BATCH_CUT, SUB_SERVED,
    CACHE_HIT, CACHE_MISS, CACHE_INVALIDATE, LEASE_GRANTED, LEASE_EXPIRED,
    DRAIN_STARTED, DRAIN_COMPLETED,
    DRAIN_RANGE_OPENED, DRAIN_RANGE_CLOSED, AUTOSCALE_ACTION,
)


@dataclass(frozen=True)
class TraceEvent:
    """One structured observation, stamped with tier/component/timestamp.

    ``trace`` is the cross-tier trace-context id carried in frame metadata;
    events that belong to a specific application op carry it so a
    :class:`~repro.observe.trace.TraceCollector` can stitch the op's journey
    across tiers.  ``attrs`` holds kind-specific detail (batch size, timer
    id, destination, ...).
    """

    ts: float
    tier: str
    component: str
    kind: str
    op_id: Optional[str] = None
    key: Optional[str] = None
    trace: Optional[str] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "ts": self.ts,
            "tier": self.tier,
            "component": self.component,
            "kind": self.kind,
        }
        if self.op_id is not None:
            out["op_id"] = self.op_id
        if self.key is not None:
            out["key"] = self.key
        if self.trace is not None:
            out["trace"] = self.trace
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out


class EngineObserver:
    """The observer protocol engines call; the base class observes nothing.

    Engines hold exactly one of these and call :meth:`emit` with an event
    kind plus optional op/key/trace correlation ids and kind-specific
    attributes.  The default instance is a no-op so un-instrumented engines
    pay one cheap method call per event and nothing else.
    """

    def emit(
        self,
        event: str,
        *,
        op_id: Optional[str] = None,
        key: Optional[str] = None,
        trace: Optional[str] = None,
        **attrs: Any,
    ) -> None:
        """Record one event.  The no-op base discards it.

        The first parameter is named ``event`` (not ``kind``) so ``kind``
        stays available as an attribute -- frame events use it for the
        frame kind and op events for the operation kind.
        """


#: Shared no-op observer used as the default for every engine.
NULL_OBSERVER = EngineObserver()


#: What a sink's ``bind`` hook returns: called with ``(op_id, key, trace,
#: attrs)`` for every event of the kind it was bound to.
BoundHandler = Callable[[Optional[str], Optional[str], Optional[str], Dict[str, Any]], None]


class _ScopedObserver(EngineObserver):
    """An observer bound to one (tier, component); routes each event kind.

    ``_routes`` maps an event kind to the one callable that serves it
    (:meth:`ObserverHub._route`).  It is filled on the first emit of each
    kind and emptied by the hub when the sink set changes, so the steady
    state of ``emit`` is one dict lookup and one call -- no event object and
    no clock read unless a sink needs them.
    """

    __slots__ = ("_hub", "_tier", "_component", "_routes")

    def __init__(self, hub: "ObserverHub", tier: str, component: str) -> None:
        self._hub = hub
        self._tier = tier
        self._component = component
        self._routes: Dict[str, BoundHandler] = {}

    def emit(
        self,
        event: str,
        *,
        op_id: Optional[str] = None,
        key: Optional[str] = None,
        trace: Optional[str] = None,
        **attrs: Any,
    ) -> None:
        try:
            route = self._routes[event]
        except KeyError:
            route = self._routes[event] = self._hub._route(
                self._tier, self._component, event)
        route(op_id, key, trace, attrs)


class ObserverHub:
    """Routing point owned by a backend run.

    The backend constructs one hub with its clock (``events.clock.now`` on
    the simulator, ``time.monotonic`` on asyncio), registers sinks, and hands
    each engine a :meth:`scoped` observer that knows its tier and component.

    A sink is any object with ``handle(event)``; it receives a stamped
    :class:`TraceEvent` for every emit (:class:`~repro.observe.trace.
    TraceCollector` and user sinks work this way).  A sink that does not need
    whole events may instead define ``bind(tier, component, kind, now)``,
    asked once per scoped observer and event kind: it returns a
    :data:`BoundHandler` to call for those events, or ``None`` to decline the
    kind.  ``now()`` reads :attr:`clock` at the time of the call, so a
    handler that needs a timestamp pays for one and the others do not.  Only
    sinks without ``bind`` cause a ``TraceEvent`` to be built.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        #: Reassignable: it is read per event, never captured.
        self.clock: Callable[[], float] = clock if clock is not None else (lambda: 0.0)
        self._sinks: List[Any] = []
        # Weak: a long-lived hub must not keep every departed client's
        # observer alive just to be able to reset its routes.
        self._scoped: "weakref.WeakSet[_ScopedObserver]" = weakref.WeakSet()

    def now(self) -> float:
        """The current timestamp, from whatever :attr:`clock` is right now."""
        return self.clock()

    def add_sink(self, sink: Any) -> Any:
        """Register a sink; returns it.  Resolved routes are dropped."""
        if sink is not None and sink not in self._sinks:
            self._sinks.append(sink)
            for observer in self._scoped:
                observer._routes.clear()
        return sink

    def scoped(self, tier: str, component: str) -> EngineObserver:
        """An observer whose events belong to ``(tier, component)``."""
        observer = _ScopedObserver(self, tier, component)
        self._scoped.add(observer)
        return observer

    def _route(self, tier: str, component: str, kind: str) -> BoundHandler:
        """What one scoped observer calls for its events of ``kind``."""
        handlers: List[BoundHandler] = []
        whole: List[Any] = []
        for sink in self._sinks:
            bind = getattr(sink, "bind", None)
            if bind is None:
                whole.append(sink)
            else:
                handler = bind(tier, component, kind, self.now)
                if handler is not None:
                    handlers.append(handler)
        if whole:
            def stamped(op_id, key, trace, attrs):
                event = TraceEvent(
                    ts=self.clock(), tier=tier, component=component, kind=kind,
                    op_id=op_id, key=key, trace=trace, attrs=attrs,
                )
                for sink in whole:
                    sink.handle(event)
            handlers.append(stamped)
        if len(handlers) == 1:
            return handlers[0]

        def fan_out(op_id, key, trace, attrs):
            for handler in handlers:
                handler(op_id, key, trace, attrs)
        return fan_out
