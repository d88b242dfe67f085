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
from collections import defaultdict
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
    "QUIET_KINDS",
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

#: The kinds an engine may count inline instead of emitting, each with the
#: observer attribute its emit sites read.  While a kind is *quiet* on an
#: observer -- no sink but the metrics wants it -- that attribute holds the
#: scope's count slots and a site adds one to its counter there; while the
#: attribute is ``None`` the kind is loud and the site calls ``emit``.
#: ``round.opened`` is quiet on the client tier only: on the proxy tier the
#: metrics time the round from it.
QUIET_KINDS: Dict[str, str] = {
    FRAME_SENT: "frame_sent",
    FRAME_RECEIVED: "frame_received",
    TIMER_ARMED: "timer_armed",
    TIMER_FIRED: "timer_fired",
    TIMER_CANCELLED: "timer_cancelled",
    CACHE_HIT: "cache_hit",
    CACHE_MISS: "cache_miss",
    CACHE_INVALIDATE: "cache_invalidate",
    LEASE_GRANTED: "lease_granted",
    LEASE_EXPIRED: "lease_expired",
    ROUND_OPENED: "round_opened",
}


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
    attributes.  For the :data:`QUIET_KINDS` they first read the kind's
    count slots (below): ``None`` -- the class default, so every subclass
    hears every event through :meth:`emit` -- means emit; a dict means add
    one to the kind's counter in it and call nothing.
    """

    frame_sent: Optional[Dict[str, int]] = None
    frame_received: Optional[Dict[str, int]] = None
    timer_armed: Optional[Dict[str, int]] = None
    timer_fired: Optional[Dict[str, int]] = None
    timer_cancelled: Optional[Dict[str, int]] = None
    cache_hit: Optional[Dict[str, int]] = None
    cache_miss: Optional[Dict[str, int]] = None
    cache_invalidate: Optional[Dict[str, int]] = None
    lease_granted: Optional[Dict[str, int]] = None
    lease_expired: Optional[Dict[str, int]] = None
    round_opened: Optional[Dict[str, int]] = None

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


#: Shared no-op observer used as the default for every engine: quiet for
#: every kind, its counts go to one throwaway dict nobody reads.
NULL_OBSERVER = EngineObserver()
_DISCARDED: Dict[str, int] = defaultdict(int)
for _attribute in QUIET_KINDS.values():
    setattr(NULL_OBSERVER, _attribute, _DISCARDED)


#: What a sink's ``bind`` hook returns: called with ``(op_id, key, trace,
#: attrs)`` for every event of the kind it was bound to.
BoundHandler = Callable[[Optional[str], Optional[str], Optional[str], Dict[str, Any]], None]


class _ScopedObserver(EngineObserver):
    """An observer bound to one (tier, component); routes each event kind.

    ``_routes`` maps an event kind to the one callable that serves it
    (:meth:`ObserverHub._route`).  It is filled on the first emit of each
    kind -- which for a quiet kind also sets its count slots -- and reset by
    the hub when the sink set changes, so the steady state of ``emit`` is
    one dict lookup and one call -- no event object and no clock read
    unless a sink needs them -- and a quiet kind costs no call at all.
    """

    __slots__ = ("_hub", "_tier", "_component", "_routes", *QUIET_KINDS.values())

    def __init__(self, hub: "ObserverHub", tier: str, component: str) -> None:
        self._hub = hub
        self._tier = tier
        self._component = component
        self._routes: Dict[str, BoundHandler] = {}
        self._reset()

    def _reset(self) -> None:
        """Forget every route: each kind is loud until its next emit."""
        self._routes.clear()
        for attribute in QUIET_KINDS.values():
            setattr(self, attribute, None)

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
            route = self._hub._resolve(self, event)
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

    A bound handler that does nothing but add one to ``counts[name]`` says
    so by carrying that dict as its ``counts`` attribute.  When such a
    handler is the only route of one of the :data:`QUIET_KINDS` on a scope,
    the kind is quiet there from its first emit on: the hub hands ``counts``
    to the scoped observer and the engine adds to it itself.  Any other sink
    that wants the kind -- a whole-event sink wants every kind -- keeps it
    loud.
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
        """Register a sink; returns it.  Resolved routes are dropped, and
        with them which kinds are quiet."""
        if sink is not None and sink not in self._sinks:
            self._sinks.append(sink)
            for observer in self._scoped:
                observer._reset()
        return sink

    def scoped(self, tier: str, component: str) -> EngineObserver:
        """An observer whose events belong to ``(tier, component)``."""
        observer = _ScopedObserver(self, tier, component)
        self._scoped.add(observer)
        return observer

    def _resolve(self, observer: _ScopedObserver, kind: str) -> BoundHandler:
        """Route ``observer``'s events of ``kind``; a quiet kind's count
        slots are its route's, if counting is all that route does."""
        route = observer._routes[kind] = self._route(
            observer._tier, observer._component, kind)
        attribute = QUIET_KINDS.get(kind)
        if attribute is not None:
            setattr(observer, attribute, getattr(route, "counts", None))
        return route

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
