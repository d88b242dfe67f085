"""Transport-neutral observability for the kvstore engines.

The package is deliberately free of ``asyncio`` and ``repro.sim`` imports so
the sans-I/O engines can depend on it without breaking the transport import
ban: engines emit structured :class:`TraceEvent` records through an
:class:`EngineObserver` handed to them by the adapter, and the adapter also
supplies the timestamp source (the virtual clock on the simulator,
``time.monotonic`` on asyncio).

Layers:

* :mod:`repro.observe.events` -- the event taxonomy, the observer protocol,
  and the :class:`ObserverHub` that routes each scoped observer's events to
  the sinks: a bound handler per event kind for sinks that offer one, a
  stamped :class:`TraceEvent` only for sinks that take whole events.
* :mod:`repro.observe.metrics` -- counters, gauges, and fixed-bucket latency
  histograms keyed by ``(tier, component, name)``, with snapshot/merge and a
  JSON exporter shared by the benchmarks and the CLI; ``KIND_METRICS`` is the
  one event kind -> metric table.
* :mod:`repro.observe.trace` -- cross-tier op tracing: a collector that
  groups trace-tagged events into per-op client -> proxy -> replica span
  trees and dumps them as JSON or human-readable text.
"""

from .events import (
    BATCH_CUT,
    FAILOVER_HOP,
    FRAME_RECEIVED,
    FRAME_SENT,
    NULL_OBSERVER,
    OP_COMPLETED,
    OP_FAILED,
    OP_INVOKED,
    ROUND_CLOSED,
    ROUND_OPENED,
    ROUND_REPLAYED,
    STALE_BOUNCE,
    SUB_SERVED,
    TIMER_ARMED,
    TIMER_CANCELLED,
    TIMER_FIRED,
    BoundHandler,
    EngineObserver,
    ObserverHub,
    TraceEvent,
)
from .metrics import (
    Histogram,
    MetricsObserver,
    MetricsRegistry,
    validate_metrics_snapshot,
)
from .trace import TraceCollector

__all__ = [
    "BATCH_CUT",
    "FAILOVER_HOP",
    "FRAME_RECEIVED",
    "FRAME_SENT",
    "NULL_OBSERVER",
    "OP_COMPLETED",
    "OP_FAILED",
    "OP_INVOKED",
    "ROUND_CLOSED",
    "ROUND_OPENED",
    "ROUND_REPLAYED",
    "STALE_BOUNCE",
    "SUB_SERVED",
    "TIMER_ARMED",
    "TIMER_CANCELLED",
    "TIMER_FIRED",
    "BoundHandler",
    "EngineObserver",
    "ObserverHub",
    "TraceEvent",
    "Histogram",
    "MetricsObserver",
    "MetricsRegistry",
    "validate_metrics_snapshot",
    "TraceCollector",
]
