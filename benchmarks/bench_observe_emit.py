"""Benchmark -- what one ``observer.emit`` costs with the default sinks attached.

Every backend run attaches a ``MetricsObserver`` to its ``ObserverHub``.  The
engines count the counter-only kinds (``events.QUIET_KINDS``: frames, timers,
cache, leases, served subs, the client's ``round.opened``) inline while no
other sink wants them, so with this sink only the op lifecycle, the proxy's
rounds, batch sizes and the first event of each quiet kind on a scope still
go through ``hub.scoped(...).emit`` (the seeded run of
``tests/test_observe_fastpath.py`` pins how many).  This
bench times that call per event kind, with the argument shapes the engines
use, against the same call on ``NULL_OBSERVER``, and the inline count:

* ``on`` / ``off`` ns per emit and emits/s per kind (best of the repeats);
  every kind is still timed through ``emit``, so the rows compare across
  versions;
* ``observer_on_off_ratio`` -- summed ``on`` time over summed ``off`` time.
  Both sides run back to back in one process, so the ratio moves with the
  code and not with the runner's speed; ``check_perf_gate.py`` holds it
  under a ceiling;
* ``quiet`` -- one row per quiet kind: ns per event of the engines' inline
  site (read the kind's slots, add one) on a default-sink scope, once an
  emit of the kind made it quiet there, next to that kind's ``emit`` on the
  same scope;
* ``trace_events_built`` -- how many ``TraceEvent`` objects the ``on`` side
  constructed.  Deterministic, and zero: neither default sink takes whole
  events.  The gate requires it to equal the baseline.

Run directly::

    PYTHONPATH=src python benchmarks/bench_observe_emit.py [--quick] [--json PATH]
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.bench.report import format_rows
from repro.observe import (
    BATCH_CUT,
    FRAME_RECEIVED,
    FRAME_SENT,
    NULL_OBSERVER,
    OP_COMPLETED,
    OP_INVOKED,
    ROUND_CLOSED,
    ROUND_OPENED,
    SUB_SERVED,
    TIMER_ARMED,
    TIMER_CANCELLED,
    TIMER_FIRED,
    EngineObserver,
    MetricsObserver,
    MetricsRegistry,
    ObserverHub,
    events,
)
from repro.observe.events import (
    CACHE_HIT,
    CACHE_INVALIDATE,
    CACHE_MISS,
    LEASE_EXPIRED,
    LEASE_GRANTED,
    QUIET_KINDS,
)
from repro.observe.metrics import KIND_METRICS

from _bench_utils import bench_json_path, print_section, write_bench_json

#: (tier, kind, carries op/key/trace ids, attrs) as the engines emit them.
#: Order matters within a tier: the kinds that open an op precede the kind
#: that closes it, so the closing emits find their start stamps.
SAMPLES: Tuple[Tuple[str, str, bool, Dict[str, Any]], ...] = (
    ("client", OP_INVOKED, True, {"kind": "read"}),
    ("client", ROUND_OPENED, True, {"round_trip": 1}),
    ("client", BATCH_CUT, False, {"size": 3, "queue": "g1"}),
    ("client", FRAME_SENT, False, {"kind": "batch", "dest": "s1"}),
    ("client", TIMER_ARMED, False, {"timer": "flush"}),
    ("client", TIMER_FIRED, False, {"timer": "flush"}),
    ("client", TIMER_CANCELLED, False, {"timer": "flush", "reason": "cancel"}),
    ("client", FRAME_RECEIVED, False, {"kind": "batch-ack", "source": "s1"}),
    ("client", OP_COMPLETED, True, {"round_trips": 2}),
    ("proxy", FRAME_RECEIVED, False, {"kind": "proxy", "source": "c1"}),
    ("proxy", CACHE_HIT, True, {}),
    ("proxy", CACHE_MISS, True, {}),
    ("proxy", ROUND_OPENED, True, {"round_trip": 1, "targets": 3}),
    ("proxy", ROUND_CLOSED, True, {"error": None}),
    ("proxy", FRAME_SENT, False, {"kind": "proxy-ack", "dest": "c1"}),
    ("replica", FRAME_RECEIVED, False, {"kind": "batch", "source": "c1", "size": 3}),
    ("replica", SUB_SERVED, True, {"shard": "shard-0"}),
    ("replica", LEASE_GRANTED, False, {"key": "k1", "holder": "p1", "ttl": 1.0}),
    ("replica", FRAME_SENT, False, {"kind": "batch-ack", "dest": "c1"}),
)


def default_sink_hub() -> ObserverHub:
    """A hub wired as ``SimKVCluster``/``AsyncKVCluster`` wire theirs."""
    ticks = [0.0]

    def clock() -> float:
        ticks[0] += 1.0
        return ticks[0]

    hub = ObserverHub(clock=clock)
    hub.add_sink(MetricsObserver(MetricsRegistry()))
    return hub


#: (tier, kind) for every quiet kind, on a tier where the default sinks leave
#: it quiet: the proxy tier times its rounds from ``round.opened``.
QUIET_SAMPLES: Tuple[Tuple[str, str], ...] = (
    ("client", FRAME_SENT),
    ("client", FRAME_RECEIVED),
    ("client", TIMER_ARMED),
    ("client", TIMER_FIRED),
    ("client", TIMER_CANCELLED),
    ("client", ROUND_OPENED),
    ("proxy", CACHE_HIT),
    ("proxy", CACHE_MISS),
    ("proxy", CACHE_INVALIDATE),
    ("proxy", LEASE_EXPIRED),
    ("replica", LEASE_GRANTED),
    ("replica", SUB_SERVED),
)

#: The engines' inline site, verbatim but for the names: an attribute read
#: and an int add while the kind is quiet.
_QUIET_SITE = """
def site(observer, op_ids):
    for _ in op_ids:
        counts = observer.{attribute}
        if counts is None:
            observer.emit({kind!r})
        else:
            counts[{counter!r}] += 1
"""


def quiet_site(kind: str) -> Any:
    """The inline site of ``kind``, compiled with its attribute and counter."""
    namespace: Dict[str, Any] = {}
    exec(_QUIET_SITE.format(  # a fixed template, no outside input
        attribute=QUIET_KINDS[kind], kind=kind, counter=KIND_METRICS[kind][0],
    ), namespace)
    return namespace["site"]


def time_quiet(observer: EngineObserver, kind: str, op_ids: List[str]) -> float:
    site = quiet_site(kind)
    observer.emit(kind)  # the first emit of a kind decides whether it is quiet
    if getattr(observer, QUIET_KINDS[kind]) is None:
        raise AssertionError(f"{kind} is not quiet on this scope")
    started = perf_counter()
    site(observer, op_ids)
    return perf_counter() - started


def time_emits(
    observer: EngineObserver, kind: str, with_ids: bool, attrs: Dict[str, Any],
    op_ids: List[str],
) -> float:
    emit = observer.emit
    started = perf_counter()
    if with_ids:
        for op_id in op_ids:
            emit(kind, op_id=op_id, key="k1", trace=op_id, **attrs)
    else:
        for _ in op_ids:
            emit(kind, **attrs)
    return perf_counter() - started


def one_pass(op_ids: List[str], observed: bool) -> List[float]:
    """Seconds per sample for one pass over ``SAMPLES``, a fresh hub each pass."""
    hub = default_sink_hub() if observed else None
    scoped: Dict[str, EngineObserver] = {}
    seconds = []
    for tier, kind, with_ids, attrs in SAMPLES:
        observer = NULL_OBSERVER
        if hub is not None:
            observer = scoped.get(tier)
            if observer is None:
                observer = scoped[tier] = hub.scoped(tier, f"{tier}-1")
        seconds.append(time_emits(observer, kind, with_ids, attrs, op_ids))
    return seconds


def quiet_pass(op_ids: List[str]) -> List[Tuple[float, float]]:
    """(inline, emit) seconds per quiet sample, on a fresh default-sink hub."""
    hub = default_sink_hub()
    seconds = []
    for tier, kind in QUIET_SAMPLES:
        observer = hub.scoped(tier, f"{tier}-1")
        seconds.append((
            time_quiet(observer, kind, op_ids),
            time_emits(observer, kind, False, {}, op_ids),
        ))
    return seconds


def run(emits: int, repeats: int) -> Dict[str, Any]:
    op_ids = [f"c1-read-{i}" for i in range(emits)]
    built = 0
    real = events.TraceEvent

    def counting(*args, **kwargs):
        nonlocal built
        built += 1
        return real(*args, **kwargs)

    one_pass(op_ids[:100], True)  # warm both sides' code paths
    one_pass(op_ids[:100], False)
    quiet_pass(op_ids[:100])
    on = [float("inf")] * len(SAMPLES)
    off = list(on)
    quiet = [(float("inf"), float("inf"))] * len(QUIET_SAMPLES)
    events.TraceEvent = counting
    try:
        for _ in range(repeats):
            on = [min(a, b) for a, b in zip(on, one_pass(op_ids, True))]
            off = [min(a, b) for a, b in zip(off, one_pass(op_ids, False))]
            quiet = [
                (min(a[0], b[0]), min(a[1], b[1]))
                for a, b in zip(quiet, quiet_pass(op_ids))
            ]
    finally:
        events.TraceEvent = real
    kinds = [
        {
            "tier": tier, "kind": kind,
            "on_ns": round(on_s / emits * 1e9, 1),
            "off_ns": round(off_s / emits * 1e9, 1),
            "ratio": round(on_s / off_s, 2),
            "on_emits_per_s": round(emits / on_s),
        }
        for (tier, kind, _ids, _attrs), on_s, off_s in zip(SAMPLES, on, off)
    ]
    return {
        "emits_per_kind": emits,
        "repeats": repeats,
        "trace_events_built": built,
        "observer_on_off_ratio": round(sum(on) / sum(off), 3),
        "on_ns_per_emit": round(sum(on) / (emits * len(SAMPLES)) * 1e9, 1),
        "off_ns_per_emit": round(sum(off) / (emits * len(SAMPLES)) * 1e9, 1),
        "kinds": kinds,
        "quiet_ns_per_event": round(
            sum(inline for inline, _ in quiet) / (emits * len(QUIET_SAMPLES)) * 1e9, 1),
        "quiet": [
            {
                "tier": tier, "kind": kind,
                "quiet_ns": round(inline / emits * 1e9, 1),
                "emit_ns": round(emitted / emits * 1e9, 1),
            }
            for (tier, kind), (inline, emitted) in zip(QUIET_SAMPLES, quiet)
        ],
    }


if __name__ == "__main__":
    quick = "--quick" in sys.argv[1:]
    report = run(emits=5_000, repeats=5) if quick else run(emits=50_000, repeats=9)
    print_section("observer.emit -- default sinks vs NULL_OBSERVER (ns per emit)")
    print(format_rows(
        report["kinds"],
        ["tier", "kind", "on_ns", "off_ns", "ratio", "on_emits_per_s"],
    ))
    print(f"\nall kinds: on {report['on_ns_per_emit']} ns, "
          f"off {report['off_ns_per_emit']} ns, "
          f"on/off {report['observer_on_off_ratio']}; "
          f"TraceEvents built: {report['trace_events_built']}")
    print_section("quiet kinds -- the engines' inline count vs emit, default sinks (ns per event)")
    print(format_rows(report["quiet"], ["tier", "kind", "quiet_ns", "emit_ns"]))
    print(f"\nquiet kinds: {report['quiet_ns_per_event']} ns per event inline")
    json_path = bench_json_path(sys.argv[1:])
    if json_path:
        write_bench_json(json_path, "observe_emit", report)
    assert report["trace_events_built"] == 0, (
        "the default sinks made the hub build TraceEvent objects")
