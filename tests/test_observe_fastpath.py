"""The routed observer emit: same metrics and events as before, fewer objects.

``ObserverHub`` resolves, per scoped observer and event kind, which sinks get
a bound handler and which get a whole :class:`TraceEvent`.  These tests pin
what that may not change: the registry a run produces (against a golden
captured before the routed emit existed), the events a ``TraceCollector``
sees, the ``handle(TraceEvent)`` route staying equivalent to the routed one,
and the hub surface (``clock`` reassignable, sinks added late, plain sinks).

``python tests/test_observe_fastpath.py`` prints the golden for the checkout
on ``PYTHONPATH``.  ``tests/golden/observe_fastpath.json`` was first captured
at commit 98388d9 (PR 12), the parent of the routed emit, and recaptured in
PR 16, which changed the run itself: reads whose quorum agrees end after one
round (2132 -> 1452 events), ``op.completed`` carries the op's ``kind``, and
the client tier reports ``reads_fast`` / ``reads_slow``; and again in PR 18,
which changed it once more: rounds that mutate nothing ask a quorum of their
group instead of all of it (1452 -> 1357 events -- the replicas serve 321 ->
230 sub-requests), and the client and proxy tiers report ``rounds_widened``.
It was recaptured once more when the proxy began answering all the rounds
one input completes for a client in one ``proxy-ack``: the client tier
receives 224 -> 192 frames and the proxy sends 456 -> 424, and nothing else
in the registry moves; the 1357 events happen at the same virtual times, but
clients invoking at the same instant draw their op ids from the process-wide
counter in another order.  The counter ``round.replayed`` bumps was then
renamed ``stale_replays`` -> ``rounds_replayed`` (it counts every replay, not
only stale ones): that key, and nothing else, moved.  It was recaptured again
when lease traffic began riding the data frames (grants in the batch-ack,
releases in the next batch frame, a release's queue flushed on its own timer):
the replicas send 198 -> 118 frames and receive 232 -> 178, the proxy sends
424 -> 369 and arms 109 -> 136 timers, and the run's 1357 events became 1363.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import weakref
from pathlib import Path
from typing import Any, Dict, List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import operations
from repro.kvstore import KVRunConfig, generate_workload, run
from repro.observe import (
    MetricsObserver,
    MetricsRegistry,
    ObserverHub,
    TraceCollector,
    TraceEvent,
    events,
)
from repro.observe.events import EVENT_KINDS, OP_COMPLETED, OP_INVOKED, SUB_SERVED

GOLDEN = Path(__file__).parent / "golden" / "observe_fastpath.json"


# -- the seeded run the golden was captured from ---------------------------------


def seeded_sim_cached_run(collector: Optional[TraceCollector] = None):
    """200 ops (8 clients x 25) through one caching proxy on the simulator.

    Op ids come from a process-wide counter; it restarts at 1 for the run so
    the ids in the events do not depend on which tests ran before.
    """
    ops = generate_workload(
        num_clients=8, ops_per_client=25, num_keys=64, read_fraction=0.9,
        key_skew=1.2, pipeline_depth=4, seed=13,
    )
    saved = operations._op_counter
    operations._op_counter = itertools.count(1)
    try:
        return run(KVRunConfig(
            num_shards=4, num_groups=2, protocol_key="abd-mwmr", max_batch=8,
            proxies=1, read_cache=64, lease_ttl=480.0,
            trace_collector=collector,
        ), ops)
    finally:
        operations._op_counter = saved


def metrics_json(result) -> str:
    """``MetricsRegistry.to_json()`` of the run (the result keeps the snapshot)."""
    return json.dumps(result.metrics, indent=2, sort_keys=True)


def collected_rows(collector: TraceCollector, with_ts: bool) -> List[List[Any]]:
    rows = []
    for trace_id in collector.trace_ids():
        for event in collector.events_for(trace_id):
            row = [event.kind, event.tier, event.component, event.op_id,
                   event.key, event.trace, event.attrs]
            rows.append([event.ts] + row if with_ts else row)
    return rows


def digest(rows: List[List[Any]]) -> str:
    canonical = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def capture_golden() -> Dict[str, Any]:
    collector = TraceCollector()
    result = seeded_sim_cached_run(collector)
    return {
        "completed_ops": result.completed_ops,
        "metrics_json": metrics_json(result),
        "events": len(collected_rows(collector, with_ts=False)),
        "events_sha256": digest(collected_rows(collector, with_ts=False)),
        "timed_events_sha256": digest(collected_rows(collector, with_ts=True)),
    }


# -- (a) routed emit == handle(TraceEvent) ----------------------------------------

_TIERS = ("client", "proxy", "replica", "control", "edge")
_ATTRS = st.fixed_dictionaries({}, optional={
    "size": st.one_of(st.none(), st.integers(1, 64)),
    "mig": st.sampled_from(["m1", "m2"]),
    "range": st.integers(0, 2),
    "shard": st.sampled_from(["s0", "s1"]),
})
_EMITS = st.lists(
    st.tuples(
        st.sampled_from(_TIERS),
        st.sampled_from(["a", "b"]),
        st.sampled_from(EVENT_KINDS + ("custom.kind",)),
        st.one_of(st.none(), st.sampled_from(["op1", "op2", "op3"])),
        _ATTRS,
        st.floats(0.0, 4.0),  # virtual time that passes before the event
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(_EMITS)
def test_routed_emit_and_handle_fold_to_the_same_registry(emits):
    now = [0.0]
    hub = ObserverHub(clock=lambda: now[0])
    routed = MetricsRegistry()
    hub.add_sink(MetricsObserver(routed))
    scoped: Dict[Any, Any] = {}
    handled = MetricsObserver()
    for tier, component, kind, op_id, attrs, elapsed in emits:
        now[0] += elapsed
        observer = scoped.get((tier, component))
        if observer is None:
            observer = scoped[(tier, component)] = hub.scoped(tier, component)
        observer.emit(kind, op_id=op_id, **attrs)
        handled.handle(TraceEvent(
            ts=now[0], tier=tier, component=component, kind=kind,
            op_id=op_id, attrs=dict(attrs),
        ))
    # Equal from the first event on: seeding happens on both routes.
    assert routed.snapshot() == handled.registry.snapshot()


# -- (b) (c) the seeded run against the parent's golden ----------------------------


def count_trace_events(monkeypatch) -> List[int]:
    built: List[int] = []
    real = events.TraceEvent

    def counting(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(events, "TraceEvent", counting)
    return built


def test_default_sinks_build_no_trace_event_and_metrics_match_golden(monkeypatch):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    built = count_trace_events(monkeypatch)
    result = seeded_sim_cached_run()
    assert result.completed_ops == golden["completed_ops"] == 200
    assert built == []
    assert metrics_json(result) == golden["metrics_json"]


def test_collector_from_the_start_sees_the_parents_events(monkeypatch):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    built = count_trace_events(monkeypatch)
    collector = TraceCollector()
    result = seeded_sim_cached_run(collector)
    rows = collected_rows(collector, with_ts=False)
    assert len(rows) == golden["events"]
    assert digest(rows) == golden["events_sha256"]
    # The virtual-time stamps too: the schedule itself repeats.
    assert digest(collected_rows(collector, with_ts=True)) == golden["timed_events_sha256"]
    assert len(built) >= len(rows)  # untraced events are built for it as well
    assert metrics_json(result) == golden["metrics_json"]


def test_sink_added_after_emits_receives_every_later_event():
    hub = ObserverHub()
    registry = MetricsRegistry()
    hub.add_sink(MetricsObserver(registry))
    client = hub.scoped("client", "c1")
    replica = hub.scoped("replica", "s1")
    client.emit(OP_INVOKED, op_id="o1", trace="t1")
    replica.emit(SUB_SERVED, op_id="o1", trace="t1", shard="s0")

    collector = hub.add_sink(TraceCollector())
    replica.emit(SUB_SERVED, op_id="o2", trace="t2", shard="s0")
    client.emit(OP_INVOKED, op_id="o2", trace="t2")
    client.emit(OP_COMPLETED, op_id="o2", trace="t2")

    assert collector.trace_ids() == ["t2"]
    assert [(e.tier, e.kind) for e in collector.events_for("t2")] == [
        ("replica", SUB_SERVED), ("client", OP_INVOKED), ("client", OP_COMPLETED),
    ]
    # ... and the sink that was there first lost nothing over the re-route.
    counters = registry.snapshot()["client"]["counters"]
    assert counters["ops_invoked"] == 2 and counters["ops_completed"] == 1
    assert registry.snapshot()["replica"]["counters"]["subs_served"] == 2


# -- (d) (e) the hub surface ---------------------------------------------------------


def test_clock_reassigned_after_scoped_is_the_one_read():
    hub = ObserverHub()
    registry = MetricsRegistry()
    hub.add_sink(MetricsObserver(registry))
    collector = hub.add_sink(TraceCollector())
    observer = hub.scoped("client", "c1")
    observer.emit(OP_INVOKED, op_id="warm", trace="t0")  # routes resolved here

    now = [10.0]
    hub.clock = lambda: now[0]
    observer.emit(OP_INVOKED, op_id="o1", trace="t1")
    now[0] = 12.5
    observer.emit(OP_COMPLETED, op_id="o1", trace="t1")

    assert [e.ts for e in collector.events_for("t1")] == [10.0, 12.5]
    latency = registry.snapshot()["client"]["histograms"]["op_latency"]
    assert latency["count"] == 1 and latency["max"] == 2.5


def test_hub_does_not_keep_a_departed_observer_alive():
    # A long-lived cluster's hub outlives its clients; it tracks their
    # observers (to reset routes in add_sink) without owning them.
    hub = ObserverHub()
    hub.add_sink(MetricsObserver())
    observer = hub.scoped("client", "c1")
    observer.emit(OP_INVOKED, op_id="o1")
    departed = weakref.ref(observer)
    del observer
    gc.collect()
    assert departed() is None
    hub.add_sink(TraceCollector())  # and resetting routes copes with the gap


def test_sink_without_hooks_gets_plain_trace_events():
    class Plain:
        def __init__(self):
            self.seen = []

        def handle(self, event):
            self.seen.append(event)

    hub = ObserverHub(clock=lambda: 7.0)
    plain = hub.add_sink(Plain())
    hub.scoped("proxy", "p1").emit("custom.kind", op_id="o", key="k", answer=42)
    (event,) = plain.seen
    assert isinstance(event, TraceEvent)
    assert (event.ts, event.tier, event.component, event.kind) == (
        7.0, "proxy", "p1", "custom.kind")
    assert (event.op_id, event.key, event.trace) == ("o", "k", None)
    assert event.attrs == {"answer": 42}


if __name__ == "__main__":
    print(json.dumps(capture_golden(), indent=2, sort_keys=True))
