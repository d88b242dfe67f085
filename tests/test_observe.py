"""Unit tests for the observability layer: events, metrics, trace trees.

The integration paths (engines emitting through real runs on both backends)
are covered in ``test_kvstore_engine.py`` and ``test_cli.py``; here the
pieces are tested in isolation: histogram math, registry aggregation, the
event -> metric translation, the snapshot schema check, and span-tree
reconstruction from synthetic event streams.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.observe import (
    BATCH_CUT,
    FRAME_SENT,
    NULL_OBSERVER,
    OP_COMPLETED,
    OP_INVOKED,
    ROUND_CLOSED,
    ROUND_OPENED,
    SUB_SERVED,
    TIMER_ARMED,
    TIMER_FIRED,
    Histogram,
    MetricsObserver,
    MetricsRegistry,
    ObserverHub,
    TraceCollector,
    TraceEvent,
    validate_metrics_snapshot,
)
from repro.observe.metrics import (
    _BASELINE_COUNTERS,
    _BASELINE_HISTOGRAMS,
    DEFAULT_BUCKETS,
    KIND_METRICS,
    REQUIRED_TIER_KEYS,
)


def _reference_bucket(bounds, value):
    """The search ``Histogram.observe`` used before ``bisect_left``."""
    lo, hi = 0, len(bounds)
    while lo < hi:
        mid = (lo + hi) // 2
        if value <= bounds[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _bucket(bounds, value):
    hist = Histogram(bounds)
    hist.observe(value)
    return hist.counts.index(1)


class TestHistogram:
    @pytest.mark.parametrize("bounds", [DEFAULT_BUCKETS, (1.0, 2.0), (0.5,), ()])
    def test_bucket_matches_reference_search_around_every_bound(self, bounds):
        values = [0.0, -0.0, -1.0, -1e300, math.inf, -math.inf, 5e-324, 1e300]
        for bound in bounds:
            values += [bound, math.nextafter(bound, -math.inf),
                       math.nextafter(bound, math.inf)]
        for value in values:
            assert _bucket(bounds, value) == _reference_bucket(bounds, value), value

    @given(st.floats(allow_nan=False))
    def test_bucket_matches_reference_search_anywhere(self, value):
        assert _bucket(DEFAULT_BUCKETS, value) == _reference_bucket(
            DEFAULT_BUCKETS, value)

    def test_empty_histogram_reports_zeroes(self):
        hist = Histogram()
        assert hist.count == 0
        assert hist.percentile(50) == 0.0
        assert hist.mean == 0.0
        assert hist.as_dict()["p99"] == 0.0

    def test_percentiles_clamp_to_observed_range(self):
        hist = Histogram()
        for value in (0.01, 0.02, 0.03, 0.04):
            hist.observe(value)
        assert 0.01 <= hist.percentile(50) <= 0.04
        assert 0.01 <= hist.percentile(99) <= 0.04
        assert hist.minimum == 0.01 and hist.maximum == 0.04

    def test_single_observation_pins_every_percentile(self):
        hist = Histogram()
        hist.observe(0.5)
        for p in (0, 50, 95, 99, 100):
            assert hist.percentile(p) == 0.5

    def test_merge_equals_combined_observation(self):
        left, right, combined = Histogram(), Histogram(), Histogram()
        for i, value in enumerate(v * 0.003 for v in range(1, 21)):
            (left if i % 2 else right).observe(value)
            combined.observe(value)
        left.merge(right)
        assert left.counts == combined.counts
        assert left.count == combined.count
        assert left.total == pytest.approx(combined.total)
        assert left.minimum == combined.minimum
        assert left.maximum == combined.maximum

    def test_merge_rejects_mismatched_buckets(self):
        with pytest.raises(ValueError):
            Histogram().merge(Histogram(bounds=(1.0, 2.0)))

    def test_overflow_values_land_in_the_final_slot(self):
        hist = Histogram(bounds=(1.0, 2.0))
        hist.observe(99.0)
        assert hist.counts == [0, 0, 1]
        assert hist.percentile(50) == 99.0  # clamped to the observed max


class TestMetricsRegistry:
    def test_snapshot_sums_counters_across_components(self):
        registry = MetricsRegistry()
        registry.counter("client", "c1", "frames_sent", 3)
        registry.counter("client", "c2", "frames_sent", 4)
        registry.counter("proxy", "p1", "frames_sent", 5)
        snapshot = registry.snapshot()
        assert snapshot["client"]["counters"]["frames_sent"] == 7
        assert snapshot["proxy"]["counters"]["frames_sent"] == 5
        assert registry.counter_value("client", "frames_sent") == 7

    def test_snapshot_merges_histograms_across_components(self):
        registry = MetricsRegistry()
        registry.observe("client", "c1", "op_latency", 0.01)
        registry.observe("client", "c2", "op_latency", 0.03)
        hist = registry.snapshot()["client"]["histograms"]["op_latency"]
        assert hist["count"] == 2
        assert hist["mean"] == pytest.approx(0.02)

    def test_declared_counters_survive_at_zero(self):
        registry = MetricsRegistry()
        registry.declare_counter("replica", "s1", "stale_bounces")
        assert registry.snapshot()["replica"]["counters"]["stale_bounces"] == 0

    def test_registry_merge_folds_series(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("client", "c1", "ops_invoked", 2)
        right.counter("client", "c1", "ops_invoked", 3)
        right.observe("client", "c1", "op_latency", 0.5)
        left.merge(right)
        snapshot = left.snapshot()
        assert snapshot["client"]["counters"]["ops_invoked"] == 5
        assert snapshot["client"]["histograms"]["op_latency"]["count"] == 1

    def test_gauges_stay_per_component(self):
        registry = MetricsRegistry()
        registry.gauge("proxy", "p1", "queue_depth", 7)
        assert registry.snapshot()["proxy"]["gauges"]["p1.queue_depth"] == 7


def _event(kind, tier="client", component="c1", ts=0.0, **kwargs):
    attrs = kwargs.pop("attrs", {})
    return TraceEvent(ts=ts, tier=tier, component=component, kind=kind,
                      attrs=attrs, **kwargs)


class TestMetricsObserver:
    def test_op_latency_measured_from_event_timestamps(self):
        observer = MetricsObserver()
        observer.handle(_event(OP_INVOKED, ts=1.0, op_id="op1"))
        observer.handle(_event(OP_COMPLETED, ts=3.5, op_id="op1"))
        hist = observer.registry.snapshot()["client"]["histograms"]["op_latency"]
        assert hist["count"] == 1
        assert hist["mean"] == pytest.approx(2.5)

    def test_completed_reads_split_by_round_trips(self):
        observer = MetricsObserver()
        for op_id, kind, round_trips in [
            ("r1", "read", 1), ("r2", "read", 2), ("r3", "read", 1),
            ("r4", "read", 3),  # a replayed round: not fast either
            ("w1", "write", 2),
        ]:
            observer.handle(_event(
                OP_COMPLETED, op_id=op_id,
                attrs={"kind": kind, "round_trips": round_trips},
            ))
        counters = observer.registry.snapshot()["client"]["counters"]
        assert (counters["reads_fast"], counters["reads_slow"]) == (2, 2)
        assert counters["ops_completed"] == 5

    def test_proxy_round_latency_uses_first_open(self):
        observer = MetricsObserver()
        observer.handle(_event(ROUND_OPENED, tier="proxy", component="p1",
                               ts=1.0, op_id="op1"))
        # A replayed round re-opens; latency still spans from the first open.
        observer.handle(_event(ROUND_OPENED, tier="proxy", component="p1",
                               ts=2.0, op_id="op1"))
        observer.handle(_event(ROUND_CLOSED, tier="proxy", component="p1",
                               ts=4.0, op_id="op1"))
        hist = observer.registry.snapshot()["proxy"]["histograms"]["op_latency"]
        assert hist["count"] == 1
        assert hist["mean"] == pytest.approx(3.0)

    def test_batch_cut_feeds_the_size_histogram(self):
        observer = MetricsObserver()
        observer.handle(_event(BATCH_CUT, attrs={"size": 4}))
        observer.handle(_event(BATCH_CUT, attrs={"size": 2}))
        hist = observer.registry.snapshot()["client"]["histograms"]["batch_size"]
        assert hist["count"] == 2 and hist["max"] == 4

    def test_first_event_seeds_the_full_tier_schema(self):
        # One lone frame event must still produce a schema-complete snapshot:
        # CI's schema check relies on zero-valued counters being present.
        observer = MetricsObserver()
        observer.handle(_event(FRAME_SENT))
        observer.handle(_event(SUB_SERVED, tier="replica", component="s1"))
        validate_metrics_snapshot(observer.registry.snapshot())

    def test_timer_events_count(self):
        observer = MetricsObserver()
        observer.handle(_event(TIMER_ARMED))
        observer.handle(_event(TIMER_FIRED))
        counters = observer.registry.snapshot()["client"]["counters"]
        assert counters["timers_armed"] == 1
        assert counters["timers_fired"] == 1
        assert counters["timers_cancelled"] == 0


class TestOneSchema:
    def test_validator_requires_exactly_what_seeding_guarantees(self):
        assert set(REQUIRED_TIER_KEYS) == set(_BASELINE_COUNTERS)
        for tier, spec in REQUIRED_TIER_KEYS.items():
            assert spec["counters"] == _BASELINE_COUNTERS[tier]
            assert spec["histograms"] == _BASELINE_HISTOGRAMS[tier]

    @pytest.mark.parametrize("tier", sorted(_BASELINE_COUNTERS))
    def test_one_event_from_a_tier_yields_a_valid_snapshot(self, tier):
        observer = MetricsObserver()
        observer.handle(_event(FRAME_SENT, tier=tier, component="x"))
        validate_metrics_snapshot(observer.registry.snapshot(), require_tiers=(tier,))

    def test_every_baseline_counter_is_some_kinds_counter(self):
        counted = {counter for counter, _ in KIND_METRICS.values()}
        # ... or one of the two cells op.completed's action splits reads into.
        counted |= {"reads_fast", "reads_slow"}
        for tier, names in _BASELINE_COUNTERS.items():
            assert set(names) <= counted, tier


class TestSnapshotValidation:
    def test_missing_tier_reported(self):
        with pytest.raises(ValueError, match="missing tier 'client'"):
            validate_metrics_snapshot({})

    def test_missing_counter_reported(self):
        observer = MetricsObserver()
        observer.handle(_event(FRAME_SENT))
        observer.handle(_event(SUB_SERVED, tier="replica", component="s1"))
        snapshot = observer.registry.snapshot()
        del snapshot["client"]["counters"]["rounds_replayed"]
        with pytest.raises(ValueError, match="rounds_replayed"):
            validate_metrics_snapshot(snapshot)

    def test_missing_percentile_key_reported(self):
        observer = MetricsObserver()
        observer.handle(_event(FRAME_SENT))
        observer.handle(_event(SUB_SERVED, tier="replica", component="s1"))
        snapshot = observer.registry.snapshot()
        del snapshot["client"]["histograms"]["op_latency"]["p99"]
        with pytest.raises(ValueError, match="p99"):
            validate_metrics_snapshot(snapshot)


class TestObserverHub:
    def test_scoped_observer_stamps_tier_component_and_clock(self):
        ticks = iter([1.5, 2.5])
        hub = ObserverHub(clock=lambda: next(ticks))
        collector = hub.add_sink(TraceCollector())
        observer = hub.scoped("client", "c1")
        observer.emit(OP_INVOKED, op_id="op1", trace="t1", kind="write")
        observer.emit(OP_COMPLETED, op_id="op1", trace="t1")
        events = collector.events_for("t1")
        assert [e.ts for e in events] == [1.5, 2.5]
        assert events[0].tier == "client" and events[0].component == "c1"
        assert events[0].attrs == {"kind": "write"}

    def test_null_observer_swallows_everything(self):
        NULL_OBSERVER.emit(OP_INVOKED, op_id="x", kind="write", anything=1)

    def test_duplicate_sinks_register_once(self):
        hub = ObserverHub()
        sink = TraceCollector()
        hub.add_sink(sink)
        hub.add_sink(sink)
        hub.scoped("client", "c1").emit(OP_INVOKED, op_id="o", trace="t")
        assert len(sink.events_for("t")) == 1


def _feed(collector, rows):
    for ts, tier, component, kind in rows:
        collector.handle(TraceEvent(ts=ts, tier=tier, component=component,
                                    kind=kind, op_id="op1", trace="t1"))


class TestTraceCollector:
    def test_untraced_events_are_ignored(self):
        collector = TraceCollector()
        collector.handle(_event(TIMER_ARMED))  # no trace id
        assert collector.trace_ids() == []
        assert collector.span_tree("missing") is None

    def test_span_tree_stitches_client_proxy_replica(self):
        collector = TraceCollector()
        _feed(collector, [
            (0.0, "client", "c1", OP_INVOKED),
            (1.0, "proxy", "p1", ROUND_OPENED),
            (2.0, "replica", "s1", SUB_SERVED),
            (2.0, "replica", "s2", SUB_SERVED),
            (3.0, "proxy", "p1", ROUND_CLOSED),
            (4.0, "client", "c1", OP_COMPLETED),
        ])
        tree = collector.span_tree("t1")
        root = tree["root"]
        assert root["tier"] == "client"
        assert root["start"] == 0.0 and root["end"] == 4.0
        (proxy_node,) = root["children"]
        assert proxy_node["tier"] == "proxy"
        assert proxy_node["start"] == 1.0 and proxy_node["end"] == 3.0
        replicas = {child["component"] for child in proxy_node["children"]}
        assert replicas == {"s1", "s2"}
        assert collector.tiers_for("t1") == ["client", "proxy", "replica"]

    def test_direct_trace_skips_the_proxy_tier(self):
        collector = TraceCollector()
        _feed(collector, [
            (0.0, "client", "c1", OP_INVOKED),
            (1.0, "replica", "s1", SUB_SERVED),
            (2.0, "client", "c1", OP_COMPLETED),
        ])
        tree = collector.span_tree("t1")
        (child,) = tree["root"]["children"]
        assert child["tier"] == "replica"

    def test_dump_writes_json_and_counts_traces(self, tmp_path):
        collector = TraceCollector()
        _feed(collector, [(0.0, "client", "c1", OP_INVOKED)])
        path = tmp_path / "trace.json"
        assert collector.dump(str(path)) == 1
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["traces"][0]["trace"] == "t1"

    def test_format_is_assertion_friendly(self):
        collector = TraceCollector()
        assert "no traces" in collector.format()
        _feed(collector, [
            (0.0, "client", "c1", OP_INVOKED),
            (1.0, "replica", "s1", SUB_SERVED),
        ])
        text = collector.format()
        assert "trace t1:" in text
        assert "client/c1" in text and "replica/s1" in text
