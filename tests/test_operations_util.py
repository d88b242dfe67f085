"""Tests for operation records and the small utility modules."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.operations import Operation, OpKind, new_op_id
from repro.util.ids import IdGenerator, client_ids, server_ids
from repro.util.rng import SeededRng
from repro.util.stats import percentile, summarize


class TestOperations:
    def test_new_op_id_unique(self):
        ids = {new_op_id("x") for _ in range(100)}
        assert len(ids) == 100

    def test_precedes(self):
        a = Operation("a", "w1", OpKind.WRITE, start=0.0, finish=1.0)
        b = Operation("b", "r1", OpKind.READ, start=2.0, finish=3.0)
        assert a.precedes(b)
        assert not b.precedes(a)
        assert not a.concurrent_with(b)

    def test_concurrent(self):
        a = Operation("a", "w1", OpKind.WRITE, start=0.0, finish=5.0)
        b = Operation("b", "r1", OpKind.READ, start=2.0, finish=3.0)
        assert a.concurrent_with(b) and b.concurrent_with(a)

    def test_pending_never_precedes(self):
        a = Operation("a", "w1", OpKind.WRITE, start=0.0, finish=None)
        b = Operation("b", "r1", OpKind.READ, start=10.0, finish=11.0)
        assert not a.precedes(b)
        assert b.precedes(a) is False  # b finished before a started? no: a started at 0

    def test_latency(self):
        op = Operation("a", "w1", OpKind.WRITE, start=1.0, finish=3.5)
        assert op.latency == pytest.approx(2.5)
        assert Operation("b", "w1", OpKind.WRITE, start=1.0).latency is None

    def test_kind_predicates(self):
        read = Operation("a", "r1", OpKind.READ, start=0.0)
        write = Operation("b", "w1", OpKind.WRITE, start=0.0)
        assert read.is_read and not read.is_write
        assert write.is_write and not write.is_read


class TestIds:
    def test_server_ids(self):
        assert server_ids(3) == ["s1", "s2", "s3"]

    def test_client_ids(self):
        assert client_ids("r", 2) == ["r1", "r2"]

    def test_generator(self):
        gen = IdGenerator("op")
        assert gen.next() == "op-1"
        assert gen.next() == "op-2"


class TestRng:
    def test_deterministic(self):
        a, b = SeededRng(42), SeededRng(42)
        assert [a.randint(0, 100) for _ in range(10)] == [
            b.randint(0, 100) for _ in range(10)
        ]

    def test_different_seeds_differ(self):
        a, b = SeededRng(1), SeededRng(2)
        assert [a.randint(0, 10**6) for _ in range(5)] != [
            b.randint(0, 10**6) for _ in range(5)
        ]

    def test_fork_independent(self):
        parent = SeededRng(7)
        child = parent.fork(1)
        assert child.seed != parent.seed

    def test_sample_and_shuffle_preserve_elements(self):
        rng = SeededRng(3)
        population = list(range(20))
        sample = rng.sample(population, 5)
        assert len(sample) == 5 and set(sample) <= set(population)
        shuffled = rng.shuffle(population)
        assert sorted(shuffled) == population
        assert population == list(range(20))  # original untouched

    def test_zipf_index_in_range(self):
        rng = SeededRng(5)
        for _ in range(100):
            assert 0 <= rng.zipf_index(10, skew=1.2) < 10

    def test_zipf_rejects_empty(self):
        with pytest.raises(ValueError):
            SeededRng(0).zipf_index(0)

    def test_zipf_skews_to_small_indices(self):
        rng = SeededRng(11)
        draws = [rng.zipf_index(50, skew=1.5) for _ in range(500)]
        assert draws.count(0) > draws.count(25)


class TestStats:
    def test_percentile_basics(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 100) == 4.0
        assert percentile(samples, 50) == pytest.approx(2.5)

    def test_percentile_rejects_empty(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_percentile_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1.0], 120)

    def test_summarize(self):
        stats = summarize([5.0, 1.0, 3.0])
        assert stats.count == 3
        assert stats.minimum == 1.0 and stats.maximum == 5.0
        assert stats.mean == pytest.approx(3.0)
        assert stats.as_dict()["p50"] == 3.0

    def test_summarize_empty(self):
        stats = summarize([])
        assert stats.count == 0 and stats.mean == 0.0

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
    def test_percentiles_within_bounds(self, samples):
        stats = summarize(samples)
        assert stats.minimum <= stats.p50 <= stats.maximum
        assert stats.p50 <= stats.p95 <= stats.p99 <= stats.maximum
