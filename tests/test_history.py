"""Tests for histories: well-formedness, precedence, completion."""

from __future__ import annotations

import pytest

from repro.consistency.history import History
from repro.core.operations import Operation, OpKind
from repro.core.timestamps import Tag


def op(op_id, client, kind, start, finish=None, value=None, tag=None, rtts=0):
    return Operation(
        op_id=op_id,
        client=client,
        kind=kind,
        start=start,
        finish=finish,
        value=value,
        tag=tag,
        round_trips=rtts,
    )


class TestHistoryBasics:
    def test_add_and_iterate(self):
        history = History()
        history.add(op("a", "w1", OpKind.WRITE, 0, 1))
        history.add(op("b", "r1", OpKind.READ, 2, 3))
        assert len(history) == 2
        assert [o.op_id for o in history] == ["a", "b"]

    def test_reads_and_writes(self):
        history = History.from_operations(
            [
                op("a", "w1", OpKind.WRITE, 0, 1),
                op("b", "r1", OpKind.READ, 2, 3),
                op("c", "r2", OpKind.READ, 4, 5),
            ]
        )
        assert len(history.writes) == 1
        assert len(history.reads) == 2

    def test_operation_lookup(self):
        history = History.from_operations([op("a", "w1", OpKind.WRITE, 0, 1)])
        assert history.operation("a").client == "w1"
        with pytest.raises(KeyError):
            history.operation("missing")

    def test_write_for_tag(self):
        w = op("a", "w1", OpKind.WRITE, 0, 1, tag=Tag(1, "w1"))
        history = History.from_operations([w])
        assert history.write_for_tag(Tag(1, "w1")) is w
        assert history.write_for_tag(Tag(2, "w1")) is None

    def test_by_client(self):
        history = History.from_operations(
            [
                op("a", "w1", OpKind.WRITE, 0, 1),
                op("b", "w1", OpKind.WRITE, 2, 3),
                op("c", "r1", OpKind.READ, 0, 1),
            ]
        )
        assert len(history.by_client("w1")) == 2

    def test_duration(self):
        history = History.from_operations(
            [op("a", "w1", OpKind.WRITE, 1, 4), op("b", "r1", OpKind.READ, 2, 9)]
        )
        assert history.duration() == 8
        assert History().duration() == 0.0


class TestWellFormedness:
    def test_sequential_per_client_is_well_formed(self):
        history = History.from_operations(
            [
                op("a", "w1", OpKind.WRITE, 0, 1),
                op("b", "w1", OpKind.WRITE, 2, 3),
                op("c", "r1", OpKind.READ, 0.5, 2.5),
            ]
        )
        assert history.is_well_formed()

    def test_overlapping_same_client_not_well_formed(self):
        history = History.from_operations(
            [
                op("a", "w1", OpKind.WRITE, 0, 5),
                op("b", "w1", OpKind.WRITE, 2, 3),
            ]
        )
        assert not history.is_well_formed()

    def test_pending_followed_by_new_op_not_well_formed(self):
        history = History.from_operations(
            [
                op("a", "w1", OpKind.WRITE, 0, None),
                op("b", "w1", OpKind.WRITE, 2, 3),
            ]
        )
        assert not history.is_well_formed()


class TestPrecedence:
    def test_precedes_and_concurrent(self):
        a = op("a", "w1", OpKind.WRITE, 0, 1)
        b = op("b", "r1", OpKind.READ, 2, 3)
        c = op("c", "r2", OpKind.READ, 0.5, 2.5)
        history = History.from_operations([a, b, c])
        assert history.precedes(a, b)
        assert history.concurrent(a, c)
        pairs = list(history.real_time_pairs())
        assert (a, b) in pairs and (c, b) not in pairs


class TestCompletion:
    def test_completed_only_drops_pending_reads(self):
        history = History.from_operations(
            [
                op("a", "w1", OpKind.WRITE, 0, None, tag=Tag(1, "w1")),
                op("b", "r1", OpKind.READ, 2, None),
                op("c", "r2", OpKind.READ, 2, 3, tag=Tag(1, "w1")),
            ]
        )
        completed = history.completed_only()
        ids = {o.op_id for o in completed}
        assert ids == {"a", "c"}  # pending write kept, pending read dropped

    def test_round_trip_counts(self):
        history = History.from_operations(
            [
                op("a", "w1", OpKind.WRITE, 0, 1, rtts=2),
                op("b", "r1", OpKind.READ, 2, 3, rtts=1),
                op("c", "r1", OpKind.READ, 4, None, rtts=1),
            ]
        )
        writes, reads = history.round_trip_counts()
        assert writes == [2] and reads == [1]

