"""Unit tests of protocol client logic through the synchronous DirectDriver."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ConfigurationError, QuorumUnavailableError
from repro.core.operations import OpKind
from repro.core.timestamps import BOTTOM_TAG, Tag
from repro.messages import Message
from repro.protocols.abd_mwmr import AbdMwmrReader, OpportunisticReader, quorum_agrees
from repro.protocols.base import DirectDriver
from repro.protocols.codec import encode_tag
from repro.protocols.registry import PROTOCOLS, build_protocol, protocol_for_point
from repro.core.fastness import DesignPoint
from repro.util.ids import server_ids

SERVERS = server_ids(5)


def make_driver(protocol):
    servers = {sid: protocol.make_server(sid) for sid in protocol.servers}
    return DirectDriver(servers, protocol.max_faults)


class TestAbdMwmr:
    def setup_method(self):
        self.protocol = build_protocol("abd-mwmr", SERVERS, 1)
        self.driver = make_driver(self.protocol)

    def test_write_assigns_increasing_tags(self):
        writer1 = self.protocol.make_writer("w1")
        writer2 = self.protocol.make_writer("w2")
        first = self.driver.run_operation(writer1, writer1.write_protocol("a"), "op1")
        second = self.driver.run_operation(writer2, writer2.write_protocol("b"), "op2")
        assert first.tag == Tag(1, "w1")
        assert second.tag == Tag(2, "w2")
        assert second.tag > first.tag

    def test_read_returns_latest(self):
        writer = self.protocol.make_writer("w1")
        reader = self.protocol.make_reader("r1")
        self.driver.run_operation(writer, writer.write_protocol("a"), "op1")
        self.driver.run_operation(writer, writer.write_protocol("b"), "op2")
        outcome = self.driver.run_operation(reader, reader.read_protocol(), "op3")
        assert outcome.kind is OpKind.READ
        assert outcome.value == "b"
        assert outcome.tag == Tag(2, "w1")

    def test_read_of_initial_value(self):
        reader = self.protocol.make_reader("r1")
        outcome = self.driver.run_operation(reader, reader.read_protocol(), "op1")
        assert outcome.tag == BOTTOM_TAG
        assert outcome.value is None

    def test_writer_cannot_read_and_vice_versa(self):
        writer = self.protocol.make_writer("w1")
        reader = self.protocol.make_reader("r1")
        with pytest.raises(NotImplementedError):
            next(writer.read_protocol())
        with pytest.raises(NotImplementedError):
            next(reader.write_protocol("x"))

    def test_operations_use_two_round_trips(self):
        writer = self.protocol.make_writer("w1")
        outcome = self.driver.run_operation(writer, writer.write_protocol("a"), "op1")
        assert outcome.metadata["round_trips"] == 2

    def test_read_writes_back(self):
        # After a read, the chosen value must be on a quorum even if the
        # original write only reached part of the servers.
        writer = self.protocol.make_writer("w1")
        reader = self.protocol.make_reader("r1")
        partial = SERVERS[:4]
        self.driver.run_operation(
            writer, writer.write_protocol("a"), "op1", server_order=partial,
            respond_from=partial,
        )
        self.driver.run_operation(reader, reader.read_protocol(), "op2")
        holding = [
            sid for sid, logic in self.driver.servers.items() if logic.value == "a"
        ]
        assert len(holding) == len(SERVERS)


class TestOpportunisticReader:
    """The store's reader: the write-back runs only when the quorum is split."""

    SERVERS3 = server_ids(3)

    def setup_method(self):
        self.protocol = build_protocol("abd-mwmr", self.SERVERS3, 1)
        self.driver = make_driver(self.protocol)

    def updates_served(self):
        return sum(logic.updates_served for logic in self.driver.servers.values())

    def land(self, server_id, tag, value):
        """Apply one update at one server only: a write caught mid-flight."""
        self.driver.servers[server_id].handle(
            Message("w2", server_id, "update", {"tag": encode_tag(tag), "value": value})
        )

    def read(self, op_id, respond_from=None):
        reader = self.protocol.make_opportunistic_reader("r1")
        return self.driver.run_operation(
            reader, reader.read_protocol(), op_id, respond_from=respond_from
        )

    def test_unanimous_quorum_reads_in_one_round_without_an_update(self):
        writer = self.protocol.make_writer("w1")
        self.driver.run_operation(writer, writer.write_protocol("a"), "op1")
        before = self.updates_served()
        outcome = self.read("op2")
        assert (outcome.value, outcome.tag) == ("a", Tag(1, "w1"))
        assert outcome.metadata["round_trips"] == 1
        assert outcome.metadata["fast_path"] is True
        assert self.updates_served() == before  # no update broadcast at all

    def test_initial_value_is_unanimous_too(self):
        outcome = self.read("op1")
        assert outcome.tag == BOTTOM_TAG and outcome.value is None
        assert outcome.metadata["round_trips"] == 1

    def test_split_quorum_writes_back_the_max_and_later_reads_never_go_back(self):
        writer = self.protocol.make_writer("w1")
        self.driver.run_operation(writer, writer.write_protocol("a"), "op1")
        self.land("s1", Tag(2, "w2"), "b")  # the new value is on one server
        outcome = self.read("op2", respond_from=["s1", "s2"])  # {new, old}
        assert (outcome.value, outcome.tag) == ("b", Tag(2, "w2"))
        assert outcome.metadata["round_trips"] == 2
        assert outcome.metadata["fast_path"] is False
        assert all(
            logic.tag == Tag(2, "w2") for logic in self.driver.servers.values()
        )
        # Whichever quorum answers next holds the written-back value, so the
        # following read is fast *and* cannot return the older one.
        for op_id, quorum in [("op3", ["s2", "s3"]), ("op4", ["s1", "s3"])]:
            later = self.read(op_id, respond_from=quorum)
            assert later.value == "b"
            assert later.metadata["round_trips"] == 1

    def test_a_quorum_that_misses_the_new_value_still_agrees(self):
        # The in-flight write has completed nowhere the reader looks: the old
        # value is unanimous on a quorum, so returning it in one round is the
        # linearization "read before write".
        writer = self.protocol.make_writer("w1")
        self.driver.run_operation(writer, writer.write_protocol("a"), "op1")
        self.land("s1", Tag(2, "w2"), "b")
        outcome = self.read("op2", respond_from=["s2", "s3"])
        assert outcome.value == "a" and outcome.metadata["round_trips"] == 1

    def test_fewer_replies_than_a_quorum_never_count_as_agreement(self):
        acks = [
            Message("s1", "r1", "query-ack", {"tag": encode_tag(Tag(1, "w1"))}),
        ]
        assert quorum_agrees(acks + acks, quorum_size=2)
        assert not quorum_agrees(acks, quorum_size=2)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_outcome_matches_a_full_scan_over_unanimous_and_split_quorums(
        self, data
    ):
        # The reader decodes one tag when the quorum agrees and scans every
        # reply otherwise; either way its (value, tag, fast_path) is the
        # textbook scan's: the first reply holding the largest tag wins, and
        # the bottom tag reads as no value.
        tags = st.builds(
            Tag, ts=st.integers(min_value=0, max_value=2),
            wid=st.sampled_from(["", "w1", "w2"]),
        )
        values = st.one_of(st.none(), st.sampled_from(["a", "b"]))
        size = data.draw(st.integers(min_value=2, max_value=3), label="replies")
        if data.draw(st.booleans(), label="unanimous"):
            tag = data.draw(tags, label="tag")
            pairs = [(tag, data.draw(values)) for _ in range(size)]
        else:
            pairs = data.draw(
                st.lists(st.tuples(tags, values), min_size=size, max_size=size),
                label="pairs",
            )
        acks = [
            Message(f"s{index}", "r1", "query-ack",
                    {"tag": encode_tag(tag), "value": value})
            for index, (tag, value) in enumerate(pairs, 1)
        ]
        best_tag, best_value = BOTTOM_TAG, None
        for tag, value in pairs:
            if tag > best_tag:
                best_tag, best_value = tag, value
        unanimous = len({tag for tag, _ in pairs}) == 1
        reader = self.protocol.make_opportunistic_reader("r1")
        generator = reader.read_protocol()
        assert next(generator).kind == "query"
        try:
            update = generator.send(acks)
        except StopIteration as stop:
            outcome = stop.value
        else:
            assert update.payload == {
                "tag": encode_tag(best_tag), "value": best_value,
            }
            with pytest.raises(StopIteration) as stop:
                generator.send(acks)
            outcome = stop.value.value
        assert (outcome.value, outcome.tag, outcome.metadata["fast_path"]) == \
            (best_value, best_tag, unanimous)

    def test_registry_reader_is_still_the_textbook_one(self):
        assert type(self.protocol.make_reader("r1")) is AbdMwmrReader
        assert type(self.protocol.make_opportunistic_reader("r1")) is OpportunisticReader
        for key, spec in PROTOCOLS.items():
            if key == "abd-mwmr":
                continue
            other = build_protocol(key, server_ids(9), 1)
            assert type(other.make_opportunistic_reader("r1")) is type(
                other.make_reader("r1")
            ), key


class TestFastReadMwmr:
    def setup_method(self):
        self.protocol = build_protocol("fast-read-mwmr", SERVERS, 1)
        self.driver = make_driver(self.protocol)

    def test_write_then_fast_read(self):
        writer = self.protocol.make_writer("w1")
        reader = self.protocol.make_reader("r1")
        write_outcome = self.driver.run_operation(writer, writer.write_protocol("a"), "op1")
        read_outcome = self.driver.run_operation(reader, reader.read_protocol(), "op2")
        assert write_outcome.metadata["round_trips"] == 2
        assert read_outcome.metadata["round_trips"] == 1
        assert read_outcome.value == "a"
        assert read_outcome.tag == Tag(1, "w1")

    def test_reader_val_queue_grows(self):
        writer = self.protocol.make_writer("w1")
        reader = self.protocol.make_reader("r1")
        self.driver.run_operation(writer, writer.write_protocol("a"), "op1")
        self.driver.run_operation(reader, reader.read_protocol(), "op2")
        assert Tag(1, "w1") in reader.val_queue

    def test_sequential_writers_get_increasing_tags(self):
        w1 = self.protocol.make_writer("w1")
        w2 = self.protocol.make_writer("w2")
        a = self.driver.run_operation(w1, w1.write_protocol("a"), "op1")
        b = self.driver.run_operation(w2, w2.write_protocol("b"), "op2")
        c = self.driver.run_operation(w1, w1.write_protocol("c"), "op3")
        assert a.tag < b.tag < c.tag

    def test_successive_reads_monotonic(self):
        writer = self.protocol.make_writer("w1")
        r1 = self.protocol.make_reader("r1")
        r2 = self.protocol.make_reader("r2")
        self.driver.run_operation(writer, writer.write_protocol("a"), "op1")
        first = self.driver.run_operation(r1, r1.read_protocol(), "op2")
        self.driver.run_operation(writer, writer.write_protocol("b"), "op3")
        second = self.driver.run_operation(r2, r2.read_protocol(), "op4")
        assert second.tag >= first.tag

    def test_condition_enforced(self):
        with pytest.raises(ConfigurationError):
            build_protocol("fast-read-mwmr", server_ids(4), 1, readers=2)

    def test_condition_can_be_disabled(self):
        protocol = build_protocol(
            "fast-read-mwmr", server_ids(4), 1, readers=2, enforce_condition=False
        )
        assert protocol.readers == 2

    def test_naive_reader_flag(self):
        protocol = build_protocol("fast-read-mwmr", SERVERS, 1, naive_reads=True)
        reader = protocol.make_reader("r1")
        assert reader.naive


class TestSingleWriterProtocols:
    def test_abd_swmr_fast_write(self):
        protocol = build_protocol("abd-swmr", SERVERS, 1)
        driver = make_driver(protocol)
        writer = protocol.make_writer("w1")
        outcome = driver.run_operation(writer, writer.write_protocol("a"), "op1")
        assert outcome.metadata["round_trips"] == 1
        assert outcome.tag == Tag(1, "w1")

    def test_abd_swmr_rejects_two_writers(self):
        # Instantiating the factory directly with two writers is an error;
        # build_protocol silently clamps single-writer protocols to one writer.
        with pytest.raises(ConfigurationError):
            PROTOCOLS["abd-swmr"].factory(SERVERS, 1, readers=2, writers=2)
        clamped = build_protocol("abd-swmr", SERVERS, 1, writers=2)
        assert clamped.writers == 1

    def test_fast_swmr_both_fast(self):
        protocol = build_protocol("fast-swmr", SERVERS, 1)
        driver = make_driver(protocol)
        writer = protocol.make_writer("w1")
        reader = protocol.make_reader("r1")
        w = driver.run_operation(writer, writer.write_protocol("a"), "op1")
        r = driver.run_operation(reader, reader.read_protocol(), "op2")
        assert w.metadata["round_trips"] == 1
        assert r.metadata["round_trips"] == 1
        assert r.value == "a"

    def test_fast_swmr_condition(self):
        with pytest.raises(ConfigurationError):
            build_protocol("fast-swmr", server_ids(4), 1, readers=2)

    def test_semifast_fast_path_when_stable(self):
        protocol = build_protocol("semifast-swmr", SERVERS, 1)
        driver = make_driver(protocol)
        writer = protocol.make_writer("w1")
        reader = protocol.make_reader("r1")
        driver.run_operation(writer, writer.write_protocol("a"), "op1")
        outcome = driver.run_operation(reader, reader.read_protocol(), "op2")
        assert outcome.metadata["fast_path"] is True
        assert outcome.metadata["round_trips"] == 1

    def test_semifast_slow_path_when_unstable(self):
        protocol = build_protocol("semifast-swmr", SERVERS, 1)
        driver = make_driver(protocol)
        writer = protocol.make_writer("w1")
        reader = protocol.make_reader("r1")
        # The write reaches only two servers (it does not complete), so the
        # reader sees a non-unanimous picture and takes the slow path.
        partial = SERVERS[:2]
        try:
            driver.run_operation(
                writer, writer.write_protocol("a"), "op1",
                server_order=partial, respond_from=partial,
            )
        except QuorumUnavailableError:
            pass
        outcome = driver.run_operation(reader, reader.read_protocol(), "op2")
        assert outcome.metadata["fast_path"] is False
        assert outcome.metadata["round_trips"] == 2
        assert outcome.value == "a"


class TestCandidateProtocols:
    def test_fast_write_attempt_uses_one_round_trip(self):
        protocol = build_protocol("fast-write-attempt", SERVERS, 1)
        driver = make_driver(protocol)
        writer = protocol.make_writer("w1")
        outcome = driver.run_operation(writer, writer.write_protocol("a"), "op1")
        assert outcome.metadata["round_trips"] == 1

    def test_fast_write_attempt_tags_can_invert(self):
        # The defect the impossibility theorem predicts: a later write by a
        # different writer can carry a smaller tag.
        protocol = build_protocol("fast-write-attempt", SERVERS, 1)
        driver = make_driver(protocol)
        w1 = protocol.make_writer("w1")
        w2 = protocol.make_writer("w2")
        driver.run_operation(w1, w1.write_protocol("a"), "op1")
        second = driver.run_operation(w1, w1.write_protocol("b"), "op2")
        third = driver.run_operation(w2, w2.write_protocol("c"), "op3")
        assert third.tag < second.tag  # real-time later, tag smaller

    def test_fast_rw_attempt_single_round_trips(self):
        protocol = build_protocol("fast-rw-attempt", SERVERS, 1)
        driver = make_driver(protocol)
        writer = protocol.make_writer("w1")
        reader = protocol.make_reader("r1")
        w = driver.run_operation(writer, writer.write_protocol("a"), "op1")
        r = driver.run_operation(reader, reader.read_protocol(), "op2")
        assert w.metadata["round_trips"] == 1 and r.metadata["round_trips"] == 1


class TestRegistry:
    def test_all_registered_protocols_instantiate(self):
        for key, spec in PROTOCOLS.items():
            if key in ("fast-read-mwmr", "fast-swmr"):
                protocol = build_protocol(key, server_ids(7), 1)
            else:
                protocol = build_protocol(key, SERVERS, 1)
            assert protocol.name
            assert protocol.describe()["servers"] in (5, 7)

    def test_protocol_for_point(self):
        assert protocol_for_point(DesignPoint.W2R2).key == "abd-mwmr"
        assert protocol_for_point(DesignPoint.W2R1).key == "fast-read-mwmr"
        assert protocol_for_point(DesignPoint.W1R1, multi_writer=False).key == "fast-swmr"

    def test_unknown_protocol_rejected(self):
        with pytest.raises(KeyError):
            build_protocol("nope", SERVERS, 1)

    def test_claimed_round_trips_match_design_point(self):
        for spec in PROTOCOLS.values():
            factory = spec.factory
            assert factory.write_round_trips in (1, 2)
            assert factory.read_round_trips in (1, 2)
            assert DesignPoint.from_round_trips(
                factory.write_round_trips, factory.read_round_trips
            ) is spec.design_point


class TestDirectDriverMechanics:
    def test_quorum_unavailable(self):
        protocol = build_protocol("abd-mwmr", SERVERS, 1)
        driver = make_driver(protocol)
        writer = protocol.make_writer("w1")
        with pytest.raises(QuorumUnavailableError):
            driver.run_operation(
                writer, writer.write_protocol("a"), "op1", respond_from=["s1", "s2"]
            )

    def test_server_order_controls_processing(self):
        protocol = build_protocol("abd-mwmr", SERVERS, 1)
        driver = make_driver(protocol)
        writer = protocol.make_writer("w1")
        order = list(reversed(SERVERS))
        outcome = driver.run_operation(
            writer, writer.write_protocol("a"), "op1", server_order=order
        )
        assert outcome.tag == Tag(1, "w1")
