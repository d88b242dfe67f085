"""Unit tests for the server-side state machines."""

from __future__ import annotations

import pytest

from repro.core.timestamps import BOTTOM_TAG, Tag
from repro.kvstore.engine.server import GroupServerEngine, make_stale_reply
from repro.protocols.codec import decode_tag, encode_tag
from repro.protocols.registry import PROTOCOLS, build_protocol
from repro.protocols.server_state import TagValueServer, ValueVectorServer
from repro.messages import (
    Message,
    SubRequest,
    make_batch,
    unpack_batch_ack,
)


def query(sender="r1"):
    return Message(sender, "s1", "query")


def update(tag, value, sender="w1"):
    return Message(sender, "s1", "update", {"tag": encode_tag(tag), "value": value})


class TestTagValueServer:
    def test_initial_state(self):
        server = TagValueServer("s1")
        reply = server.handle(query())
        assert decode_tag(reply.payload["tag"]) == BOTTOM_TAG
        assert reply.payload["value"] is None
        assert reply.kind == "query-ack"

    def test_update_adopts_larger_tag(self):
        server = TagValueServer("s1")
        server.handle(update(Tag(1, "w1"), "a"))
        reply = server.handle(update(Tag(3, "w2"), "b"))
        assert decode_tag(reply.payload["tag"]) == Tag(3, "w2")
        assert server.value == "b"

    def test_update_ignores_smaller_tag(self):
        server = TagValueServer("s1")
        server.handle(update(Tag(3, "w2"), "b"))
        server.handle(update(Tag(1, "w1"), "a"))
        assert server.tag == Tag(3, "w2")
        assert server.value == "b"

    def test_tie_break_by_writer(self):
        server = TagValueServer("s1")
        server.handle(update(Tag(2, "w1"), "a"))
        server.handle(update(Tag(2, "w2"), "b"))
        assert server.value == "b"

    def test_counts(self):
        server = TagValueServer("s1")
        server.handle(query())
        server.handle(update(Tag(1, "w1"), "a"))
        assert server.queries_served == 1 and server.updates_served == 1

    def test_unknown_kind_rejected(self):
        server = TagValueServer("s1")
        with pytest.raises(ValueError):
            server.handle(Message("x", "s1", "bogus"))


def read_msg(sender, val_queue=None):
    return Message(sender, "s1", "read", {"val_queue": val_queue or {}})


def write_msg(sender, tag, value):
    return Message(sender, "s1", "write", {"tag": encode_tag(tag), "value": value})


class TestValueVectorServer:
    def test_write_then_read_vector(self):
        server = ValueVectorServer("s1")
        ack = server.handle(write_msg("w1", Tag(1, "w1"), "hello"))
        assert ack.kind == "WRITEACK"
        reply = server.handle(read_msg("r1"))
        vector = reply.payload["vector"]
        entry = vector[encode_tag(Tag(1, "w1"))]
        assert entry["value"] == "hello"
        assert set(entry["updated"]) == {"w1", "r1"}

    def test_reader_added_to_current_value(self):
        # The step Lemma 8 relies on: replying to a read records the reader in
        # the updated set of the server's *current* value.
        server = ValueVectorServer("s1")
        server.handle(write_msg("w1", Tag(2, "w1"), "v2"))
        server.handle(read_msg("r1"))
        server.handle(read_msg("r2"))
        assert server.vector[Tag(2, "w1")].updated == {"w1", "r1", "r2"}

    def test_val_queue_merged(self):
        server = ValueVectorServer("s1")
        queue = {encode_tag(Tag(5, "w2")): "vq"}
        server.handle(read_msg("r1", queue))
        assert server.current == Tag(5, "w2")
        assert server.vector[Tag(5, "w2")].value == "vq"
        assert "r1" in server.vector[Tag(5, "w2")].updated

    def test_older_value_kept_in_vector(self):
        server = ValueVectorServer("s1")
        server.handle(write_msg("w1", Tag(1, "w1"), "old"))
        server.handle(write_msg("w2", Tag(2, "w2"), "new"))
        assert Tag(1, "w1") in server.vector
        assert server.current == Tag(2, "w2")

    def test_smaller_write_does_not_regress_current(self):
        server = ValueVectorServer("s1")
        server.handle(write_msg("w2", Tag(3, "w2"), "new"))
        server.handle(write_msg("w1", Tag(1, "w1"), "late"))
        assert server.current == Tag(3, "w2")

    def test_writeack_reports_current(self):
        server = ValueVectorServer("s1")
        server.handle(write_msg("w2", Tag(3, "w2"), "new"))
        ack = server.handle(write_msg("w1", Tag(1, "w1"), "late"))
        assert decode_tag(ack.payload["tag"]) == Tag(3, "w2")

    def test_counts(self):
        server = ValueVectorServer("s1")
        server.handle(write_msg("w1", Tag(1, "w1"), "x"))
        server.handle(read_msg("r1"))
        assert server.writes_served == 1 and server.reads_served == 1

    def test_unknown_kind_rejected(self):
        server = ValueVectorServer("s1")
        with pytest.raises(ValueError):
            server.handle(Message("x", "s1", "bogus"))


class TestCodec:
    def test_tag_round_trip(self):
        for tag in (BOTTOM_TAG, Tag(1, "w1"), Tag(42, "writer-x")):
            assert decode_tag(encode_tag(tag)) == tag


# -- every replica answers as itself -------------------------------------------

SERVERS = ["s1", "s2", "s3", "s4", "s5"]


def _answer_as_themselves(protocol, client_logic, generator):
    """Run one operation against every server of ``protocol``, each request
    addressed to a group id rather than to the server, and check every reply
    leaves as its server, back to the client, under the request's identity;
    returns the round trips taken."""
    logics = {server_id: protocol.make_server(server_id) for server_id in SERVERS}
    request = next(generator)
    round_trip = 0
    try:
        while True:
            round_trip += 1
            replies = []
            for server_id, logic in logics.items():
                message = Message(
                    client_logic.client_id, "g-elsewhere", request.kind,
                    request.payload_for(server_id), "op-1", round_trip,
                    trace="t-1",
                )
                reply = logic.handle(message)
                assert reply is not None
                assert reply.sender == server_id
                assert reply.receiver == client_logic.client_id
                assert (reply.op_id, reply.round_trip, reply.trace) == \
                    ("op-1", round_trip, "t-1")
                replies.append(reply)
            request = generator.send(replies[: client_logic.quorum_size])
    except StopIteration:
        pass
    return round_trip


@pytest.mark.parametrize("key", sorted(PROTOCOLS))
def test_every_protocols_server_answers_as_itself(key):
    protocol = build_protocol(key, SERVERS, max_faults=1)
    writer = protocol.make_writer("w1")
    reader = protocol.make_reader("r1")
    assert _answer_as_themselves(protocol, writer, writer.write_protocol("v")) >= 1
    assert _answer_as_themselves(protocol, reader, reader.read_protocol()) >= 1


def test_a_stale_bounce_and_a_batch_ack_leave_as_the_replica():
    protocol = build_protocol("abd-mwmr", ["s1", "s2", "s3"], max_faults=1)
    engine = GroupServerEngine("s2", protocol, {"shard-0": 3})
    # One sub-request object, addressed to the group, as every replica of the
    # round gets it.
    query = Message("c1", "g1", "query", {}, "op-1", 1, trace="t-1")
    fresh = SubRequest("k", query, "shard-0", 3)
    stale = SubRequest("k2", query, "shard-0", 2)
    bounce = make_stale_reply(engine, stale, 3)
    assert (bounce.sender, bounce.receiver) == ("s2", "c1")
    assert (bounce.op_id, bounce.round_trip, bounce.trace) == ("op-1", 1, "t-1")
    assert bounce.payload == {"shard": "shard-0", "sent_epoch": 2, "epoch": 3}
    (send,) = engine.on_frame(make_batch("c1", "s2", [fresh, stale]))
    assert send.destination == "c1" and send.frame.sender == "s2"
    assert [reply.sender for reply in unpack_batch_ack(send.frame)] == \
        ["s2", "s2"]
