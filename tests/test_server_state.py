"""Unit tests for the server-side state machines."""

from __future__ import annotations

import pytest

from repro.core.timestamps import BOTTOM_TAG, Tag
from repro.protocols.codec import decode_tag, encode_tag
from repro.protocols.server_state import TagValueServer, ValueVectorServer
from repro.messages import Message


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

    def test_pruning_keeps_recent_and_current(self):
        server = ValueVectorServer("s1", prune_to=2)
        for i in range(1, 6):
            server.handle(write_msg("w1", Tag(i, "w1"), f"v{i}"))
        assert server.current == Tag(5, "w1")
        assert Tag(5, "w1") in server.vector
        assert BOTTOM_TAG in server.vector
        assert len(server.vector) <= 4

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
