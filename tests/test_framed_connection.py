"""Framing without sockets: ``FramedConnection`` against a scripted transport.

The fake transport records every ``write`` and lets the test script what
``data_received`` sees (the shape of outleap's ``MockLEAPProtocol``: a
scripted inbound side, a recorded outbound list), so chunking, oversize
headers, truncation and garbage are exercised with no event loop at all.
"""

from __future__ import annotations

from typing import List, Optional

import pytest
from hypothesis import given, strategies as st

from repro.asyncio_net.codec import MAX_FRAME_BYTES, FrameError, decode_message, encode_message
from repro.asyncio_net.framed import RECV_BYTES, FramedConnection
from repro.messages import Message

from test_codec_properties import _assert_same_message, _codec, _messages


class FakeTransport:
    """Records writes; ``close``/``abort`` deliver ``connection_lost`` at once."""

    def __init__(self, protocol: FramedConnection) -> None:
        self.protocol = protocol
        self.written: List[bytes] = []
        self.closed: Optional[str] = None
        protocol.connection_made(self)

        self.reading = True

    def write(self, data: bytes) -> None:
        self.written.append(bytes(data))

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True

    def is_closing(self) -> bool:
        return self.closed is not None

    def close(self) -> None:
        self._end("close")

    def abort(self) -> None:
        self._end("abort")

    def _end(self, how: str) -> None:
        if self.closed is None:
            self.closed = how
            self.protocol.connection_lost(None)

    def peer_closes(self) -> None:
        """EOF from the peer: what a selector transport does on ``recv() == b''``."""
        if not self.protocol.eof_received():
            self.close()


class Harness:
    def __init__(self, throttled: bool = False) -> None:
        self.frames: List[Message] = []
        self.lost: List[BaseException] = []
        self.connection = FramedConnection(
            self.frames.append, self.lost.append, throttled=throttled
        )
        self.transport = FakeTransport(self.connection)

    def feed(self, *chunks: bytes) -> None:
        for chunk in chunks:
            if self.transport.closed is None:
                self.connection.data_received(chunk)

    def feed_socket(self, stream: bytes, recv_limit: int = RECV_BYTES) -> None:
        """What a selector transport does with a ``BufferedProtocol``:
        ``recv_into(get_buffer())`` then ``buffer_updated(n)``, until dry."""
        while stream and self.transport.closed is None:
            buffer = self.connection.get_buffer(-1)
            count = min(len(buffer), len(stream), recv_limit)
            buffer[:count] = stream[:count]
            stream = stream[count:]
            self.connection.buffer_updated(count)


def _split(data: bytes, cuts: List[int]) -> List[bytes]:
    edges = [0, *sorted({cut % (len(data) + 1) for cut in cuts}), len(data)]
    return [data[a:b] for a, b in zip(edges, edges[1:]) if a < b]


PING = Message("c1", "s1", "ping", {"n": 1})
PONG = Message("s1", "c1", "pong", {"n": 2})


class TestChunking:
    @_codec
    @given(
        messages=st.lists(_messages(), min_size=1, max_size=6),
        cuts=st.lists(st.integers(min_value=0, max_value=10_000), max_size=12),
    )
    def test_any_split_yields_the_same_messages_in_order(self, messages, cuts):
        stream = b"".join(encode_message(message) for message in messages)
        harness = Harness()
        harness.feed(*_split(stream, cuts))
        assert len(harness.frames) == len(messages)
        for sent, received in zip(messages, harness.frames):
            _assert_same_message(sent, received)
        assert harness.lost == [] and harness.transport.closed is None

    @_codec
    @given(messages=st.lists(_messages(), min_size=1, max_size=4))
    def test_one_byte_chunks(self, messages):
        stream = b"".join(encode_message(message) for message in messages)
        harness = Harness()
        harness.feed(*(stream[i:i + 1] for i in range(len(stream))))
        assert [m.kind for m in harness.frames] == [m.kind for m in messages]
        for sent, received in zip(messages, harness.frames):
            _assert_same_message(sent, received)

    def test_split_inside_the_header(self):
        stream = encode_message(PING) + encode_message(PONG)
        harness = Harness()
        first = len(encode_message(PING))
        harness.feed(stream[:2], stream[2:first + 3], stream[first + 3:])
        assert [m.kind for m in harness.frames] == ["ping", "pong"]

    def test_many_frames_in_one_chunk_dispatch_in_turn(self):
        harness = Harness()
        harness.feed(encode_message(PING) * 50)
        assert len(harness.frames) == 50

    def test_a_large_frame_over_many_chunks_is_cut_once(self):
        big = Message("c1", "s1", "blob", {"data": "x" * 300_000})
        stream = encode_message(big) + encode_message(PING)
        harness = Harness()
        harness.feed(*(stream[i:i + 4096] for i in range(0, len(stream), 4096)))
        assert [m.kind for m in harness.frames] == ["blob", "ping"]
        assert harness.frames[0].payload == big.payload


class TestReceiveBuffer:
    @_codec
    @given(
        messages=st.lists(_messages(), min_size=1, max_size=6),
        recv_limit=st.integers(min_value=1, max_value=64),
    )
    def test_reads_through_the_owned_buffer_yield_the_same_messages(self, messages, recv_limit):
        harness = Harness()
        harness.feed_socket(b"".join(encode_message(m) for m in messages), recv_limit)
        assert len(harness.frames) == len(messages)
        for sent, received in zip(messages, harness.frames):
            _assert_same_message(sent, received)

    def test_a_frame_larger_than_the_buffer_takes_several_reads(self):
        big = Message("c1", "s1", "blob", {"data": "x" * (3 * RECV_BYTES)})
        harness = Harness()
        harness.feed_socket(encode_message(big) + encode_message(PING))
        assert [m.kind for m in harness.frames] == ["blob", "ping"]
        assert harness.frames[0].payload == big.payload

    def test_frames_are_decoded_in_place_and_only_a_straddling_one_is_kept(self):
        # Three frames over two reads: the first whole, the second cut by the
        # read, the third whole in the next read.  After the first read only
        # the cut frame's bytes are kept -- copied, since the next read
        # overwrites the buffer -- and the next read completes it.
        one, two, three = (encode_message(Message("c1", "s1", kind, {"n": n}))
                           for n, kind in enumerate(("a", "b", "c")))
        harness = Harness()
        cut = len(one) + 7
        stream = one + two + three
        harness.feed_socket(stream[:cut])
        assert [m.kind for m in harness.frames] == ["a"]
        assert bytes(harness.connection._pending) == two[:7]
        harness.feed_socket(stream[cut:])
        assert [m.kind for m in harness.frames] == ["a", "b", "c"]
        assert not harness.connection._pending

    def test_the_buffer_is_reused_across_reads_and_released_with_the_connection(self):
        harness = Harness()
        first = harness.connection.get_buffer(-1)
        harness.feed_socket(encode_message(PING))
        assert harness.connection.get_buffer(-1) is first
        assert len(first) == RECV_BYTES
        harness.connection.close()
        assert harness.connection._recv is None


class TestSending:
    def test_send_is_one_plain_write_per_frame(self):
        harness = Harness()
        harness.connection.send(encode_message(PING))
        harness.connection.send(encode_message(PONG))
        assert harness.transport.written == [encode_message(PING), encode_message(PONG)]
        assert decode_message(harness.transport.written[1][4:]).kind == "pong"

    def test_closing_before_connect_and_after_close(self):
        connection = FramedConnection(lambda frame: None, lambda exc: None)
        assert connection.closing  # not connected yet
        FakeTransport(connection)
        assert not connection.closing
        connection.close()
        assert connection.closing


class TestReadsPauseWhileWritesBackUp:
    """An accepted connection stops reading a peer that does not read its
    replies: ``pause_writing`` (its write buffer went over the high-water
    mark) pauses reading, and even the frames of the read in hand wait."""

    def _paused_after_first(self, harness: Harness) -> None:
        def on_frame(frame: Message) -> None:
            harness.frames.append(frame)
            if len(harness.frames) == 1:
                harness.connection.pause_writing()  # the reply backed up

        harness.connection._on_frame = on_frame

    def test_frames_behind_a_backed_up_reply_wait_for_resume_writing(self):
        harness = Harness(throttled=True)
        self._paused_after_first(harness)
        stream = b"".join(encode_message(Message("c1", "s1", f"q{n}", {}))
                          for n in range(4))
        harness.feed_socket(stream[:-5])
        assert [m.kind for m in harness.frames] == ["q0"]
        assert not harness.transport.reading
        harness.connection.resume_writing()
        assert harness.transport.reading
        assert [m.kind for m in harness.frames] == ["q0", "q1", "q2"]
        harness.feed_socket(stream[-5:])
        assert [m.kind for m in harness.frames] == ["q0", "q1", "q2", "q3"]
        assert harness.lost == [] and harness.transport.closed is None

    def test_a_dialled_connection_keeps_reading(self):
        harness = Harness()
        self._paused_after_first(harness)
        harness.feed(encode_message(PING) + encode_message(PONG))
        assert [m.kind for m in harness.frames] == ["ping", "pong"]
        assert harness.transport.reading

    def test_a_peer_gone_while_paused_is_lost_not_cut_mid_frame(self):
        harness = Harness(throttled=True)
        self._paused_after_first(harness)
        harness.feed(encode_message(PING) + encode_message(PONG))
        harness.transport.peer_closes()
        assert [m.kind for m in harness.frames] == ["ping"]
        assert len(harness.lost) == 1
        assert type(harness.lost[0]) is ConnectionResetError


class TestDeath:
    def test_oversize_header_closes_with_a_typed_error(self):
        harness = Harness()
        harness.feed((MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"xxxx")
        assert harness.transport.closed == "abort"
        assert len(harness.lost) == 1 and isinstance(harness.lost[0], FrameError)
        assert "MAX_FRAME_BYTES" in str(harness.lost[0])

    def test_truncated_stream_closes_with_a_typed_error(self):
        harness = Harness()
        harness.feed(encode_message(PING) + encode_message(PONG)[:-3])
        assert [m.kind for m in harness.frames] == ["ping"]
        harness.transport.peer_closes()
        assert len(harness.lost) == 1 and isinstance(harness.lost[0], FrameError)
        assert "mid-frame" in str(harness.lost[0])

    def test_clean_eof_reports_a_connection_error_once(self):
        harness = Harness()
        harness.feed(encode_message(PING))
        harness.transport.peer_closes()
        harness.connection.connection_lost(None)  # a second report is swallowed
        assert len(harness.lost) == 1
        assert isinstance(harness.lost[0], ConnectionError)

    def test_transport_error_is_passed_through(self):
        harness = Harness()
        boom = BrokenPipeError("write failed")
        harness.connection.connection_lost(boom)
        assert harness.lost == [boom]

    @pytest.mark.parametrize("body", [
        b"\xff\xfe not utf-8",
        b"{not json",
        b"[1, 2, 3]",
        b'"just a string"',
        b'{"receiver": "s1", "kind": "ping"}',
        b'{"sender": "c1", "kind": "ping"}',
        b'{"sender": "c1", "receiver": "s1"}',
        b"[" * 100_000,
    ])
    def test_undecodable_body_is_a_frame_error(self, body):
        with pytest.raises(FrameError):
            decode_message(body)
        harness = Harness()
        harness.feed(len(body).to_bytes(4, "big") + body)
        assert harness.frames == []
        assert harness.transport.closed == "abort"
        assert len(harness.lost) == 1 and isinstance(harness.lost[0], FrameError)

    def test_frames_queued_behind_a_bad_one_are_not_delivered(self):
        garbage = b"\x00\x00\x00\x03{{{"
        harness = Harness()
        harness.feed(encode_message(PING) + garbage + encode_message(PONG))
        assert [m.kind for m in harness.frames] == ["ping"]
        assert len(harness.lost) == 1 and isinstance(harness.lost[0], FrameError)

    def test_owner_close_is_not_a_loss(self):
        harness = Harness()
        harness.connection.close()
        assert harness.transport.closed == "close"
        assert harness.lost == []

    def test_owner_closing_inside_on_frame_stops_delivery(self):
        frames: List[Message] = []
        lost: List[BaseException] = []

        def on_frame(frame: Message) -> None:
            frames.append(frame)
            connection.close()

        connection = FramedConnection(on_frame, lost.append)
        FakeTransport(connection)
        connection.data_received(encode_message(PING) + encode_message(PONG))
        assert [m.kind for m in frames] == ["ping"]
        assert lost == []
