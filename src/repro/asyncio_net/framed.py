"""One connection class for every hot endpoint: frames in, frames out.

:class:`FramedConnection` is an asyncio protocol speaking the wire format of
:mod:`repro.asyncio_net.codec` (4-byte big-endian length, then one JSON
array whose typed payloads are positional rows), with no stream objects and
no reader task between the socket and the owner:

* **Receiving.**  ``data_received`` cuts whatever chunk the socket produced
  into frames -- several frames in one chunk, a frame (or its header) split
  over many chunks -- and hands each decoded
  :class:`~repro.messages.Message` -- its sub-requests and replies already
  the typed records the engines unpack -- to the owner's ``on_frame`` *in the
  same event-loop turn*.  No task wakes up and nothing is awaited per frame.
  The socket is read into one small buffer the connection owns
  (:class:`asyncio.BufferedProtocol`), because a plain protocol makes the
  transport allocate -- and glibc trim -- a fresh 256 KiB ``bytes`` for
  every ``recv``, which costs a page fault per frame whenever the heap
  happens to end there.  Frames are decoded in place, from a view of that
  buffer; only the bytes of a frame that straddles two reads are copied,
  since the next read overwrites the buffer.
* **Sending.**  :meth:`send` is a plain ``transport.write`` of an already
  encoded frame (the hot owners write to :attr:`transport` themselves,
  after one ``is_closing()``).  The transport buffers what the socket does
  not take at once; nobody waits for it to drain.
* **Throttling.**  An accepted connection (``throttled``) stops reading
  from its peer while its write buffer is over the transport's high-water
  mark (``pause_writing``), the frames of the read in hand included, and
  reads on at ``resume_writing``: a peer that does not read its replies
  stops being served, and no other peer notices.  A dialled connection
  keeps reading, so a replica and the link or proxy that dialled it never
  wait on each other.
* **Dying.**  However the connection ends without the owner having asked --
  the peer closed or reset it, a write failed, the stream ended mid-frame,
  a length header exceeded ``MAX_FRAME_BYTES``, a body would not decode or
  decoded to the wrong shape (one ``FrameError`` either way) --
  ``on_lost`` is called exactly once, from ``connection_lost``, with the
  reason.  A connection ended by the owner's own :meth:`close` is not "lost"
  and reports nothing; one closed before its transport arrived closes that
  transport on arrival.

A malformed frame condemns only its own connection: frames queued behind it
in the same chunk are not delivered, the transport is aborted, and the owner
learns of it through the same ``on_lost`` path as any other death.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Optional

from ..messages import Message
from .codec import _HEADER, MAX_FRAME_BYTES, FrameError, decode_message

__all__ = ["FramedConnection"]

#: Size of a connection's receive buffer.  Nearly every frame this library
#: produces fits (a 64-way merged batch is ~18 KiB); a larger one simply
#: takes several reads.
RECV_BYTES = 16 * 1024


class FramedConnection(asyncio.BufferedProtocol):
    """Length-prefixed frames over one stream connection, dispatched in-turn.

    ``throttled`` (an accepted connection) stops reading from its peer while
    its own write buffer is over the transport's high-water mark.
    """

    def __init__(
        self,
        on_frame: Callable[[Message], None],
        on_lost: Callable[[BaseException], None],
        throttled: bool = False,
    ) -> None:
        self._on_frame = on_frame
        self._on_lost = on_lost
        self._throttled = throttled
        #: The transport, once made; a sender checks ``is_closing()`` on it
        #: once and writes to it directly.
        self.transport: Optional[asyncio.Transport] = None
        self._recv: Optional[memoryview] = None  # held while connected
        # Bytes of an incomplete frame, and how many of them must be there
        # before it is whole (a whole header, then a whole frame): a large
        # frame arriving in many chunks is appended chunk by chunk and cut
        # once.  While reading is paused, the unparsed rest of the chunk.
        self._pending = bytearray()
        self._needed = _HEADER.size
        self._paused = False  # reading, while the write buffer drains
        self._error: Optional[BaseException] = None
        self._done = False  # closed by the owner, or already reported lost

    # -- the owner's side --------------------------------------------------------

    @property
    def closing(self) -> bool:
        """True once frames can no longer be sent (not yet, or no longer, open)."""
        return self.transport is None or self.transport.is_closing()

    def send(self, data: bytes) -> None:
        """Queue one encoded frame; appended whole, so sends never interleave."""
        self.transport.write(data)

    def close(self) -> None:
        """Close deliberately: buffered frames are flushed, nothing is reported."""
        self._done = True
        if self.transport is not None:
            self.transport.close()

    # -- the transport's side ----------------------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport
        self._recv = memoryview(bytearray(RECV_BYTES))
        if self._done:
            transport.close()  # its owner closed it before it was made

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._recv

    def buffer_updated(self, nbytes: int) -> None:
        # Decoded in place: the next read overwrites the buffer, so only the
        # bytes ``data_received`` keeps are copied.
        self.data_received(self._recv[:nbytes])

    def data_received(self, data) -> None:
        """Cut ``data`` (any bytes-like object) into frames and deliver them."""
        pending = self._pending
        if self._paused:
            pending += data
            return
        header = _HEADER.size
        start, end = 0, len(data)
        if pending:
            # The frame that straddles the previous read: complete its
            # header, then its body, from the front of this one.
            if len(pending) < header:
                start = header - len(pending)
                pending += data[:start]
                if len(pending) < header:
                    return
                (length,) = _HEADER.unpack_from(pending)
                if length > MAX_FRAME_BYTES:
                    self._fail_oversized(length)
                    return
                self._needed = header + length
            taken = start + self._needed - len(pending)
            pending += data[start:taken]
            start = taken
            if len(pending) < self._needed:
                return
            del pending[:header]
            try:
                message = decode_message(pending)
            except FrameError as exc:
                self._fail(exc)
                return
            pending.clear()
            self._needed = header
            self._on_frame(message)
            if self._done:
                return  # the owner closed this connection from inside on_frame
            if self._paused:
                pending += data[start:]
                return
        while end - start >= header:
            (length,) = _HEADER.unpack_from(data, start)
            if length > MAX_FRAME_BYTES:
                self._fail_oversized(length)
                return
            stop = start + header + length
            if stop > end:
                self._needed = header + length
                break
            try:
                message = decode_message(data[start + header:stop])
            except FrameError as exc:
                self._fail(exc)
                return
            start = stop
            self._on_frame(message)
            if self._done:
                return
            if self._paused:
                break
        if start < end:
            pending += data[start:]

    def pause_writing(self) -> None:
        # The peer is not reading its replies: stop reading its requests
        # (the frames of this read already received wait in ``_pending``).
        if self._throttled:
            self._paused = True
            self.transport.pause_reading()

    def resume_writing(self) -> None:
        if not self._paused:
            return
        self._paused = False
        if self._done:
            return
        self.transport.resume_reading()
        if self._pending:
            held = bytes(self._pending)
            self._pending.clear()
            self._needed = _HEADER.size
            self.data_received(held)

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self._recv = None
        if self._done:
            return
        self._done = True
        if self._error is not None:
            exc = self._error
        elif exc is None and self._pending and not self._paused:
            exc = FrameError(
                f"connection closed mid-frame ({len(self._pending)} of "
                f"{self._needed} bytes received)"
            )
        elif exc is None:
            exc = ConnectionResetError("connection closed by peer")
        self._on_lost(exc)

    def _fail_oversized(self, length: int) -> None:
        self._fail(FrameError(
            f"incoming frame of {length} bytes exceeds MAX_FRAME_BYTES"
        ))

    def _fail(self, exc: FrameError) -> None:
        """A framing violation: keep the reason and drop the connection now."""
        self._error = exc
        self.transport.abort()
