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
  happens to end there.
* **Sending.**  :meth:`send` is a plain ``transport.write`` of an already
  encoded frame.  The transport buffers what the socket does not take at
  once; nobody waits for it to drain.
* **Dying.**  However the connection ends without the owner having asked --
  the peer closed or reset it, a write failed, the stream ended mid-frame,
  a length header exceeded ``MAX_FRAME_BYTES``, a body would not decode or
  decoded to the wrong shape (one ``FrameError`` either way) --
  ``on_lost`` is called exactly once, from ``connection_lost``, with the
  reason.  A connection ended by the owner's own :meth:`close` is not "lost"
  and reports nothing.

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
    """Length-prefixed frames over one TCP connection, dispatched in-turn."""

    def __init__(
        self,
        on_frame: Callable[[Message], None],
        on_lost: Callable[[BaseException], None],
    ) -> None:
        self._on_frame = on_frame
        self._on_lost = on_lost
        self._transport: Optional[asyncio.Transport] = None
        self._recv: Optional[memoryview] = None  # held while connected
        # Bytes of an incomplete frame, and how many of them must be there
        # before another parse can make progress (a whole header, then a
        # whole frame): a large frame arriving in many chunks is appended
        # chunk by chunk and cut once.
        self._pending = bytearray()
        self._needed = _HEADER.size
        self._error: Optional[BaseException] = None
        self._done = False  # closed by the owner, or already reported lost

    # -- the owner's side --------------------------------------------------------

    @property
    def closing(self) -> bool:
        """True once frames can no longer be sent (not yet, or no longer, open)."""
        return self._transport is None or self._transport.is_closing()

    def send(self, data: bytes) -> None:
        """Queue one encoded frame; appended whole, so sends never interleave."""
        self._transport.write(data)

    def close(self) -> None:
        """Close deliberately: buffered frames are flushed, nothing is reported."""
        self._done = True
        if self._transport is not None:
            self._transport.close()

    # -- the transport's side ----------------------------------------------------

    def connection_made(self, transport) -> None:
        self._transport = transport
        self._recv = memoryview(bytearray(RECV_BYTES))

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._recv

    def buffer_updated(self, nbytes: int) -> None:
        self.data_received(bytes(self._recv[:nbytes]))

    def data_received(self, data: bytes) -> None:
        if self._pending:
            self._pending += data
            if len(self._pending) < self._needed:
                return
            data = bytes(self._pending)
            self._pending.clear()
        header = _HEADER.size
        start, end = 0, len(data)
        self._needed = header
        while end - start >= header:
            (length,) = _HEADER.unpack_from(data, start)
            if length > MAX_FRAME_BYTES:
                self._fail(FrameError(
                    f"incoming frame of {length} bytes exceeds MAX_FRAME_BYTES"
                ))
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
                return  # the owner closed this connection from inside on_frame
        if start < end:
            self._pending += data[start:]

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self._recv = None
        if self._done:
            return
        self._done = True
        if self._error is not None:
            exc = self._error
        elif exc is None and self._pending:
            exc = FrameError(
                f"connection closed mid-frame ({len(self._pending)} of "
                f"{self._needed} bytes received)"
            )
        elif exc is None:
            exc = ConnectionResetError("connection closed by peer")
        self._on_lost(exc)

    def _fail(self, exc: FrameError) -> None:
        """A framing violation: keep the reason and drop the connection now."""
        self._error = exc
        self._transport.abort()
