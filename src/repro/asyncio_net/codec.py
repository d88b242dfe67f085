"""Length-prefixed JSON framing for the asyncio transport.

One frame is a 4-byte big-endian length header followed by a JSON body.  The
body is a single :class:`~repro.messages.Message`; batch frames (used by
:mod:`repro.kvstore` to coalesce several sub-requests into one round) are
ordinary messages of kind ``"batch"``/``"batch-ack"`` whose payload packs the
sub-messages -- including each sub-request's (shard, epoch) routing tag, the
fence that makes live rebalancing safe -- so the wire format needs no second
framing layer: :func:`encode_batch_frame`/:func:`decode_batch_frame` are the
convenience composition of both layers.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, List, Sequence

from ..messages import (
    Message,
    ProxySubReply,
    ProxySubRequest,
    SubRequest,
    make_batch,
    make_drain_install,
    make_drain_transfer,
    make_lease_grant,
    make_lease_invalidate,
    make_lease_release,
    make_proxy_ack,
    make_proxy_request,
    make_view_push,
    unpack_batch,
    unpack_drain_install,
    unpack_drain_transfer,
    unpack_lease_grant,
    unpack_lease_invalidate,
    unpack_lease_release,
    unpack_proxy_ack,
    unpack_proxy_request,
    unpack_view_push,
)

__all__ = [
    "MAX_FRAME_BYTES",
    "FrameError",
    "encode_message",
    "decode_message",
    "encode_batch_frame",
    "decode_batch_frame",
    "encode_proxy_frame",
    "decode_proxy_frame",
    "encode_proxy_ack_frame",
    "decode_proxy_ack_frame",
    "encode_view_push_frame",
    "decode_view_push_frame",
    "encode_drain_transfer_frame",
    "decode_drain_transfer_frame",
    "encode_drain_install_frame",
    "decode_drain_install_frame",
    "encode_lease_grant_frame",
    "decode_lease_grant_frame",
    "encode_lease_invalidate_frame",
    "decode_lease_invalidate_frame",
    "encode_lease_release_frame",
    "decode_lease_release_frame",
    "read_frame",
    "write_frame",
]

_HEADER = struct.Struct("!I")

#: Upper bound on a frame body.  Large enough for any batch this library
#: produces (thousands of sub-operations), small enough to fail fast when a
#: peer sends garbage that parses as an absurd length header.
MAX_FRAME_BYTES = 16 * 1024 * 1024


class FrameError(ValueError):
    """A frame that cannot be encoded or decoded safely."""


def encode_message(message: Message) -> bytes:
    """Serialize a message to a length-prefixed JSON frame."""
    fields = {
        "sender": message.sender,
        "receiver": message.receiver,
        "kind": message.kind,
        "payload": message.payload,
        "op_id": message.op_id,
        "round_trip": message.round_trip,
        "msg_id": message.msg_id,
    }
    # The trace-context id is optional on the wire: frames from peers that
    # predate it stay byte-identical, and decoders default it to None.
    if message.trace is not None:
        fields["trace"] = message.trace
    body = json.dumps(fields, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame body of {len(body)} bytes exceeds MAX_FRAME_BYTES"
        )
    return _HEADER.pack(len(body)) + body


def decode_message(body: bytes) -> Message:
    """Deserialize the JSON body of a frame back into a Message.

    Every undecodable body -- bad UTF-8, bad JSON (or JSON nested past the
    recursion limit), not an object, no ``sender``/``receiver``/``kind`` --
    raises :class:`FrameError`, so a receiver has one exception to treat as
    "this connection is garbage".
    """
    try:
        data: Dict[str, Any] = json.loads(body.decode("utf-8"))
        return Message(
            sender=data["sender"],
            receiver=data["receiver"],
            kind=data["kind"],
            payload=data.get("payload", {}),
            op_id=data.get("op_id"),
            round_trip=data.get("round_trip", 0),
            msg_id=data.get("msg_id", 0),
            trace=data.get("trace"),
        )
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise FrameError(f"undecodable frame body: {exc!r}") from exc


def encode_batch_frame(
    sender: str, receiver: str, sub_messages: Sequence
) -> bytes:
    """Pack sub-requests (:class:`SubRequest` or ``(key, message)`` pairs)
    into one encoded batch frame."""
    return encode_message(make_batch(sender, receiver, sub_messages))


def decode_batch_frame(body: bytes) -> List[SubRequest]:
    """Inverse of :func:`encode_batch_frame` (body excludes the length header)."""
    return unpack_batch(decode_message(body))


def encode_proxy_frame(
    sender: str, receiver: str, subs: Sequence[ProxySubRequest]
) -> bytes:
    """Pack forwarded rounds into one encoded proxy frame (client -> proxy)."""
    return encode_message(make_proxy_request(sender, receiver, subs))


def decode_proxy_frame(body: bytes) -> List[ProxySubRequest]:
    """Inverse of :func:`encode_proxy_frame` (body excludes the length header)."""
    return unpack_proxy_request(decode_message(body))


def encode_proxy_ack_frame(
    sender: str, receiver: str, sub_replies: Sequence[ProxySubReply]
) -> bytes:
    """Pack completed rounds into one encoded proxy ack frame (proxy -> client)."""
    return encode_message(make_proxy_ack(sender, receiver, sub_replies))


def decode_proxy_ack_frame(body: bytes) -> List[ProxySubReply]:
    """Inverse of :func:`encode_proxy_ack_frame` (body excludes the header)."""
    return unpack_proxy_ack(decode_message(body))


def encode_view_push_frame(
    sender: str, receiver: str, view: Dict[str, Any]
) -> bytes:
    """Pack one shard-map view into an encoded control-plane push frame."""
    return encode_message(make_view_push(sender, receiver, view))


def decode_view_push_frame(body: bytes) -> Dict[str, Any]:
    """Inverse of :func:`encode_view_push_frame` (body excludes the header)."""
    return unpack_view_push(decode_message(body))


def encode_drain_transfer_frame(
    sender: str, receiver: str, mig: str, token: str, shard: str,
    keys: Sequence[str],
) -> bytes:
    """One incremental-drain transfer request as a wire frame."""
    return encode_message(
        make_drain_transfer(sender, receiver, mig, token, shard, keys)
    )


def decode_drain_transfer_frame(body: bytes) -> Dict[str, Any]:
    """Inverse of :func:`encode_drain_transfer_frame` (no length header)."""
    return unpack_drain_transfer(decode_message(body))


def encode_drain_install_frame(
    sender: str, receiver: str, mig: str, token: str, shard: str, epoch: int,
    keys: Sequence[str], states: Dict[str, List[Dict[str, Any]]],
) -> bytes:
    """One incremental-drain install request as a wire frame."""
    return encode_message(
        make_drain_install(sender, receiver, mig, token, shard, epoch, keys,
                           states)
    )


def decode_drain_install_frame(body: bytes) -> Dict[str, Any]:
    """Inverse of :func:`encode_drain_install_frame` (no length header)."""
    return unpack_drain_install(decode_message(body))


def encode_lease_grant_frame(
    sender: str, receiver: str, keys: Sequence[str], ttl: float,
    nonces: Sequence[str],
) -> bytes:
    """One read-lease grant (replica -> proxy) as a wire frame."""
    return encode_message(make_lease_grant(sender, receiver, keys, ttl, nonces))


def decode_lease_grant_frame(body: bytes) -> Dict[str, Any]:
    """Inverse of :func:`encode_lease_grant_frame` (no length header)."""
    return unpack_lease_grant(decode_message(body))


def encode_lease_invalidate_frame(
    sender: str, receiver: str, keys: Sequence[str]
) -> bytes:
    """One lease invalidation (replica -> holder) as a wire frame."""
    return encode_message(make_lease_invalidate(sender, receiver, keys))


def decode_lease_invalidate_frame(body: bytes) -> Dict[str, Any]:
    """Inverse of :func:`encode_lease_invalidate_frame` (no length header)."""
    return unpack_lease_invalidate(decode_message(body))


def encode_lease_release_frame(
    sender: str, receiver: str, keys: Sequence[str]
) -> bytes:
    """One lease release (holder -> replica) as a wire frame."""
    return encode_message(make_lease_release(sender, receiver, keys))


def decode_lease_release_frame(body: bytes) -> Dict[str, Any]:
    """Inverse of :func:`encode_lease_release_frame` (no length header)."""
    return unpack_lease_release(decode_message(body))


async def read_frame(reader) -> Message:
    """Read one length-prefixed frame from an asyncio StreamReader."""
    header = await reader.readexactly(_HEADER.size)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"incoming frame of {length} bytes exceeds MAX_FRAME_BYTES")
    body = await reader.readexactly(length)
    return decode_message(body)


async def write_frame(writer, message: Message) -> None:
    """Write one frame to an asyncio StreamWriter and flush it."""
    writer.write(encode_message(message))
    await writer.drain()
