"""Length-prefixed JSON framing for the asyncio transport: one array per frame.

One frame is a 4-byte big-endian length header followed by a JSON body, and
every body is **one array**::

    [kind, sender, receiver, op_id, round_trip, trace, payload]

A ``batch`` or ``batch-ack`` that carries lease traffic has one element
more: the keys whose leases the sender releases (``["k", ...]``) on a
``batch``, the leases the replica granted (``[["k", nonce], ...]``) on a
``batch-ack``.  Without lease traffic the body is the plain seven elements.
A message has no id to carry: replies are matched by ``(op_id,
round_trip)``.

For the four frame kinds whose payload holds typed records
(:mod:`repro.messages`), ``payload`` is a list of positional rows written
straight from those objects and read straight back into them:

=============  ==============================================================
``batch``      ``[key, sender, kind, payload, op_id, round_trip, trace,
               shard, epoch, lease]`` per :class:`~repro.messages.SubRequest`
``batch-ack``  ``[kind, payload, op_id, round_trip]`` per served sub, ``null``
               for a sub that got no reply
``proxy``      a :class:`~repro.messages.ProxySubRequest`, field for field
``proxy-ack``  ``[op_id, round_trip, [[sender, kind, payload], ...], error]``
               per :class:`~repro.messages.ProxySubReply`
=============  ==============================================================

No row carries a receiver: the frame is addressed, its records are not (see
:mod:`repro.messages`).  The decoder addresses every record it rebuilds to
the frame's receiver, and a ``proxy-ack`` reply under its sub-reply's
``(op_id, round_trip)``; the records the sender packed may name a group or a
proxy's attempt-scoped ids instead, which no engine reads, so the bytes are
the same either way.  A ``batch-ack`` row carries no sender, key or trace
either: a replica answers as itself, so the decoder takes each reply's
sender from the frame (and the encoder refuses a reply from anyone else),
and its receiver matches a reply by ``(op_id, round_trip)`` alone.

A ``batch-ack`` or ``proxy-ack`` over ``MAX_FRAME_BYTES`` is encoded as
several frames (its receiver matches each row on its own); a row too large
for a frame of its own goes as an error row.

For every other kind ``payload`` is the message's payload dict unchanged.
There is no intermediate dict-of-dicts form and no second format: every
process of the store runs the same checkout.

Decoding validates what the engines route by, so a frame that decodes is a
frame ``unpack_*`` accepts: row arity, ``str``/``int`` routing fields,
``dict`` payloads, the lease fields of the batch frames, and the field checks
of the lease, drain and view-push frames.  Anything else -- bad UTF-8, bad
JSON, an object body, a short row -- is a :class:`FrameError`, the one
exception a receiver treats as "this connection is garbage".
``tests/test_codec_properties.py`` pins the exact bytes of one frame per
kind; a format change edits those.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import messages
from ..messages import Message, ProxySubReply, ProxySubRequest, SubRequest

__all__ = [
    "MAX_FRAME_BYTES",
    "FrameError",
    "encode_message",
    "decode_message",
    "read_frame",
    "write_frame",
]

_HEADER = struct.Struct("!I")

#: Upper bound on a frame body.  Large enough for any batch this library
#: produces (thousands of sub-operations), small enough to fail fast when a
#: peer sends garbage that parses as an absurd length header.
MAX_FRAME_BYTES = 16 * 1024 * 1024

# One encoder and one decoder for every frame, each built once per process.
# ``JSONEncoder.encode`` builds a fresh C encoder per call before it encodes
# anything; ``c_make_encoder``, called with the nine arguments
# ``JSONEncoder.iterencode`` passes it, is that C encoder for compact
# separators, ASCII escapes, NaN and infinity allowed and no cycle
# bookkeeping (payloads are JSON trees: a cycle is a RecursionError).  A
# Python without it encodes through ``JSONEncoder.encode``, to the same
# bytes.  The decoder's ``scan_once`` is the C scanner -- the parse alone:
# ``json.loads`` adds argument checks and whitespace scans, ``raw_decode``
# an exception rewrap -- and reports where the value ended, so trailing
# bytes are caught below; no value at all raises ``StopIteration``.


def _json_dumps() -> Callable[[Any], str]:
    """The compact encoder, over ``json.encoder.c_make_encoder`` if this
    Python has it."""
    make_encoder = getattr(json.encoder, "c_make_encoder", None)
    python = json.JSONEncoder(separators=(",", ":"), check_circular=False)
    if make_encoder is None:
        return python.encode
    encode = make_encoder(
        None, python.default, json.encoder.encode_basestring_ascii, None,
        ":", ",", False, False, True,
    )

    def dumps(value: Any) -> str:
        return "".join(encode(value, 0))

    return dumps


_dumps = _json_dumps()
_scan = json.JSONDecoder().scan_once


class FrameError(ValueError):
    """A frame that cannot be encoded or decoded safely."""


#: ``type(x) in _OPT_STR``: an optional field that, when set, must hash and
#: compare as the engines expect (ids, traces, shard and lease tags).
_OPT_STR = (str, type(None))
_OPT_INT = (int, type(None))


def _rows(rows: Any) -> List[Any]:
    if type(rows) is not list:
        raise ValueError(f"expected a list of rows, got {type(rows).__name__}")
    return rows


def _grants(value: Any) -> List[Tuple[str, str]]:
    grants = []
    for pair in _rows(value):
        if not (type(pair) is list and len(pair) == 2
                and type(pair[0]) is str and type(pair[1]) is str):
            raise ValueError(f"mistyped batch-ack grant {pair!r}")
        grants.append((pair[0], pair[1]))
    return grants


def _no_field(kind: str, field: Any) -> None:
    if field is not None:
        raise ValueError(f"a {kind!r} body carries no lease traffic")


# -- per-kind rows: (to_rows, from_rows, lease field) ---------------------------
#
# ``to_rows(sender, payload)`` reads the typed records of an outbound frame
# from ``sender``; ``from_rows(sender, receiver, rows, field)`` checks and
# rebuilds them, addressed to the frame's receiver, with the body's eighth
# element, its lease traffic (``None`` for a seven-element body).  Unpacking
# a row into names checks its arity (a number or ``null`` does not unpack at
# all; a string or an object of the right length unpacks into strings, which
# the ``int``/``dict`` checks then refuse), and every failure surfaces as
# ValueError/TypeError for ``decode_message`` to wrap.


def _batch_rows(sender: str, payload: Dict[str, Any]) -> List[Any]:
    return [
        [key, sub.sender, sub.kind, sub.payload, sub.op_id, sub.round_trip,
         sub.trace, shard, epoch, lease]
        for key, sub, shard, epoch, lease in payload["ops"]
    ]


def _batch_from_rows(
    frame_sender: str, receiver: str, rows: Any, releases: Any
) -> Dict[str, Any]:
    ops = []
    for row in _rows(rows):
        (key, sender, kind, payload, op_id, round_trip, trace,
         shard, epoch, lease) = row
        if not (
            type(key) is str and type(sender) is str and type(kind) is str
            and type(payload) is dict and type(round_trip) is int
            and type(epoch) is int and type(op_id) in _OPT_STR
            and type(trace) in _OPT_STR and type(shard) in _OPT_STR
            and type(lease) in _OPT_STR
        ):
            raise ValueError(f"mistyped batch row {row!r}")
        ops.append(SubRequest(
            key,
            Message(sender, receiver, kind, payload, op_id, round_trip, trace=trace),
            shard, epoch, lease,
        ))
    if releases is None:
        return {"ops": ops}
    if not (type(releases) is list and all(type(key) is str for key in releases)):
        raise ValueError(f"mistyped batch releases {releases!r}")
    return {"ops": ops, "releases": releases}


def _batch_ack_rows(sender: str, payload: Dict[str, Any]) -> List[Any]:
    rows: List[Any] = []
    for reply in payload["acks"]:
        if reply is None:
            rows.append(None)
        elif reply.sender != sender:
            raise ValueError(
                f"a reply from {reply.sender!r} in a batch-ack from {sender!r}"
            )
        else:
            rows.append([reply.kind, reply.payload, reply.op_id, reply.round_trip])
    return rows


def _batch_ack_from_rows(
    sender: str, receiver: str, rows: Any, grants: Any
) -> Dict[str, Any]:
    acks: List[Any] = []
    for row in _rows(rows):
        if row is None:
            acks.append(None)
            continue
        kind, payload, op_id, round_trip = row
        if not (
            type(kind) is str and type(payload) is dict
            and type(round_trip) is int and type(op_id) in _OPT_STR
        ):
            raise ValueError(f"mistyped batch-ack row {row!r}")
        acks.append(Message(sender, receiver, kind, payload, op_id, round_trip))
    if grants is None:
        return {"acks": acks}
    return {"acks": acks, "grants": _grants(grants)}


def _proxy_rows(sender: str, payload: Dict[str, Any]) -> List[Any]:
    return payload["ops"]  # NamedTuples of JSON values: arrays as they stand


def _proxy_from_rows(
    sender: str, receiver: str, rows: Any, field: Any
) -> Dict[str, Any]:
    _no_field(messages.PROXY_KIND, field)
    ops = []
    for row in _rows(rows):
        (key, op_kind, kind, payload, op_id, round_trip, wait_for, per_server,
         trace, client) = row
        if not (
            type(key) is str and type(op_kind) is str and type(kind) is str
            and type(payload) is dict and type(op_id) is str
            and type(round_trip) is int and type(wait_for) in _OPT_INT
            and type(trace) in _OPT_STR and type(client) in _OPT_STR
            and (per_server is None or (
                type(per_server) is dict
                and all(type(p) is dict for p in per_server.values())
            ))
        ):
            raise ValueError(f"mistyped proxy row {row!r}")
        ops.append(ProxySubRequest(key, op_kind, kind, payload, op_id,
                                   round_trip, wait_for, per_server, trace, client))
    return {"ops": ops}


def _proxy_ack_rows(sender: str, payload: Dict[str, Any]) -> List[Any]:
    return [
        [op_id, round_trip,
         [[r.sender, r.kind, r.payload] for r in replies], error]
        for op_id, round_trip, replies, error in payload["acks"]
    ]


def _proxy_ack_from_rows(
    frame_sender: str, receiver: str, rows: Any, field: Any
) -> Dict[str, Any]:
    _no_field(messages.PROXY_ACK_KIND, field)
    acks = []
    for row in _rows(rows):
        op_id, round_trip, reply_rows, error = row
        if not (type(op_id) is str and type(round_trip) is int
                and type(error) in _OPT_STR):
            raise ValueError(f"mistyped proxy-ack row {row!r}")
        replies = []
        for reply_row in _rows(reply_rows):
            sender, kind, payload = reply_row
            if not (type(sender) is str and type(kind) is str
                    and type(payload) is dict):
                raise ValueError(f"mistyped proxy-ack reply {reply_row!r}")
            replies.append(
                Message(sender, receiver, kind, payload, op_id, round_trip)
            )
        acks.append(ProxySubReply(op_id, round_trip, tuple(replies), error))
    return {"acks": acks}


_ROWS: Dict[str, Tuple[Callable[[str, Dict[str, Any]], List[Any]],
                       Callable[[str, str, Any, Any], Dict[str, Any]],
                       Optional[str]]] = {
    messages.BATCH_KIND: (_batch_rows, _batch_from_rows, "releases"),
    messages.BATCH_ACK_KIND: (_batch_ack_rows, _batch_ack_from_rows, "grants"),
    messages.PROXY_KIND: (_proxy_rows, _proxy_from_rows, None),
    messages.PROXY_ACK_KIND: (_proxy_ack_rows, _proxy_ack_from_rows, None),
}

#: Dict-payload kinds whose fields an engine indexes by: their ``unpack_*``
#: runs once at decode.
_CHECKS: Dict[str, Callable[[Message], Any]] = {
    messages.VIEW_PUSH_KIND: messages.unpack_view_push,
    messages.DRAIN_FENCE_KIND: messages.unpack_drain_fence,
    messages.DRAIN_HOST_KIND: messages.unpack_drain_host,
    messages.DRAIN_TRANSFER_KIND: messages.unpack_drain_transfer,
    messages.DRAIN_INSTALL_KIND: messages.unpack_drain_install,
    messages.DRAIN_COMPLETE_KIND: messages.unpack_drain_complete,
    messages.LEASE_INVALIDATE_KIND: messages.unpack_lease_invalidate,
    messages.LEASE_RELEASE_KIND: messages.unpack_lease_release,
}


def encode_message(message: Message) -> bytes:
    """Serialize a message to a length-prefixed JSON frame -- or, for a
    ``batch-ack`` or ``proxy-ack`` over ``MAX_FRAME_BYTES``, to several
    frames back to back.

    Each row of an ack is matched on its own ``(op_id, round_trip)``, so such
    an ack is cut into several frames, its rows in order and a
    ``batch-ack``'s grants on the first.  A single row too large for a frame
    goes as an error row instead -- a ``reply-too-large`` sub-reply, or a
    ``proxy-ack`` row's ``error`` -- which fails its round at the receiver.

    Raises :class:`FrameError` for a frame that must not go out: any other
    body over ``MAX_FRAME_BYTES``, one of the four typed kinds carrying a
    payload of the wrong shape, or a ``batch-ack`` carrying a reply its
    sender did not send.
    """
    body = _body(message)
    if len(body) > MAX_FRAME_BYTES:
        return _cut(message, len(body))
    return _HEADER.pack(len(body)) + body


def _too_large_batch_row(reply: Message, size: int) -> Message:
    return Message(reply.sender, reply.receiver, messages.REPLY_TOO_LARGE_KIND,
                   {"bytes": size}, reply.op_id, reply.round_trip)


def _too_large_proxy_row(sub: ProxySubReply, size: int) -> ProxySubReply:
    return ProxySubReply(sub.op_id, sub.round_trip, (),
                         f"its reply of {size} bytes exceeds MAX_FRAME_BYTES")


#: The ack kinds :func:`encode_message` may cut, and each one's error row.
_CUTTABLE: Dict[str, Callable[[Any, int], Any]] = {
    messages.BATCH_ACK_KIND: _too_large_batch_row,
    messages.PROXY_ACK_KIND: _too_large_proxy_row,
}


def _cut(message: Message, size: int) -> bytes:
    """The frames of ``message``, whose body of ``size`` bytes is over the
    limit: its halves', or its one row's error row's."""
    error_row = _CUTTABLE.get(message.kind)
    acks = message.payload["acks"] if error_row is not None else ()
    if len(acks) > 1:
        half = len(acks) // 2
        first = {**message.payload, "acks": acks[:half]}
        return (encode_message(dataclasses.replace(message, payload=first))
                + encode_message(dataclasses.replace(message, payload={"acks": acks[half:]})))
    if len(acks) == 1:
        payload = {**message.payload, "acks": [error_row(acks[0], size)]}
        body = _body(dataclasses.replace(message, payload=payload))
        if len(body) <= MAX_FRAME_BYTES:
            return _HEADER.pack(len(body)) + body
    raise FrameError(f"frame body of {size} bytes exceeds MAX_FRAME_BYTES")


def _body(message: Message) -> bytes:
    """The JSON body of ``message``'s frame, of whatever size."""
    kind, sender, payload = message.kind, message.sender, message.payload
    envelope = [
        kind, sender, message.receiver, message.op_id,
        message.round_trip, message.trace, payload,
    ]
    rows = _ROWS.get(kind)
    if rows is not None:
        to_rows, _, field = rows
        try:
            envelope[6] = to_rows(sender, payload)
        except (LookupError, TypeError, ValueError, AttributeError) as exc:
            # The decode side's contract: a typed kind whose payload is not
            # its typed records is a FrameError naming the kind, never a
            # bare KeyError from inside a row builder.
            raise FrameError(
                f"malformed {kind!r} frame payload: {exc!r}"
            ) from exc
        if field is not None:
            lease = payload.get(field)
            if lease is not None:
                envelope.append(lease)
    return _dumps(envelope).encode("utf-8")


def decode_message(body) -> Message:
    """Deserialize the JSON body of a frame -- any bytes-like object, a
    ``memoryview`` of a receive buffer included -- back into a Message.

    Every undecodable body -- bad UTF-8, bad JSON (or JSON nested past the
    recursion limit), not the seven-element array (or eight, for a batch
    frame's lease traffic), a mistyped routing field, a malformed row or
    lease field -- raises :class:`FrameError`, so a receiver has one
    exception to treat as "this connection is garbage".
    """
    try:
        text = str(body, "utf-8")
        envelope, end = _scan(text, 0)
        if end != len(text):
            raise ValueError("trailing bytes after the frame's array")
        if len(envelope) == 7:
            kind, sender, receiver, op_id, round_trip, trace, payload = envelope
            field = None
        else:
            (kind, sender, receiver, op_id, round_trip, trace, payload,
             field) = envelope
            if field is None:
                raise ValueError("an eighth element is lease traffic, never null")
        if not (
            type(kind) is str and type(sender) is str and type(receiver) is str
            and type(round_trip) is int and type(op_id) in _OPT_STR
            and type(trace) in _OPT_STR
        ):
            raise ValueError("mistyped frame header")
        rows = _ROWS.get(kind)
        if rows is not None:
            payload = rows[1](sender, receiver, payload, field)
        else:
            _no_field(kind, field)
            if type(payload) is not dict:
                raise ValueError(
                    f"expected a payload object, got {type(payload).__name__}"
                )
        message = Message(sender, receiver, kind, payload, op_id, round_trip, trace)
        check = _CHECKS.get(kind)
        if check is not None:
            check(message)
        return message
    except (ValueError, TypeError, RecursionError, StopIteration) as exc:
        raise FrameError(f"undecodable frame body: {exc!r}") from exc


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
