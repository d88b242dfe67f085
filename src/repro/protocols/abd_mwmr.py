"""MW-ABD: the multi-writer, multi-reader W2R2 baseline.

This is the Lynch-Shvartsman style emulation the paper cites as [23] and
lists in Table 1 as the W2R2 design point: both operations use exactly two
round-trips, and the implementation is correct whenever majorities intersect
(``t < S/2``).

* ``write(v)``: round-trip 1 queries all servers and computes ``maxTS``;
  round-trip 2 updates all servers with ``(maxTS + 1, wid)``.
* ``read()``: round-trip 1 queries all servers and picks the largest tagged
  value; round-trip 2 writes that value back (the "read must write" phase
  that atomicity forces), then returns it.

:class:`OpportunisticReader` is the reader the kv-store runs instead of the
textbook one: it skips the write-back in executions where it would change
nothing (the whole query quorum already holds the value), so an uncontended
read is one round-trip.  The worst case -- and therefore the W2R2 design
point, which the paper's bound ``R < S/t - 2`` says this configuration cannot
beat -- is unchanged, so :class:`AbdMwmrReader` stays the registry's reader.
"""

from __future__ import annotations

from typing import Any, List

from ..core.errors import ConfigurationError
from ..core.operations import OpKind
from ..core.timestamps import BOTTOM_TAG, max_tag
from ..messages import Message
from .base import Broadcast, ClientLogic, OperationOutcome, RegisterProtocol, ServerLogic
from .codec import decode_tag, encode_tag
from .server_state import TagValueServer

__all__ = [
    "AbdMwmrWriter",
    "AbdMwmrReader",
    "OpportunisticReader",
    "AbdMwmrProtocol",
    "quorum_agrees",
]


def _best_from_query_acks(acks: List[Message]):
    """Pick the largest (tag, value) pair from query replies."""
    best_tag = BOTTOM_TAG
    best_value = None
    for ack in acks:
        tag = decode_tag(ack.payload["tag"])
        if tag > best_tag:
            best_tag = tag
            best_value = ack.payload.get("value")
    return best_tag, best_value


class AbdMwmrWriter(ClientLogic):
    """Two-round-trip writer: query for ``maxTS`` then update."""

    def write_protocol(self, value: Any):
        acks = yield Broadcast("query")
        max_seen = max_tag(decode_tag(a.payload["tag"]) for a in acks)
        tag = max_seen.successor(self.client_id)
        yield Broadcast("update", {"tag": encode_tag(tag), "value": value})
        return OperationOutcome(OpKind.WRITE, value=value, tag=tag)

    def read_protocol(self):
        raise NotImplementedError("writers do not read")
        yield  # pragma: no cover


class AbdMwmrReader(ClientLogic):
    """Two-round-trip reader: query then write back the chosen value."""

    def write_protocol(self, value: Any):
        raise NotImplementedError("readers do not write")
        yield  # pragma: no cover

    def read_protocol(self):
        acks = yield Broadcast("query")
        tag, value = _best_from_query_acks(acks)
        yield Broadcast("update", {"tag": encode_tag(tag), "value": value})
        return OperationOutcome(OpKind.READ, value=value, tag=tag)


def quorum_agrees(acks: List[Message], quorum_size: int) -> bool:
    """Whether a full query quorum replied with one and the same tag.

    That tag is then the maximum, and its value already sits on ``S - t``
    servers -- exactly the state a write-back exists to establish.  Tags are
    compared in their wire encoding: servers always send the canonical form,
    and a spelling mismatch could only cost the (always safe) second round.
    """
    if not acks or len(acks) < quorum_size:
        return False
    first = acks[0].payload["tag"]
    return all(ack.payload["tag"] == first for ack in acks)


class OpportunisticReader(AbdMwmrReader):
    """Query, then write back only if the quorum does not already agree.

    Safety, in three lines: (1) a unanimous quorum means the returned tag is
    on ``S - t`` servers *before* the read returns, which is all the
    write-back guarantees; (2) every later query quorum intersects that set
    (``t < S/2``) and server tags only grow, so no later operation can see
    less; (3) a split quorum falls through to the textbook write-back.  This
    is the semifast rule of Georgiou et al. [14] applied per execution, not
    a fast implementation: a read concurrent with a write still takes two
    round-trips, as ``R < S/t - 2`` says some read must.
    """

    def read_protocol(self):
        acks = yield Broadcast("query")
        fast = quorum_agrees(acks, self.quorum_size)
        if fast:
            # One tag, spelled alike by the whole quorum: decode it once.  As
            # in the scan, the bottom tag reads as no value.
            first = acks[0]
            tag = decode_tag(first.payload["tag"])
            value = None if tag.is_bottom else first.payload.get("value")
        else:
            tag, value = _best_from_query_acks(acks)
            yield Broadcast("update", {"tag": encode_tag(tag), "value": value})
        return OperationOutcome(
            OpKind.READ, value=value, tag=tag, metadata={"fast_path": fast}
        )


class AbdMwmrProtocol(RegisterProtocol):
    """Factory for the W2R2 multi-writer register emulation."""

    name = "mw-abd (W2R2)"
    write_round_trips = 2
    read_round_trips = 2
    multi_writer = True

    def validate_configuration(self) -> None:
        if 2 * self.max_faults >= len(self.servers):
            raise ConfigurationError(
                "MW-ABD requires t < S/2 "
                f"(got t={self.max_faults}, S={len(self.servers)})"
            )

    def make_server(self, server_id: str) -> ServerLogic:
        return TagValueServer(server_id)

    def make_writer(self, writer_id: str) -> ClientLogic:
        return AbdMwmrWriter(writer_id, self.servers, self.max_faults)

    def make_reader(self, reader_id: str) -> ClientLogic:
        return AbdMwmrReader(reader_id, self.servers, self.max_faults)

    def make_opportunistic_reader(self, reader_id: str) -> ClientLogic:
        return OpportunisticReader(reader_id, self.servers, self.max_faults)
