"""A fast read-write (W1R1) *candidate* protocol -- deliberately not atomic.

W1R1 multi-writer implementations are impossible (DGLV, re-stated as the
bottom row of the paper's Table 1).  This candidate combines the one
round-trip local-clock writer with a one round-trip reader that simply
returns the largest tag it sees, without admissibility checking or
write-back.

It exhibits *both* failure modes the theory predicts:

* tag order disagreeing with real-time write order (the W1R2 failure), and
* new/old inversions between readers, because a freshly written value may be
  visible to one reader's quorum but not to the next reader's quorum.
"""

from __future__ import annotations

from typing import Any

from ..core.errors import ConfigurationError
from ..core.operations import OpKind
from ..core.timestamps import BOTTOM_TAG
from .base import Broadcast, ClientLogic, OperationOutcome, RegisterProtocol, ServerLogic
from .codec import decode_tag
from .fast_write_attempt import LocalClockWriter
from .server_state import TagValueServer

__all__ = ["NaiveFastReader", "FastReadWriteAttemptProtocol"]


class NaiveFastReader(ClientLogic):
    """One round-trip reader: return the largest tag observed, no write-back."""

    def write_protocol(self, value: Any):
        raise NotImplementedError("readers do not write")
        yield  # pragma: no cover

    def read_protocol(self):
        acks = yield Broadcast("query")
        best_tag = BOTTOM_TAG
        best_value = None
        for ack in acks:
            tag = decode_tag(ack.payload["tag"])
            if tag > best_tag:
                best_tag = tag
                best_value = ack.payload.get("value")
        return OperationOutcome(OpKind.READ, value=best_value, tag=best_tag)


class FastReadWriteAttemptProtocol(RegisterProtocol):
    """Factory for the (non-atomic) W1R1 candidate."""

    name = "fast-rw attempt (W1R1 candidate, not atomic)"
    write_round_trips = 1
    read_round_trips = 1
    multi_writer = True
    shareable_kinds = frozenset({"query"})  # TagValueServer's query
    expected_atomic = False

    def validate_configuration(self) -> None:
        if 2 * self.max_faults >= len(self.servers):
            raise ConfigurationError(
                f"need t < S/2 (got t={self.max_faults}, S={len(self.servers)})"
            )

    def make_server(self, server_id: str) -> ServerLogic:
        return TagValueServer(server_id)

    def make_writer(self, writer_id: str) -> ClientLogic:
        return LocalClockWriter(writer_id, self.servers, self.max_faults)

    def make_reader(self, reader_id: str) -> ClientLogic:
        return NaiveFastReader(reader_id, self.servers, self.max_faults)
