"""A fast-write (W1R2) *candidate* protocol -- deliberately not atomic.

The paper's main theorem says no W1R2 multi-writer atomic register exists for
``W >= 2, R >= 2, t >= 1``.  This module implements the natural candidate one
would try anyway: every writer orders its own writes with a local counter and
pushes them in a single round-trip; readers use the full two-round-trip ABD
read (query + write-back).

The protocol is useful precisely because it fails: the design-space benchmark
(Table 1) and the test suite run it under concurrent multi-writer workloads
and show that the atomicity checker finds violations -- the executable
counterpart of the impossibility result.  The violations arise exactly where
the chain argument says they must: two writers assign incomparable local
timestamps, so a value written strictly *later* in real time can carry a
*smaller* tag, and readers then disagree with the real-time write order.
"""

from __future__ import annotations

from typing import Any

from ..core.errors import ConfigurationError
from ..core.operations import OpKind
from ..core.timestamps import Tag
from .abd_mwmr import AbdMwmrReader
from .base import Broadcast, ClientLogic, OperationOutcome, RegisterProtocol, ServerLogic
from .codec import encode_tag
from .server_state import TagValueServer

__all__ = ["LocalClockWriter", "FastWriteAttemptProtocol"]


class LocalClockWriter(ClientLogic):
    """A writer that skips the query phase and trusts its local counter.

    This is what "fast write" forces: with only one round-trip the writer
    cannot first learn the latest timestamp, so concurrent (or even
    non-concurrent) writes by different writers may be ordered arbitrarily.
    """

    def __init__(self, client_id: str, servers, max_faults: int) -> None:
        super().__init__(client_id, servers, max_faults)
        self._ts = 0

    def write_protocol(self, value: Any):
        self._ts += 1
        tag = Tag(self._ts, self.client_id)
        acks = yield Broadcast("update", {"tag": encode_tag(tag), "value": value})
        del acks
        return OperationOutcome(OpKind.WRITE, value=value, tag=tag)

    def read_protocol(self):
        raise NotImplementedError("writers do not read")
        yield  # pragma: no cover


class FastWriteAttemptProtocol(RegisterProtocol):
    """Factory for the (non-atomic) W1R2 candidate."""

    name = "fast-write attempt (W1R2 candidate, not atomic)"
    write_round_trips = 1
    read_round_trips = 2
    multi_writer = True
    shareable_kinds = frozenset({"query"})  # TagValueServer's query
    #: Documented expectation used by tests and the Table 1 benchmark.
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
        return AbdMwmrReader(reader_id, self.servers, self.max_faults)
