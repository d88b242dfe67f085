"""A semifast single-writer register (related-work baseline).

Georgiou, Nicolaou and Shvartsman [14] introduced *semifast* implementations:
single-writer registers where writes are fast and almost all reads are fast,
with an occasional two-round-trip read.  The paper under reproduction cites
the result that semifast implementations do not exist for multiple writers,
and notes that its own W1R2 impossibility is strictly stronger.  We include a
semifast SWMR implementation so the latency benchmarks can show the middle
ground between the always-slow and always-fast designs.

Simplified rule (sufficient for atomicity in the SWMR crash model, and checked
by the test suite against the atomicity checker):

* ``write(v)``: one round-trip with the writer's local counter (as in ABD
  SWMR).
* ``read()``: query all servers; if the largest tag observed was reported by
  **every** responding server, the value is already stable on ``S - t``
  servers and the read returns immediately (fast path).  Otherwise the read
  performs a write-back round-trip (slow path) before returning.
"""

from __future__ import annotations

from ..core.errors import ConfigurationError
from .abd_mwmr import OpportunisticReader
from .abd_swmr import AbdSwmrWriter
from .base import ClientLogic, RegisterProtocol, ServerLogic
from .server_state import TagValueServer

__all__ = ["SemifastReader", "SemifastSwmrProtocol"]


#: The semifast rule is one implementation, shared with the multi-writer
#: store (where it is opportunistic rather than semifast: see the class).
SemifastReader = OpportunisticReader


class SemifastSwmrProtocol(RegisterProtocol):
    """Factory for the semifast single-writer register."""

    name = "semifast swmr"
    write_round_trips = 1
    read_round_trips = 2  # worst case; most reads take 1
    multi_writer = False

    def validate_configuration(self) -> None:
        if self.writers != 1:
            raise ConfigurationError(
                "semifast implementations exist only for a single writer [14]"
            )
        if 2 * self.max_faults >= len(self.servers):
            raise ConfigurationError(
                f"need t < S/2 (got t={self.max_faults}, S={len(self.servers)})"
            )

    def make_server(self, server_id: str) -> ServerLogic:
        return TagValueServer(server_id)

    def make_writer(self, writer_id: str) -> ClientLogic:
        return AbdSwmrWriter(writer_id, self.servers, self.max_faults)

    def make_reader(self, reader_id: str) -> ClientLogic:
        return SemifastReader(reader_id, self.servers, self.max_faults)
