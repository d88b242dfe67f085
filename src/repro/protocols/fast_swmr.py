"""DGLV-style fast single-writer register (W1R1 in the single-writer case).

Dutta, Guerraoui, Levy and Vukolic [12] showed that in the *single-writer*
case both operations can be fast exactly when ``R < S/t - 2``.  The paper
under reproduction extends their read-side machinery to multiple writers (see
:mod:`repro.protocols.fast_read_mwmr`); this module keeps the single-writer
original as a baseline so the benchmarks can compare all three regimes
(SWMR-fast, MWMR fast-read, MWMR slow).

* ``write(v)``: one round-trip.  The single writer orders its own writes with
  a local counter, so no query phase is needed.
* ``read()``: one round-trip, using the same admissibility predicate as the
  multi-writer fast-read protocol.
"""

from __future__ import annotations

from typing import Any

from ..core.conditions import require_fast_reads, require_majority_quorums
from ..core.errors import ConfigurationError
from ..core.operations import OpKind
from ..core.timestamps import Tag
from .base import Broadcast, ClientLogic, OperationOutcome, RegisterProtocol, ServerLogic
from .codec import encode_tag
from .fast_read_mwmr import FastReadReader
from .server_state import ValueVectorServer

__all__ = ["FastSwmrWriter", "FastSwmrProtocol"]


class FastSwmrWriter(ClientLogic):
    """The single fast writer: one ``write`` round-trip with a local counter."""

    def __init__(self, client_id: str, servers, max_faults: int) -> None:
        super().__init__(client_id, servers, max_faults)
        self._ts = 0

    def write_protocol(self, value: Any):
        self._ts += 1
        tag = Tag(self._ts, self.client_id)
        yield Broadcast("write", {"tag": encode_tag(tag), "value": value})
        return OperationOutcome(OpKind.WRITE, value=value, tag=tag)

    def read_protocol(self):
        raise NotImplementedError("writers do not read")
        yield  # pragma: no cover


class FastSwmrProtocol(RegisterProtocol):
    """Factory for the fast single-writer register of DGLV."""

    name = "dglv fast swmr (W1R1, single writer)"
    write_round_trips = 1
    read_round_trips = 1
    multi_writer = False

    def __init__(
        self,
        servers,
        max_faults: int,
        readers: int = 2,
        writers: int = 1,
        enforce_condition: bool = True,
    ) -> None:
        self.enforce_condition = enforce_condition
        super().__init__(servers, max_faults, readers=readers, writers=writers)

    def validate_configuration(self) -> None:
        if self.writers != 1:
            raise ConfigurationError(
                "the DGLV fast register is single-writer; the paper proves the "
                "multi-writer W1R1 point impossible"
            )
        require_majority_quorums(len(self.servers), self.max_faults, self.name)
        if self.enforce_condition:
            require_fast_reads(self.readers, len(self.servers), self.max_faults)

    def make_server(self, server_id: str) -> ServerLogic:
        return ValueVectorServer(server_id)

    def make_writer(self, writer_id: str) -> ClientLogic:
        return FastSwmrWriter(writer_id, self.servers, self.max_faults)

    def make_reader(self, reader_id: str) -> ClientLogic:
        return FastReadReader(
            reader_id, self.servers, self.max_faults, readers=self.readers
        )
