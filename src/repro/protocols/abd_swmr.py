"""Single-writer ABD: fast writes, two-round-trip reads.

The original Attiya-Bar-Noy-Dolev emulation [5] for the single-writer case.
Because there is only one writer, it orders its own writes with a local
counter and needs just one round-trip per write; reads take two round-trips
(query + write-back).  In the paper's taxonomy this is the single-writer
analogue of W1R2 -- the design point the paper proves *impossible* once a
second writer exists, which is why this protocol refuses multi-writer
configurations.
"""

from __future__ import annotations

from typing import Any

from ..core.conditions import require_majority_quorums
from ..core.errors import ConfigurationError
from ..core.operations import OpKind
from ..core.timestamps import Tag
from .abd_mwmr import AbdMwmrReader
from .base import Broadcast, ClientLogic, OperationOutcome, RegisterProtocol, ServerLogic
from .codec import encode_tag
from .server_state import TagValueServer

__all__ = ["AbdSwmrWriter", "AbdSwmrProtocol"]


class AbdSwmrWriter(ClientLogic):
    """The single writer: one update round-trip with a locally managed counter."""

    def __init__(self, client_id: str, servers, max_faults: int) -> None:
        super().__init__(client_id, servers, max_faults)
        self._ts = 0

    def write_protocol(self, value: Any):
        self._ts += 1
        tag = Tag(self._ts, self.client_id)
        yield Broadcast("update", {"tag": encode_tag(tag), "value": value})
        return OperationOutcome(OpKind.WRITE, value=value, tag=tag)

    def read_protocol(self):
        raise NotImplementedError("writers do not read")
        yield  # pragma: no cover


class AbdSwmrProtocol(RegisterProtocol):
    """Factory for the single-writer ABD register emulation."""

    name = "abd-swmr (single-writer W1R2)"
    write_round_trips = 1
    read_round_trips = 2
    multi_writer = False
    shareable_kinds = frozenset({"query"})  # TagValueServer's query

    def validate_configuration(self) -> None:
        if self.writers != 1:
            raise ConfigurationError(
                "single-writer ABD supports exactly one writer; "
                "the paper proves fast writes impossible with W >= 2"
            )
        require_majority_quorums(len(self.servers), self.max_faults, self.name)

    def make_server(self, server_id: str) -> ServerLogic:
        return TagValueServer(server_id)

    def make_writer(self, writer_id: str) -> ClientLogic:
        return AbdSwmrWriter(writer_id, self.servers, self.max_faults)

    def make_reader(self, reader_id: str) -> ClientLogic:
        return AbdMwmrReader(reader_id, self.servers, self.max_faults)
