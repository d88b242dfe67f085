"""The paper's W2R1 implementation: two-round-trip writes, one-round-trip reads.

This is Algorithms 1 and 2 of the paper (Appendix A), the constructive half of
its Table 1 contribution: a multi-writer atomic register whose *reads finish
in a single round-trip*, correct exactly when ``R < S/t - 2``.

Write (two round-trips, Algorithm 1 lines 5-13):
    1. query all servers (an ordinary ``read`` message with an empty queue)
       and compute ``maxTS`` from the ``S - t`` replies;
    2. update all servers with ``(maxTS + 1, w_i)`` and wait for ``S - t``
       WRITEACKs.

Read (one round-trip, Algorithm 1 lines 18-31):
    1. send ``(read, valQueue)`` to all servers -- ``valQueue`` carries every
       value the reader has previously received, so servers can record the
       reader in those values' ``updated`` sets;
    2. from the ``S - t`` READACKs, return the **largest admissible** value,
       where admissibility with degree ``a ∈ [1, R+1]`` is the predicate in
       :mod:`repro.core.admissible`.

The protocol refuses configurations with ``R >= S/t - 2``: Section 5.1 of the
paper proves no correct W2R1 implementation exists there, and the Fig. 9
benchmark exercises exactly that regime by instantiating this protocol with
``enforce_condition=False``.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..core.admissible import ReadAck, ValueReport, select_return_value
from ..core.conditions import require_fast_reads, require_majority_quorums
from ..core.operations import OpKind
from ..core.timestamps import BOTTOM_TAG, Tag, max_tag
from ..messages import Message
from .base import Broadcast, ClientLogic, OperationOutcome, RegisterProtocol, ServerLogic
from .codec import decode_tag, encode_tag
from .server_state import ValueVectorServer

__all__ = ["FastReadWriter", "FastReadReader", "FastReadMwmrProtocol"]


def _acks_to_read_acks(acks: List[Message]) -> List[ReadAck]:
    """Convert raw READACK messages into the checker-friendly representation."""
    result: List[ReadAck] = []
    for ack in acks:
        vector = ack.payload.get("vector", {})
        reports: Dict[Tag, ValueReport] = {}
        best = BOTTOM_TAG
        for encoded, entry in vector.items():
            tag = decode_tag(encoded)
            reports[tag] = ValueReport.of(tag, entry.get("updated", ()))
            if tag > best:
                best = tag
        result.append(ReadAck(server=ack.sender, reports=reports, max_tag=best))
    return result


def _value_of(acks: List[ReadAck], raw_acks: List[Message], tag: Tag) -> Any:
    for ack in raw_acks:
        vector = ack.payload.get("vector", {})
        entry = vector.get(encode_tag(tag))
        if entry is not None and entry.get("value") is not None:
            return entry.get("value")
    return None


class FastReadWriter(ClientLogic):
    """Two-round-trip writer (identical structure to MW-ABD's writer)."""

    def write_protocol(self, value: Any):
        acks = yield Broadcast("read", {"val_queue": {}})
        observed = []
        for ack in acks:
            for encoded in ack.payload.get("vector", {}):
                observed.append(decode_tag(encoded))
        tag = max_tag(observed).successor(self.client_id)
        yield Broadcast("write", {"tag": encode_tag(tag), "value": value})
        return OperationOutcome(OpKind.WRITE, value=value, tag=tag)

    def read_protocol(self):
        raise NotImplementedError("writers do not read")
        yield  # pragma: no cover


class FastReadReader(ClientLogic):
    """One-round-trip reader using the admissibility predicate.

    ``readers`` is the total number of readers ``R`` in the system: the
    admissibility degree ranges over ``[1, R + 1]`` (Algorithm 1 line 25).

    With ``naive=True`` the reader skips the admissibility predicate and
    simply returns the largest tag it saw -- this is *not* the paper's
    algorithm; it exists for the ablation experiment that shows why the
    predicate is necessary.
    """

    def __init__(
        self,
        client_id: str,
        servers,
        max_faults: int,
        readers: int,
        naive: bool = False,
    ) -> None:
        super().__init__(client_id, servers, max_faults)
        self.readers = readers
        self.naive = naive
        #: ``valQueue`` of Algorithm 1: every tagged value this reader has
        #: received, re-sent to servers on each read.
        self.val_queue: Dict[Tag, Any] = {BOTTOM_TAG: None}

    def write_protocol(self, value: Any):
        raise NotImplementedError("readers do not write")
        yield  # pragma: no cover

    def read_protocol(self):
        encoded_queue = {encode_tag(tag): value for tag, value in self.val_queue.items()}
        raw_acks = yield Broadcast("read", {"val_queue": encoded_queue})
        acks = _acks_to_read_acks(raw_acks)

        # valQueue <- (union of received values) union valQueue  (line 22)
        for ack, raw in zip(acks, raw_acks):
            vector = raw.payload.get("vector", {})
            for encoded, entry in vector.items():
                tag = decode_tag(encoded)
                if tag not in self.val_queue or self.val_queue[tag] is None:
                    self.val_queue[tag] = entry.get("value")

        if self.naive:
            chosen = max((ack.max_tag for ack in acks), default=BOTTOM_TAG)
        else:
            chosen, _ = select_return_value(
                acks,
                total_servers=len(self.servers),
                max_faults=self.max_faults,
                max_degree=self.readers + 1,
            )
            if chosen is None:
                # Lemma 3 guarantees the reader's own previous value is
                # admissible; reaching this branch indicates a configuration
                # outside the protocol's feasibility condition.
                chosen = max(self.val_queue)
        value = self.val_queue.get(chosen)
        if value is None:
            value = _value_of(acks, raw_acks, chosen)
        return OperationOutcome(OpKind.READ, value=value, tag=chosen)


class FastReadMwmrProtocol(RegisterProtocol):
    """Factory for the paper's fast-read multi-writer register."""

    name = "fast-read mwmr (W2R1, this paper)"
    write_round_trips = 2
    read_round_trips = 1
    multi_writer = True

    def __init__(
        self,
        servers,
        max_faults: int,
        readers: int = 2,
        writers: int = 2,
        enforce_condition: bool = True,
        naive_reads: bool = False,
    ) -> None:
        self.enforce_condition = enforce_condition
        self.naive_reads = naive_reads
        super().__init__(servers, max_faults, readers=readers, writers=writers)

    def validate_configuration(self) -> None:
        require_majority_quorums(len(self.servers), self.max_faults, self.name)
        if self.enforce_condition:
            require_fast_reads(
                self.readers, len(self.servers), self.max_faults,
                "; pass enforce_condition=False to study the infeasible regime",
            )

    def make_server(self, server_id: str) -> ServerLogic:
        return ValueVectorServer(server_id)

    def make_writer(self, writer_id: str) -> ClientLogic:
        return FastReadWriter(writer_id, self.servers, self.max_faults)

    def make_reader(self, reader_id: str) -> ClientLogic:
        return FastReadReader(
            reader_id,
            self.servers,
            self.max_faults,
            readers=self.readers,
            naive=self.naive_reads,
        )
