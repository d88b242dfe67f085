"""A Byzantine-fault-tolerant multi-writer register (W2R2, extension).

Section 5.2 of the paper remarks that its W2R1 implementation "can be
extended to further tolerate Byzantine failures", following the single-writer
treatment in DGLV.  This module provides the substrate for studying that
direction: a multi-writer register that stays atomic and never returns
fabricated data when up to ``t`` of the ``S`` servers are Byzantine
(arbitrarily corrupting their replies), at the cost of a larger replication
factor.

Design (a vouching variant of MW-ABD):

* ``S > 4t`` servers; every round-trip waits for ``S - t`` replies.
* A reader only *considers* a ``(tag, value)`` pair that at least ``t + 1``
  of the replies report identically -- at least one of those replies comes
  from a correct server, so the pair was really written (no fabricated
  values, no inflated tags).
* The reader picks the largest vouched pair and writes it back before
  returning (two round-trips), so any later read finds it vouched as well:
  of the ``S - t`` write-back acks at least ``S - 2t`` land on correct
  servers, and a later read's ``S - t`` replies include at least
  ``S - 3t >= t + 1`` of them.
* Writers are unchanged from MW-ABD except that the query phase applies the
  same vouching rule when computing ``maxTS`` (so a Byzantine server cannot
  force a writer to exhaust the tag space or collide with a fabricated tag).

The protocol intentionally targets the W2R2 design point: the paper's
impossibility results only get stronger under Byzantine faults, and a
Byzantine fast-read register needs the full DGLV machinery that is out of
scope for this reproduction (recorded in DESIGN.md).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Tuple

from ..core.errors import ConfigurationError
from ..core.operations import OpKind
from ..core.timestamps import BOTTOM_TAG, Tag
from ..messages import Message
from .base import Broadcast, ClientLogic, OperationOutcome, RegisterProtocol, ServerLogic
from .codec import decode_tag, encode_tag
from .server_state import TagValueServer

__all__ = [
    "vouched_pairs",
    "ByzantineSafeWriter",
    "ByzantineSafeReader",
    "ByzantineSafeMwmrProtocol",
]


def vouched_pairs(
    acks: List[Message], min_vouchers: int
) -> Dict[Tuple[str, Any], int]:
    """Count identical ``(tag, value)`` pairs across replies.

    Returns the pairs reported by at least ``min_vouchers`` distinct servers.
    The initial pair ``(BOTTOM, None)`` is always considered vouched: a
    Byzantine server cannot gain anything by fabricating the *absence* of
    data, and requiring vouchers for it would block reads of a fresh
    register.
    """
    counts: Counter = Counter()
    for ack in acks:
        tag = ack.payload.get("tag")
        if tag is None:
            continue
        counts[(tag, _freeze(ack.payload.get("value")))] += 1
    vouched = {
        pair: count for pair, count in counts.items() if count >= min_vouchers
    }
    bottom_key = (encode_tag(BOTTOM_TAG), _freeze(None))
    vouched.setdefault(bottom_key, counts.get(bottom_key, 0))
    return vouched


def _freeze(value: Any) -> Any:
    """Make a payload value hashable for counting."""
    if isinstance(value, (dict, list)):
        return repr(value)
    return value


def _best_vouched(acks: List[Message], min_vouchers: int) -> Tuple[Tag, Any]:
    best_tag = BOTTOM_TAG
    best_value: Any = None
    for (encoded, value), _count in vouched_pairs(acks, min_vouchers).items():
        tag = decode_tag(encoded)
        if tag > best_tag:
            best_tag = tag
            best_value = value
    return best_tag, best_value


class ByzantineSafeWriter(ClientLogic):
    """Two-round-trip writer using only vouched tags for ``maxTS``."""

    def __init__(self, client_id: str, servers, max_faults: int) -> None:
        super().__init__(client_id, servers, max_faults)

    def write_protocol(self, value: Any):
        acks = yield Broadcast("query")
        best_tag, _ = _best_vouched(acks, self.max_faults + 1)
        tag = best_tag.successor(self.client_id)
        yield Broadcast("update", {"tag": encode_tag(tag), "value": value})
        return OperationOutcome(OpKind.WRITE, value=value, tag=tag)

    def read_protocol(self):
        raise NotImplementedError("writers do not read")
        yield  # pragma: no cover


class ByzantineSafeReader(ClientLogic):
    """Two-round-trip reader returning the largest *vouched* pair."""

    def write_protocol(self, value: Any):
        raise NotImplementedError("readers do not write")
        yield  # pragma: no cover

    def read_protocol(self):
        acks = yield Broadcast("query")
        tag, value = _best_vouched(acks, self.max_faults + 1)
        yield Broadcast("update", {"tag": encode_tag(tag), "value": value})
        return OperationOutcome(OpKind.READ, value=value, tag=tag)


class ByzantineSafeMwmrProtocol(RegisterProtocol):
    """Factory for the Byzantine-tolerant multi-writer register."""

    name = "byzantine-safe mwmr (W2R2, S > 4t)"
    write_round_trips = 2
    read_round_trips = 2
    multi_writer = True
    shareable_kinds = frozenset({"query"})  # TagValueServer's query

    def validate_configuration(self) -> None:
        if len(self.servers) <= 4 * self.max_faults:
            raise ConfigurationError(
                "the Byzantine-safe register requires S > 4t "
                f"(got S={len(self.servers)}, t={self.max_faults})"
            )

    def make_server(self, server_id: str) -> ServerLogic:
        return TagValueServer(server_id)

    def make_writer(self, writer_id: str) -> ClientLogic:
        return ByzantineSafeWriter(writer_id, self.servers, self.max_faults)

    def make_reader(self, reader_id: str) -> ClientLogic:
        return ByzantineSafeReader(reader_id, self.servers, self.max_faults)
