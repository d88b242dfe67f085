"""Register protocol implementations across the design space of Table 1."""

from .abd_mwmr import (
    AbdMwmrProtocol,
    AbdMwmrReader,
    AbdMwmrWriter,
    OpportunisticReader,
)
from .abd_swmr import AbdSwmrProtocol, AbdSwmrWriter
from .base import (
    Broadcast,
    ClientLogic,
    DirectDriver,
    OperationOutcome,
    RegisterProtocol,
    ServerLogic,
)
from .byzantine_safe import (
    ByzantineSafeMwmrProtocol,
    ByzantineSafeReader,
    ByzantineSafeWriter,
    vouched_pairs,
)
from .codec import decode_tag, decode_tagged, encode_tag, encode_tagged
from .fast_read_mwmr import FastReadMwmrProtocol, FastReadReader, FastReadWriter
from .fast_rw_attempt import FastReadWriteAttemptProtocol, NaiveFastReader
from .fast_swmr import FastSwmrProtocol, FastSwmrWriter
from .fast_write_attempt import FastWriteAttemptProtocol, LocalClockWriter
from .registry import (
    PROTOCOLS,
    ProtocolSpec,
    available_protocols,
    build_protocol,
    protocol_for_point,
)
from .semifast import SemifastReader, SemifastSwmrProtocol
from .server_state import TagValueServer, ValueVectorEntry, ValueVectorServer

__all__ = [
    "AbdMwmrProtocol",
    "AbdMwmrReader",
    "AbdMwmrWriter",
    "OpportunisticReader",
    "AbdSwmrProtocol",
    "AbdSwmrWriter",
    "ByzantineSafeMwmrProtocol",
    "ByzantineSafeReader",
    "ByzantineSafeWriter",
    "vouched_pairs",
    "Broadcast",
    "ClientLogic",
    "DirectDriver",
    "OperationOutcome",
    "RegisterProtocol",
    "ServerLogic",
    "decode_tag",
    "decode_tagged",
    "encode_tag",
    "encode_tagged",
    "FastReadMwmrProtocol",
    "FastReadReader",
    "FastReadWriter",
    "FastReadWriteAttemptProtocol",
    "NaiveFastReader",
    "FastSwmrProtocol",
    "FastSwmrWriter",
    "FastWriteAttemptProtocol",
    "LocalClockWriter",
    "PROTOCOLS",
    "ProtocolSpec",
    "available_protocols",
    "build_protocol",
    "protocol_for_point",
    "SemifastReader",
    "SemifastSwmrProtocol",
    "TagValueServer",
    "ValueVectorEntry",
    "ValueVectorServer",
]
