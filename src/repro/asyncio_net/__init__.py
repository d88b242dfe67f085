"""Real asyncio TCP transport for register protocols (wall-clock latency leg).

The single-register cluster lives in :mod:`repro.asyncio_net.cluster` and is
not imported here: it runs the register simulator's client automaton, and
the kv store's adapter, which imports this package's transport, must not
load the register simulator with it.
"""

from .client import TcpNetwork
from .codec import decode_message, encode_message
from .server import ReplicaServer

__all__ = [
    "TcpNetwork",
    "decode_message",
    "encode_message",
    "ReplicaServer",
]
