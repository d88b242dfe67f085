"""Process automata: the base classes for simulated servers and clients.

The paper models an implementation as "a collection of automata" whose
computation "proceeds in steps".  In the simulator every process is an object
registered with the network; a step is the handling of one delivered message
(plus any messages the handler sends in response).
"""

from __future__ import annotations

import abc
from typing import Optional

from ..messages import Message
from .network import Network

__all__ = ["Process", "ServerProcess"]


class Process(abc.ABC):
    """A named automaton attached to a network."""

    def __init__(self, process_id: str) -> None:
        self.process_id = process_id
        self._network: Optional[Network] = None

    def attach(self, network: Network) -> None:
        """Register this process with a network: anything with
        ``register(process_id, handler)`` and ``send(message)`` -- the
        simulated :class:`~repro.sim.network.Network`, or
        :class:`~repro.asyncio_net.client.TcpNetwork` for a client on TCP."""
        self._network = network
        network.register(self.process_id, self.on_message)

    @property
    def network(self) -> Network:
        if self._network is None:
            raise RuntimeError(f"process {self.process_id} is not attached to a network")
        return self._network

    def send(self, message: Message) -> None:
        self.network.send(message)

    @abc.abstractmethod
    def on_message(self, message: Message) -> None:
        """Handle one delivered message (one automaton step)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.process_id})"


class ServerProcess(Process):
    """A server that wraps a protocol-defined server state machine.

    The wrapped ``logic`` object must expose ``handle(message) -> Message | None``;
    whatever it returns is sent back over the network.  Keeping the server
    logic free of any network or clock reference lets the same class run under
    the simulator, the asyncio transport and the proof engine's direct-call
    harness.
    """

    def __init__(self, process_id: str, logic) -> None:
        super().__init__(process_id)
        self.logic = logic
        self.received_count = 0

    def on_message(self, message: Message) -> None:
        self.received_count += 1
        reply = self.logic.handle(message)
        if reply is not None:
            self.send(reply)
