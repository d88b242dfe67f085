"""The register clients' network over TCP.

The paper's client automaton (Fig. 1) is written once, as
:class:`repro.sim.client.ClientProcess`, and asks of a network only
``register(process_id, handler)`` and ``send(message)``: the simulator's
:class:`~repro.sim.network.Network` provides them on the virtual clock,
:class:`TcpNetwork` over TCP.  Each process holds its own
:class:`~repro.asyncio_net.endpoint.Endpoint`, dialled once to every replica
and never redialled: a replica that dies is no longer sent to, and a quorum
of the rest carries the round-trips.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..messages import Message
from .codec import encode_message
from .endpoint import Address, Endpoint

__all__ = ["TcpNetwork"]


class TcpNetwork:
    """``register`` / ``send`` over TCP to ``replicas`` (server id ->
    ``(host, port)``; a Unix socket path works the same).  A handler that
    raises is reported to ``on_error`` instead of ending the connection its
    frame came on."""

    def __init__(
        self, replicas: Dict[str, Address], on_error: Callable[[Exception], None]
    ) -> None:
        self.replicas = dict(replicas)
        self.endpoints: Dict[str, Endpoint] = {}
        self._on_error = on_error

    def register(self, process_id: str, handler: Callable[[Message], None]) -> None:
        """Attach a process; ``handler`` is called for each frame it receives."""
        def deliver(message: Message) -> None:
            try:
                handler(message)
            except Exception as exc:
                self._on_error(exc)

        self.endpoints[process_id] = Endpoint(deliver)

    async def connect(self) -> None:
        """Dial every replica from every registered process."""
        for endpoint in self.endpoints.values():
            for server_id, address in self.replicas.items():
                await endpoint.dial(server_id, address)

    def send(self, message: Message) -> None:
        """Send from the sender's endpoint; dropped if the receiver is down."""
        connection = self.endpoints[message.sender].peers.get(message.receiver)
        if connection is not None and not connection.closing:
            connection.send(encode_message(message))

    async def close(self) -> None:
        for endpoint in self.endpoints.values():
            await endpoint.close()
