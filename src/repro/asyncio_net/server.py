"""Asyncio TCP server hosting one register replica.

The server wraps the *same* :class:`~repro.protocols.base.ServerLogic` object
that the simulator uses; the only difference is the transport.  Each client
connection is a :class:`~repro.asyncio_net.framed.FramedConnection`: frames
are decoded inside ``data_received`` and served in the same event-loop turn,
and every request gets exactly one reply frame (or none when the logic
returns ``None``).

Logic objects that expose the effect-driven interface (``on_frame`` /
``on_timer``, i.e. :class:`~repro.kvstore.engine.server.GroupServerEngine`)
are driven through it instead: one inbound frame may produce several sends
-- a batch-ack plus a lease grant, or lease invalidations chasing a *third*
party -- and timer effects (server-side lease expiry) land on the event
loop via ``call_later``.  Outbound frames route over the inbound connection
of their destination peer (peers dial replicas, never the reverse), tracked
by the sender id of the frames each connection delivers.  Effects execute
synchronously: nothing here creates a task.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Sequence

from ..kvstore.engine.effects import CancelTimer, SendFrame, StartTimer
from ..messages import Message
from ..protocols.base import ServerLogic
from .codec import encode_message
from .framed import FramedConnection

__all__ = ["ReplicaServer"]


class ReplicaServer:
    """One register replica listening on a TCP port.

    ``service_overhead``/``service_per_op`` model server capacity for the
    kv-store benchmarks: each request on a connection costs
    ``overhead + per_op * sub_ops`` seconds of service time before its reply
    is sent (sub_ops counts the operations inside a batch frame, 1
    otherwise), and requests on one connection are served in order.  The
    request itself is applied on arrival -- there is one read path -- and
    only the frames it produced wait: each connection remembers until when
    it is busy, and a request's sends are released when its own service time
    has passed on top of that.  The defaults keep the replica infinitely
    fast, the behaviour of the single-register experiments.
    """

    def __init__(
        self,
        logic: ServerLogic,
        host: str = "127.0.0.1",
        port: int = 0,
        service_overhead: float = 0.0,
        service_per_op: float = 0.0,
    ) -> None:
        self.logic = logic
        self.host = host
        self.port = port
        self.service_overhead = service_overhead
        self.service_per_op = service_per_op
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        # Live connections, each with the loop time until which the modelled
        # service of its earlier requests keeps it busy.
        self._connections: Dict[FramedConnection, float] = {}
        self.requests_served = 0
        # Inbound connection per peer id (keyed by the sender of the frames
        # it delivers); engine timers and deferred sends, by timer id.
        self._peers: Dict[str, FramedConnection] = {}
        self._timers: Dict[tuple, asyncio.TimerHandle] = {}
        self._deferrals = 0

    @property
    def server_id(self) -> str:
        return self.logic.server_id

    @property
    def running(self) -> bool:
        return self._server is not None

    async def start(self) -> None:
        """(Re)start listening; ``self.port`` is updated with the bound port.

        After a :meth:`stop`, calling ``start`` again rebinds the *same*
        port with the *same* logic object -- the crash-recovery model of a
        replica whose state survives on stable storage, which is what lets
        clients reconnect to a known endpoint after a kill.
        """
        self._loop = asyncio.get_running_loop()
        self._server = await self._loop.create_server(
            self._accept, self.host, self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop listening and sever every live connection (a process kill:
        in-flight requests on those connections are simply lost).  Nothing
        this server started outlives the call: no timer, no connection."""
        if self._server is None:
            return
        self._server.close()
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()
        self._peers.clear()
        for connection in list(self._connections):
            connection.close()
        self._connections.clear()
        await self._server.wait_closed()
        self._server = None

    def _accept(self) -> FramedConnection:
        connection = FramedConnection(
            lambda request: self._serve(connection, request),
            lambda exc: self._forget(connection),
        )
        self._connections[connection] = 0.0
        return connection

    def _forget(self, connection: FramedConnection) -> None:
        del self._connections[connection]
        # Only unmap peers still pointing at *this* connection: a peer that
        # redialled already maps to its new connection, which must survive,
        # or out-of-band frames (lease invalidations, deferred acks) would
        # silently drop until the peer's next inbound frame.
        for peer in [p for p, c in self._peers.items() if c is connection]:
            del self._peers[peer]

    def _serve(self, connection: FramedConnection, request: Message) -> None:
        self.requests_served += 1
        # Route replies -- and later out-of-band frames (lease grants and
        # invalidations, deferred batch-acks) -- back over this peer's own
        # inbound connection.
        self._peers[request.sender] = connection
        if hasattr(self.logic, "on_frame"):
            sends = self._run_effects(self.logic.on_frame(request))
        else:
            reply = self.logic.handle(request)
            sends = [] if reply is None else [SendFrame(reply.receiver, reply)]
        if self.service_overhead > 0 or self.service_per_op > 0:
            # Batch frames charge per sub-op, drain frames per key: the
            # pause a migration imposes on a replica grows with the range
            # size, matching the simulator's cost model.
            payload = request.payload
            sub_ops = len(payload.get("ops", ()) or payload.get("keys", ())) or 1
            ready = (
                max(self._loop.time(), self._connections[connection])
                + self.service_overhead + self.service_per_op * sub_ops
            )
            self._connections[connection] = ready
            if sends:
                self._deferrals += 1
                key = ("deferred-sends", self._deferrals)
                self._timers[key] = self._loop.call_at(
                    ready, self._release, key, sends
                )
        else:
            self._send(sends)

    def _release(self, key: tuple, sends: Sequence[SendFrame]) -> None:
        del self._timers[key]
        self._send(sends)

    def _send(self, sends: Sequence[SendFrame]) -> None:
        """Frames go out over the destination peer's inbound connection, in
        order (a lease grant emitted before the batch-ack stays before it on
        the wire).  A frame for a peer with no live connection is dropped,
        the same fate the simulator gives sends to a severed process."""
        for send in sends:
            peer = self._peers.get(send.destination)
            if peer is not None and not peer.closing:
                peer.send(encode_message(send.frame))

    def _run_effects(self, effects) -> List[SendFrame]:
        """Arm and cancel the timers of an effect batch; return its sends."""
        sends: List[SendFrame] = []
        for effect in effects:
            if isinstance(effect, SendFrame):
                sends.append(effect)
            elif isinstance(effect, StartTimer):
                stale = self._timers.pop(effect.timer_id, None)
                if stale is not None:
                    stale.cancel()
                self._timers[effect.timer_id] = self._loop.call_later(
                    effect.delay, self._on_timer_fired, effect.timer_id
                )
            elif isinstance(effect, CancelTimer):
                handle = self._timers.pop(effect.timer_id, None)
                if handle is not None:
                    handle.cancel()
            else:
                raise TypeError(
                    f"replica server cannot execute effect {effect!r}"
                )
        return sends

    def _on_timer_fired(self, timer_id) -> None:
        self._timers.pop(timer_id, None)
        self._send(self._run_effects(self.logic.on_timer(timer_id)))
