"""Asyncio TCP server hosting one register replica.

The server hosts the *same* replica object the simulator runs -- a
single-register :class:`~repro.protocols.base.ServerLogic` or a kv-store
:class:`~repro.kvstore.engine.server.GroupServerEngine` (see
:class:`ReplicaServer`); the only difference is the transport.  Each client
connection is a :class:`~repro.asyncio_net.framed.FramedConnection`: frames
are decoded inside ``data_received`` and served in the same event-loop turn,
and every request gets exactly one reply frame (or none when the logic
returns ``None``).

Logic objects that expose the effect-driven interface (``on_frame`` /
``on_timer``, i.e. :class:`~repro.kvstore.engine.server.GroupServerEngine`)
are driven through it instead, by an
:class:`~repro.kvstore.engine.runtime.EffectRuntime`: one inbound frame may
produce several sends -- a batch-ack (with the lease grants it carries)
plus the deferred writes' batch-acks its lease releases let through, or
lease invalidations chasing a *third* party -- and timer effects
(server-side lease expiry) land on the event loop via ``call_later``.  Outbound frames
route over the inbound connection of their destination peer (peers dial
replicas, never the reverse), which the server's
:class:`~repro.asyncio_net.endpoint.Endpoint` learns from the sender id of
the frames each connection delivers.  Effects execute synchronously: nothing
here creates a task.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Sequence, Union
from weakref import WeakKeyDictionary

from ..kvstore.engine.effects import SendFrame
from ..kvstore.engine.runtime import EffectRuntime
from ..kvstore.engine.server import GroupServerEngine
from ..messages import Message
from ..protocols.base import ServerLogic
from .codec import encode_message
from .endpoint import Endpoint
from .framed import FramedConnection

__all__ = ["ReplicaServer"]


class ReplicaServer:
    """One register replica listening on a TCP port.

    ``logic`` is what the replica runs: a single-register
    :class:`~repro.protocols.base.ServerLogic`, served through ``handle``
    (the register experiments), or a kv-store
    :class:`~repro.kvstore.engine.server.GroupServerEngine` -- one replica
    of a group, many shards' keys, and no ``ServerLogic`` -- served through
    ``on_frame`` / ``on_timer``.  Whichever has ``on_frame`` is driven as an
    engine.  ``server_id`` is the hosted object's.

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
        logic: Union[ServerLogic, GroupServerEngine],
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
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.endpoint = Endpoint(self._serve)
        # The loop time until which the modelled service of a connection's
        # earlier requests keeps it busy.
        self._busy_until: "WeakKeyDictionary[FramedConnection, float]" = WeakKeyDictionary()
        self.requests_served = 0
        self._runtime = EffectRuntime(
            logic, lambda delay, fire: self._loop.call_later(delay, fire), self._send
        )
        # While a request with a modelled service time is being applied, the
        # frames it produces collect here; released as a group, by number.
        self._held: Optional[List[SendFrame]] = None
        self._deferred: Dict[int, asyncio.TimerHandle] = {}
        self._deferrals = 0

    @property
    def server_id(self) -> str:
        return self.logic.server_id

    @property
    def running(self) -> bool:
        return self.endpoint.listening

    @property
    def _timers(self) -> Dict[object, asyncio.TimerHandle]:
        """Every loop callback still pending: engine timers, deferred sends."""
        return {**self._runtime.timers, **self._deferred}

    async def start(self) -> None:
        """(Re)start listening; ``self.port`` is updated with the bound port.

        After a :meth:`stop`, calling ``start`` again rebinds the *same*
        port with the *same* logic object -- the crash-recovery model of a
        replica whose state survives on stable storage, which is what lets
        clients reconnect to a known endpoint after a kill.
        """
        self._loop = asyncio.get_running_loop()
        self.port = await self.endpoint.listen(self.host, self.port)

    async def stop(self) -> None:
        """Stop listening and sever every live connection (a process kill:
        in-flight requests on those connections are simply lost).  Nothing
        this server started outlives the call: no timer, no connection."""
        if not self.running:
            return
        self._runtime.shutdown()
        for handle in self._deferred.values():
            handle.cancel()
        self._deferred.clear()
        await self.endpoint.close()

    def _serve(self, request: Message) -> None:
        # The endpoint has just routed the sender over the connection this
        # request arrived on: replies -- and later out-of-band frames (lease
        # invalidations, deferred batch-acks) -- go back over it.
        self.requests_served += 1
        if self.service_overhead <= 0 and self.service_per_op <= 0:
            self._apply(request)
            return
        self._held = sends = []
        try:
            self._apply(request)
        finally:
            self._held = None
        # Batch frames charge per sub-op, drain frames per key: the pause a
        # migration imposes on a replica grows with the range size, matching
        # the simulator's cost model.
        payload = request.payload
        sub_ops = len(payload.get("ops", ()) or payload.get("keys", ())) or 1
        connection = self.endpoint.peers[request.sender]
        ready = (
            max(self._loop.time(), self._busy_until.get(connection, 0.0))
            + self.service_overhead + self.service_per_op * sub_ops
        )
        self._busy_until[connection] = ready
        if sends:
            self._deferrals += 1
            self._deferred[self._deferrals] = self._loop.call_at(
                ready, self._release, self._deferrals, sends
            )

    def _apply(self, request: Message) -> None:
        """One read path: the request takes effect on arrival, always."""
        if hasattr(self.logic, "on_frame"):
            self._runtime.run(self.logic.on_frame(request))
        else:
            reply = self.logic.handle(request)
            if reply is not None:
                self._send(SendFrame(reply.receiver, reply))

    def _release(self, number: int, sends: Sequence[SendFrame]) -> None:
        # Not an engine timer: nothing observes it and on_timer never hears.
        del self._deferred[number]
        for send in sends:
            self._send(send)

    def _send(self, send: SendFrame) -> None:
        """A frame goes out over the destination peer's inbound connection,
        in emission order (the batch-acks of writes a frame's releases let
        through stay before that frame's own ack on the wire).  A frame for a peer with no live connection
        is dropped, the same fate the simulator gives sends to a severed
        process."""
        if self._held is not None:
            self._held.append(send)
            return
        peer = self.endpoint.peers.get(send.destination)
        if peer is not None and not peer.closing:
            peer.send(encode_message(send.frame))
