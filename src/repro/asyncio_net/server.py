"""Asyncio server hosting one register replica, on TCP or a Unix-domain socket.

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
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple, Union
from weakref import WeakKeyDictionary

from ..kvstore.engine.effects import SendFrame
from ..kvstore.engine.runtime import EffectRuntime
from ..kvstore.engine.server import GroupServerEngine
from ..messages import Message, service_units
from ..protocols.base import ServerLogic
from .codec import encode_message
from .endpoint import Address, Endpoint
from .framed import FramedConnection

__all__ = ["ReplicaServer"]


class ReplicaServer:
    """One register replica listening at ``address``: a TCP ``(host, port)``
    (the default, any free loopback port) or a Unix-domain socket path.

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
    has passed on top of that.  Frames to one peer leave in the order they
    were produced: each waits in the peer's outbox until the frames ahead of
    it are out, and a frame a timer sends joins the tail of a non-empty
    outbox instead of overtaking it.  The defaults keep the replica
    infinitely fast, the behaviour of the single-register experiments.
    """

    def __init__(
        self,
        logic: Union[ServerLogic, GroupServerEngine],
        address: Address = ("127.0.0.1", 0),
        service_overhead: float = 0.0,
        service_per_op: float = 0.0,
    ) -> None:
        self.logic = logic
        self.address = address
        self.service_overhead = service_overhead
        self.service_per_op = service_per_op
        self._modelled = service_overhead > 0 or service_per_op > 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.endpoint = Endpoint(self._serve)
        # The loop time until which the modelled service of a connection's
        # earlier requests keeps it busy.
        self._busy_until: "WeakKeyDictionary[FramedConnection, float]" = WeakKeyDictionary()
        self.requests_served = 0
        # With no service time nothing is ever held: frames go straight out.
        self._runtime = EffectRuntime(
            logic, lambda delay, fire: self._loop.call_later(delay, fire),
            self._send if self._modelled else self._write,
        )
        # While a request with a modelled service time is being applied, the
        # frames it produces collect here, then join their peers' outboxes.
        self._held: Optional[List[SendFrame]] = None
        # Peer id -> the frames still held for it, oldest first, each with
        # the loop time it may leave at (never before the one ahead of it).
        self._outboxes: Dict[str, Deque[Tuple[float, SendFrame]]] = {}
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
        """(Re)start listening; ``self.address`` is updated with the bound one.

        After a :meth:`stop`, calling ``start`` again rebinds the *same*
        address with the *same* logic object -- the crash-recovery model of a
        replica whose state survives on stable storage, which is what lets
        clients reconnect to a known endpoint after a kill.
        """
        self._loop = asyncio.get_running_loop()
        self.address = await self.endpoint.listen(self.address)

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
        self._outboxes.clear()
        await self.endpoint.close()

    def _serve(self, request: Message) -> None:
        # The endpoint has just routed the sender over the connection this
        # request arrived on: replies -- and later out-of-band frames (lease
        # invalidations, deferred batch-acks) -- go back over it.
        self.requests_served += 1
        if not self._modelled:
            self._apply(request)
            return
        self._held = sends = []
        try:
            self._apply(request)
        finally:
            self._held = None
        connection = self.endpoint.peers[request.sender]
        ready = (
            max(self._loop.time(), self._busy_until.get(connection, 0.0))
            + self.service_overhead + self.service_per_op * service_units(request)
        )
        self._busy_until[connection] = ready
        for send in sends:
            self._hold(send, ready)

    def _apply(self, request: Message) -> None:
        """One read path: the request takes effect on arrival, always."""
        if hasattr(self.logic, "on_frame"):
            self._runtime.run(self.logic.on_frame(request))
        else:
            reply = self.logic.handle(request)
            if reply is not None:
                self._send(SendFrame(reply.receiver, reply))

    def _hold(self, send: SendFrame, ready: float) -> None:
        """Queue ``send`` for its peer, to leave at ``ready`` or behind the
        frames already held for that peer, whichever is later."""
        outbox = self._outboxes.get(send.destination)
        if outbox is None:
            outbox = self._outboxes[send.destination] = deque()
        elif outbox[-1][0] >= ready:
            # The tail's release takes this frame along.
            outbox.append((outbox[-1][0], send))
            return
        outbox.append((ready, send))
        self._deferrals += 1
        self._deferred[self._deferrals] = self._loop.call_at(
            ready, self._release, self._deferrals, send.destination, ready
        )

    def _release(self, number: int, destination: str, due: float) -> None:
        """Send the head of ``destination``'s outbox up to the frames due at
        ``due``.  The times are compared as stored, never against the loop's
        clock, and a release takes only from the head, so the peer's frames
        leave in order whatever order equal ``call_at`` times run in."""
        # Not an engine timer: nothing observes it and on_timer never hears.
        del self._deferred[number]
        outbox = self._outboxes[destination]
        while outbox and outbox[0][0] <= due:
            self._write(outbox.popleft()[1])
        if not outbox:
            del self._outboxes[destination]

    def _send(self, send: SendFrame) -> None:
        """A frame goes out over the destination peer's inbound connection,
        in emission order (the batch-acks of writes a frame's releases let
        through stay before that frame's own ack on the wire).  While a
        service time is modelled, a frame produced outside a request -- by a
        timer -- still queues behind the frames held for its peer."""
        if self._held is not None:
            self._held.append(send)
        elif send.destination in self._outboxes:
            self._hold(send, self._loop.time())
        else:
            self._write(send)

    def _write(self, send: SendFrame) -> None:
        """Write one frame now -- an ack too large for one frame goes as
        several.  A frame for a peer with no live connection is dropped, the
        same fate the simulator gives sends to a severed process."""
        peer = self.endpoint.peers.get(send.destination)
        transport = None if peer is None else peer.transport
        if transport is not None and not transport.is_closing():
            transport.write(encode_message(send.frame))
