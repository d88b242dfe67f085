"""One connection holder for every asyncio owner: peer id -> live connection.

An :class:`Endpoint` is what a process of the paper has of its "reliable
asynchronous channels": the :class:`~repro.asyncio_net.framed.FramedConnection`
to each peer it can currently reach, *however that connection came to be*.

* **Accepted.**  :meth:`Endpoint.listen` binds a port (the same one again
  after a :meth:`~Endpoint.close`, which is how a killed replica or proxy
  comes back where its peers expect it).  Peers dial in, and every frame an
  accepted connection delivers teaches the endpoint ``frame.sender ->
  connection``: replies and out-of-band frames travel back over the inbound
  connection of their destination.  A frame naming a peer the endpoint dials
  teaches nothing and is dropped: an inbound connection cannot take over a
  dialled peer's route.
* **Dialled.**  :meth:`Endpoint.dial` connects to a peer under a known id,
  and says what to do should the connection be lost.  It is idempotent -- a
  live connection is kept, a dial in flight is waited for -- so an owner may
  simply dial everything it needs whenever it needs it.

Every decoded frame goes to the owner's ``on_frame`` in the event-loop turn
it arrived in.  A connection that ends without the owner having asked is
*lost*, and the endpoint unmaps the peer ids still routed over it -- only
those: a peer that redialled already maps to its new connection, which must
survive the old one's late teardown.  An accepted connection is then
forgotten (its peer dials again if it wants to).  A dialled one is handled by
the policy its dial chose, so one endpoint may hold peers of both kinds:

* ``redial`` given -- redial the peer's address every that many seconds
  until it is back or the endpoint closes; a first dial that meets a dead
  peer starts the same loop.  The address is stable across the peer's kill
  and restart.  A redial that dies on anything but an ``OSError`` is
  reported through ``on_peer_lost``: nobody is trying any more.
* ``redial=None`` -- report the loss through ``on_peer_lost``, once, and
  forget the peer; a failed first dial raises its ``OSError``.

:meth:`Endpoint.close` stops listening, closes every connection quietly (a
closed connection reports nothing) and cancels every task the endpoint holds:
its redials, and whatever the owner started with :meth:`~Endpoint.spawn` to
live no longer than its connections.  A closed endpoint may listen and dial
again.
"""

from __future__ import annotations

import asyncio
import logging
from typing import Callable, Coroutine, Dict, Optional, Set, Tuple

from ..messages import Message
from .framed import FramedConnection

__all__ = ["Endpoint"]

logger = logging.getLogger(__name__)

#: A dialled peer: ``(peer id, host, port, redial interval or None)``.
_Dialled = Tuple[str, str, int, Optional[float]]


class Endpoint:
    """Peer id -> live :class:`FramedConnection`, accepted or dialled.

    ``peers`` is the routing table an owner's send path reads (one ``get``
    per frame); a peer with no entry, or whose entry is ``closing``, cannot
    be sent to right now.  ``accepted`` holds every live inbound connection,
    mapped or not yet; ``tasks`` every task that dies with the endpoint.
    """

    def __init__(
        self,
        on_frame: Callable[[Message], None],
        on_peer_lost: Callable[[str, BaseException], None] = lambda peer_id, exc: None,
    ) -> None:
        self._on_frame = on_frame
        self._on_peer_lost = on_peer_lost
        self.peers: Dict[str, FramedConnection] = {}
        self.accepted: Set[FramedConnection] = set()
        self.tasks: Set[asyncio.Task] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._redialling: Set[str] = set()
        self._dialling: Optional[asyncio.Lock] = None  # made on the loop that dials

    # -- the accept side ---------------------------------------------------------

    @property
    def listening(self) -> bool:
        return self._server is not None

    async def listen(self, host: str, port: int) -> int:
        """Accept connections on ``host:port`` (0: any free port); returns the
        bound port, for the owner to advertise and to bind again later."""
        self._server = await asyncio.get_running_loop().create_server(
            self._accept, host, port
        )
        return self._server.sockets[0].getsockname()[1]

    def _accept(self) -> FramedConnection:
        connection = self._connection(None)
        self.accepted.add(connection)
        return connection

    # -- the dial side -----------------------------------------------------------

    async def dial(
        self, peer_id: str, host: str, port: int, redial: Optional[float] = None
    ) -> None:
        """Make sure a connection to ``peer_id`` exists or is being redialled;
        ``redial`` is the seconds between redials once it is lost, or
        ``None`` to report the loss instead."""
        if self._dialling is None:
            self._dialling = asyncio.Lock()
        async with self._dialling:
            live = self.peers.get(peer_id)
            if peer_id in self._redialling or (live is not None and not live.closing):
                return
            dialled = (peer_id, host, port, redial)
            try:
                await self._open(dialled)
            except OSError:
                if redial is None:
                    raise
                # The peer is down right now (dialling mid-kill is the norm
                # on the failover-to-direct path): quorums of the survivors
                # carry the rounds, and the peer is folded back in when it
                # returns.
                self._start_redial(dialled)

    async def _open(self, dialled: _Dialled) -> None:
        peer_id, host, port, _redial = dialled
        connection = self._connection(dialled)
        await asyncio.get_running_loop().create_connection(
            lambda: connection, host, port
        )
        self.peers[peer_id] = connection

    def _start_redial(self, dialled: _Dialled) -> None:
        peer_id = dialled[0]
        self._redialling.add(peer_id)
        self.spawn(self._redial(dialled)).add_done_callback(
            lambda task: self._redialling.discard(peer_id)
        )

    async def _redial(self, dialled: _Dialled) -> None:
        """Redial a dead peer until it is back (or this endpoint closes)."""
        peer_id, _host, _port, interval = dialled
        try:
            while True:
                await asyncio.sleep(interval)
                try:
                    return await self._open(dialled)
                except OSError:
                    continue
        except Exception as exc:
            logger.warning("redial of %s failed terminally: %r", peer_id, exc)
            self._on_peer_lost(peer_id, exc)

    # -- connections -------------------------------------------------------------

    def _connection(self, dialled: Optional[_Dialled]) -> FramedConnection:
        """The one place a connection is built: ``dialled`` is ``(peer id,
        host, port, redial)``, or ``None`` for a connection a peer opened."""
        if dialled is not None:
            on_frame = self._on_frame
        else:
            peers, deliver = self.peers, self._on_frame

            def on_frame(frame: Message) -> None:
                # Remember who speaks through this connection: frames for
                # that peer go back over it.
                if peers.get(frame.sender) is not connection:
                    if self._dialled(frame.sender):
                        # An inbound connection naming a peer this endpoint
                        # dials (an id collision, or hostile input) must not
                        # take over that peer's route.
                        logger.warning("dropped a frame from an inbound "
                                       "connection claiming to be %s", frame.sender)
                        return
                    peers[frame.sender] = connection
                deliver(frame)

        connection = FramedConnection(
            on_frame, lambda exc: self._lost(connection, dialled, exc)
        )
        return connection

    def _dialled(self, peer_id: str) -> bool:
        """Whether ``peer_id`` is a peer this endpoint dials: its connection
        is one the endpoint opened, or it is being redialled."""
        held = self.peers.get(peer_id)
        return peer_id in self._redialling or (
            held is not None and held not in self.accepted
        )

    def _lost(
        self,
        connection: FramedConnection,
        dialled: Optional[_Dialled],
        exc: BaseException,
    ) -> None:
        self.accepted.discard(connection)
        routed = [peer for peer, held in self.peers.items() if held is connection]
        for peer in routed:
            del self.peers[peer]
        if dialled is None or dialled[0] not in routed:
            return  # accepted; or a dial abandoned before its peer was mapped
        if dialled[3] is None:
            self._on_peer_lost(dialled[0], exc)
        else:
            self._start_redial(dialled)

    # -- lifetime ----------------------------------------------------------------

    def spawn(self, coroutine: Coroutine) -> asyncio.Task:
        """Run ``coroutine`` as a task that :meth:`close` cancels."""
        task = asyncio.create_task(coroutine)
        self.tasks.add(task)
        task.add_done_callback(self.tasks.discard)
        return task

    async def close(self) -> None:
        """Nothing this endpoint started outlives the call."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
        # Quietly: a connection the owner closes reports nothing.
        for connection in [*self.peers.values(), *self.accepted]:
            connection.close()
        self.peers.clear()
        self.accepted.clear()
        tasks = list(self.tasks)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        if server is not None:
            await server.wait_closed()
