"""Asyncio client driver for register protocols.

Drives the same generator-based :class:`~repro.protocols.base.ClientLogic`
the simulator uses, but over real TCP connections: each yielded
:class:`~repro.protocols.base.Broadcast` sends one frame to every replica and
resumes the generator as soon as ``S - t`` replies have arrived.

The connections are held by an :class:`~repro.asyncio_net.endpoint.Endpoint`
(dialled once, never redialled: a replica that dies is simply no longer sent
to), so replies arrive as decoded frames in the event-loop turn the socket
produced them.  Stragglers are handled the way quorum systems handle them:
every frame carries the operation id and round-trip it answers, and frames for
already-completed round-trips are discarded instead of being mistaken for
answers to the current one.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..core.errors import ProtocolError
from ..core.operations import OpKind, new_op_id
from ..protocols.base import Broadcast, ClientLogic, OperationOutcome
from ..messages import Message
from .codec import encode_message
from .endpoint import Endpoint

__all__ = ["TimedOutcome", "AsyncRegisterClient"]


@dataclass
class TimedOutcome:
    """An operation outcome plus its wall-clock latency in seconds."""

    outcome: OperationOutcome
    latency: float
    round_trips: int
    started_at: float
    finished_at: float


class AsyncRegisterClient:
    """A reader or writer client connected to a set of replica endpoints."""

    def __init__(
        self,
        logic: ClientLogic,
        endpoints: Dict[str, Tuple[str, int]],
        max_faults: int,
    ) -> None:
        self.logic = logic
        self.endpoints = dict(endpoints)
        self.max_faults = max_faults
        self._endpoint = Endpoint(self._on_frame)
        self.history: List[TimedOutcome] = []
        # Reply collection state for the in-flight round-trip.
        self._expected_key: Optional[Tuple[str, int]] = None
        self._replies: List[Message] = []
        self._enough_replies: Optional[asyncio.Event] = None
        self._wait_for: int = 0

    @property
    def client_id(self) -> str:
        return self.logic.client_id

    @property
    def quorum_size(self) -> int:
        return len(self.endpoints) - self.max_faults

    # -- connection management ---------------------------------------------------

    async def connect(self) -> None:
        for server_id, (host, port) in self.endpoints.items():
            await self._endpoint.dial(server_id, host, port)

    async def close(self) -> None:
        await self._endpoint.close()

    def _on_frame(self, message: Message) -> None:
        key = (message.op_id, message.round_trip)
        if key != self._expected_key or self._enough_replies is None:
            return  # straggler from an earlier round-trip
        self._replies.append(message)
        if len(self._replies) >= self._wait_for:
            self._enough_replies.set()

    # -- operations ----------------------------------------------------------------

    async def write(self, value: Any) -> TimedOutcome:
        """Perform ``write(value)`` and record its latency."""
        return await self._run(self.logic.write_protocol(value), OpKind.WRITE)

    async def read(self) -> TimedOutcome:
        """Perform ``read()`` and record its latency."""
        return await self._run(self.logic.read_protocol(), OpKind.READ)

    async def _run(self, generator, kind: OpKind) -> TimedOutcome:
        op_id = new_op_id(f"{self.client_id}-{kind.value}")
        started = time.monotonic()
        round_trip = 0
        try:
            request = next(generator)
            while True:
                round_trip += 1
                replies = await self._broadcast(request, op_id, round_trip)
                request = generator.send(replies)
        except StopIteration as stop:
            outcome = stop.value
            if not isinstance(outcome, OperationOutcome):
                raise ProtocolError("operation generator must return an OperationOutcome")
            finished = time.monotonic()
            timed = TimedOutcome(
                outcome=outcome,
                latency=finished - started,
                round_trips=round_trip,
                started_at=started,
                finished_at=finished,
            )
            self.history.append(timed)
            return timed

    async def _broadcast(
        self, request: Broadcast, op_id: str, round_trip: int
    ) -> List[Message]:
        wait_for = request.wait_for if request.wait_for is not None else self.quorum_size
        self._expected_key = (op_id, round_trip)
        self._replies = []
        self._wait_for = wait_for
        self._enough_replies = asyncio.Event()
        for server_id, connection in self._endpoint.peers.items():
            message = Message(
                sender=self.client_id,
                receiver=server_id,
                kind=request.kind,
                payload=request.payload_for(server_id),
                op_id=op_id,
                round_trip=round_trip,
            )
            connection.send(encode_message(message))
        await self._enough_replies.wait()
        replies = list(self._replies[:wait_for])
        self._expected_key = None
        self._enough_replies = None
        return replies
