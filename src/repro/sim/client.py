"""The client automaton: a process that drives protocol operation generators.

A :class:`ClientProcess` owns one :class:`~repro.protocols.base.ClientLogic`
instance and executes its read/write generators over a network: each yielded
:class:`~repro.protocols.base.Broadcast` becomes one round-trip (a message to
every server, resumed once ``S - t`` replies -- or the broadcast's own
threshold -- have arrived).  Replies for past round-trips and replies beyond
the threshold are ignored, exactly as in the quorum protocols the paper
describes.  It is the one client of the register experiments: the same
object runs on the simulated network (:class:`~repro.sim.runtime.Simulation`)
and on TCP (:class:`~repro.asyncio_net.cluster.LocalCluster`, whose
:class:`~repro.asyncio_net.client.TcpNetwork` has the network's ``register``
/ ``send``), and records into a
:class:`~repro.consistency.history.HistoryRecorder` on either clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

from ..consistency.history import HistoryRecorder
from ..core.errors import ProtocolError
from ..core.operations import OpKind, new_op_id
from ..protocols.base import Broadcast, ClientLogic, OperationOutcome
from ..messages import Message
from .process import Process

__all__ = ["ClientProcess", "PendingOperation", "REGISTER_KEY"]

#: The one key every operation on the simulated register is recorded under.
REGISTER_KEY = "register"


@dataclass
class PendingOperation:
    """Book-keeping for the operation a client is currently executing."""

    op_id: str
    kind: OpKind
    generator: Any
    round_trip: int = 0
    wait_for: int = 0
    replies: List[Message] = field(default_factory=list)
    responded: bool = False
    on_complete: Optional[Callable[[OperationOutcome], None]] = None


class ClientProcess(Process):
    """A reader or writer client attached to a network."""

    def __init__(
        self,
        client_id: str,
        logic: ClientLogic,
        servers: Sequence[str],
        recorder: HistoryRecorder,
    ) -> None:
        super().__init__(client_id)
        self.logic = logic
        self.servers = list(servers)
        self.recorder = recorder
        self.current: Optional[PendingOperation] = None
        self.completed_operations: int = 0
        #: Operations invoked while another one is in flight are queued and
        #: issued as soon as the current one completes, so that each client's
        #: history stays sequential (well-formed) regardless of how densely a
        #: workload schedules invocations.
        self._backlog: List[tuple] = []

    # -- invoking operations ---------------------------------------------------

    @property
    def busy(self) -> bool:
        return self.current is not None

    def invoke_write(
        self, value: Any, on_complete: Optional[Callable[[OperationOutcome], None]] = None
    ) -> str:
        """Invoke ``write(value)``; returns the operation id."""
        return self._invoke(OpKind.WRITE, self.logic.write_protocol(value), value,
                            on_complete)

    def invoke_read(
        self, on_complete: Optional[Callable[[OperationOutcome], None]] = None
    ) -> str:
        """Invoke ``read()``; returns the operation id."""
        return self._invoke(OpKind.READ, self.logic.read_protocol(), None, on_complete)

    def _invoke(self, kind, generator, value, on_complete) -> str:
        op_id = new_op_id(f"{self.process_id}-{kind.value}")
        if self.current is not None:
            self._backlog.append((op_id, kind, generator, value, on_complete))
        else:
            self._start(op_id, kind, generator, value, on_complete)
        return op_id

    def _start(self, op_id, kind, generator, value, on_complete) -> None:
        self.recorder.record_invocation(
            REGISTER_KEY, op_id, self.process_id, kind, value=value
        )
        self.current = PendingOperation(
            op_id=op_id, kind=kind, generator=generator, on_complete=on_complete
        )
        self._advance(self.current, first=True)

    # -- driving the generator --------------------------------------------------

    def _advance(self, pending: PendingOperation, first: bool = False) -> None:
        try:
            if first:
                request = next(pending.generator)
            else:
                request = pending.generator.send(list(pending.replies))
        except StopIteration as stop:
            self._complete(pending, stop.value)
            return
        if not isinstance(request, Broadcast):
            raise ProtocolError("client generators must yield Broadcast objects")
        pending.round_trip += 1
        pending.replies = []
        default_quorum = len(self.servers) - self.logic.max_faults
        pending.wait_for = (
            request.wait_for if request.wait_for is not None else default_quorum
        )
        for server_id in self.servers:
            self.send(
                Message(
                    sender=self.process_id,
                    receiver=server_id,
                    kind=request.kind,
                    payload=request.payload_for(server_id),
                    op_id=pending.op_id,
                    round_trip=pending.round_trip,
                )
            )

    def _complete(self, pending: PendingOperation, outcome: OperationOutcome) -> None:
        if not isinstance(outcome, OperationOutcome):
            raise ProtocolError("operation generator must return an OperationOutcome")
        pending.responded = True
        self.recorder.record_response(
            pending.op_id,
            value=outcome.value,
            tag=outcome.tag,
            round_trips=pending.round_trip,
        )
        self.current = None
        self.completed_operations += 1
        if pending.on_complete is not None:
            pending.on_complete(outcome)
        if self.current is None and self._backlog:
            self._start(*self._backlog.pop(0))

    # -- network events ----------------------------------------------------------

    def on_message(self, message: Message) -> None:
        pending = self.current
        if pending is None or pending.responded:
            return
        if message.op_id != pending.op_id or message.round_trip != pending.round_trip:
            # A straggler reply from a previous round-trip or operation.
            return
        pending.replies.append(message)
        if len(pending.replies) >= pending.wait_for:
            self._advance(pending)
