"""Protocol framework: round-trip structured register clients and servers.

Section 2.2 of the paper fixes the *algorithm schema* every implementation
follows: a client operation is a sequence of round-trips; in each round-trip
the client contacts all servers (query or update) and waits for replies from
``S - t`` of them.  This module encodes that schema so that

* every protocol's client logic is an ordinary Python **generator** that
  yields :class:`Broadcast` requests and receives lists of reply
  :class:`~repro.messages.Message` objects -- no knowledge of the
  transport, the clock, or asyncio;
* every protocol's server logic is a plain object with a
  ``handle(message) -> Message | None`` method;
* the number of round-trips an operation used is observable from the outside
  (the driver counts the yields), so the design-space classifier never has to
  trust the protocol's own claim.

The same generator-based client logic is executed by the client automaton
(:class:`repro.sim.client.ClientProcess`), which runs on the discrete-event
simulator's network and, attached to a
:class:`repro.asyncio_net.client.TcpNetwork`, over real TCP; by the
synchronous in-process harness used by unit tests and the proof engine
(:class:`DirectDriver` below); and, one generator per key, by the kv store's
client session engine.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Sequence

from ..core.errors import ProtocolError, QuorumUnavailableError
from ..core.operations import OpKind
from ..core.timestamps import Tag
from ..messages import Message

__all__ = [
    "Broadcast",
    "OperationOutcome",
    "ClientLogic",
    "ServerLogic",
    "RegisterProtocol",
    "DirectDriver",
]

#: Type alias for the generator a client operation is written as: it yields
#: Broadcast requests and is resumed with the list of reply messages.
OperationGenerator = Generator["Broadcast", List[Message], "OperationOutcome"]


@dataclass
class Broadcast:
    """One round-trip: a message broadcast to all servers plus an ack threshold.

    Attributes:
        kind: message kind (e.g. ``"read"`` or ``"write"``), matching the
            names used in Algorithms 1 and 2.
        payload: the payload sent to every server.  If ``per_server_payload``
            is provided it overrides ``payload`` for the listed servers.
        wait_for: how many replies to wait for; ``None`` means the driver's
            default of ``S - t``.
        per_server_payload: optional per-server payload overrides.
    """

    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)
    wait_for: Optional[int] = None
    per_server_payload: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def payload_for(self, server_id: str) -> Dict[str, Any]:
        if server_id in self.per_server_payload:
            return self.per_server_payload[server_id]
        return self.payload


@dataclass
class OperationOutcome:
    """The result of a completed client operation.

    ``value`` is the returned value for reads (``None`` for writes); ``tag``
    is the ``(ts, wid)`` tag of the value read or written, which the history
    checker uses to match reads to writes exactly.
    """

    kind: OpKind
    value: Any = None
    tag: Optional[Tag] = None
    metadata: Dict[str, Any] = field(default_factory=dict)


class ClientLogic(abc.ABC):
    """Protocol-specific client logic for one client process.

    Subclasses implement the two operation generators.  They may keep local
    state between operations (for example the reader's ``valQueue`` in
    Algorithm 1 or the single writer's local timestamp in ABD).
    """

    def __init__(self, client_id: str, servers: Sequence[str], max_faults: int) -> None:
        self.client_id = client_id
        self.servers = list(servers)
        self.max_faults = max_faults

    @property
    def quorum_size(self) -> int:
        return len(self.servers) - self.max_faults

    @abc.abstractmethod
    def write_protocol(self, value: Any) -> OperationGenerator:
        """Generator implementing ``write(value)``."""

    @abc.abstractmethod
    def read_protocol(self) -> OperationGenerator:
        """Generator implementing ``read()``."""


class ServerLogic(abc.ABC):
    """Protocol-specific server logic for one server replica."""

    def __init__(self, server_id: str) -> None:
        self.server_id = server_id

    @abc.abstractmethod
    def handle(self, message: Message) -> Optional[Message]:
        """Process one request and return the reply (or None)."""

    def reply(
        self, message: Message, kind: str, payload: Dict[str, Any]
    ) -> Message:
        """The reply to ``message``, sent as this replica.

        A replica answers as itself, never as whatever ``message.receiver``
        says: a batch frame's sub-requests are addressed to the round's
        group, not to each replica (see :mod:`repro.messages`).  The reply
        goes back to the request's sender under its op id, round trip and
        trace.
        """
        return Message(
            self.server_id, message.sender, kind, payload,
            message.op_id, message.round_trip, trace=message.trace,
        )

    # -- state migration (live rebalancing) ------------------------------------
    #
    # The kv-store's incremental drain moves per-key register state between
    # replicas as JSON-safe blobs: ``export_state`` snapshots this replica's
    # contribution, ``absorb_state`` merges a blob into the local state (on a
    # fresh register this is a restore; merging the same blob twice is a
    # no-op, which is what makes duplicated transfer frames harmless).

    def export_state(self) -> Dict[str, Any]:
        """A JSON-safe snapshot of this replica's register state."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support state migration"
        )

    def absorb_state(self, blob: Dict[str, Any]) -> None:
        """Merge an exported snapshot into the local state (idempotent)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support state migration"
        )


class RegisterProtocol(abc.ABC):
    """A factory bundling the client and server logic of one implementation.

    A protocol also declares its *claimed* design point (how many round-trips
    its operations take) and the feasibility condition it requires; both are
    checked against observed behaviour by the test suite and the design-space
    benchmark.
    """

    #: Human-readable protocol name.
    name: str = "abstract"
    #: Claimed worst-case write round-trips.
    write_round_trips: int = 2
    #: Claimed worst-case read round-trips (an upper bound: see
    #: :meth:`make_opportunistic_reader`).
    read_round_trips: int = 2
    #: Whether the protocol supports multiple writers.
    multi_writer: bool = True
    #: Server-message kinds that mutate register state.  The lease fence of
    #: the proxy read cache keys on this: a mutating sub-request against a
    #: leased key is deferred until the lease holders release, while pure
    #: queries are served immediately.  Covers the tag/value protocols
    #: ("update") and the value-vector family ("write").
    mutating_kinds: frozenset = frozenset({"update", "write"})
    #: Server-message kinds a server answers from register state alone,
    #: recording nothing about who asked.  Rounds of one such kind, key and
    #: payload queued in the same flush may share one query (see
    #: :mod:`repro.kvstore.engine.rounds`): ``{"query"}`` for the tag/value
    #: protocols; none for the value-vector family, whose ``"read"`` records
    #: the reader in the server's ``updated`` set.
    shareable_kinds: frozenset = frozenset()

    def __init__(self, servers: Sequence[str], max_faults: int, readers: int = 2,
                 writers: int = 2) -> None:
        self.servers = list(servers)
        self.max_faults = max_faults
        self.readers = readers
        self.writers = writers
        self.validate_configuration()

    def validate_configuration(self) -> None:
        """Raise ``ConfigurationError`` if the protocol cannot be correct here.

        The default accepts anything; subclasses override to enforce e.g.
        ``t < S/2`` or ``R < S/t - 2``.
        """

    @abc.abstractmethod
    def make_server(self, server_id: str) -> ServerLogic:
        """Create the logic object for one server replica."""

    @abc.abstractmethod
    def make_writer(self, writer_id: str) -> ClientLogic:
        """Create the client logic for one writer."""

    @abc.abstractmethod
    def make_reader(self, reader_id: str) -> ClientLogic:
        """Create the client logic for one reader."""

    def make_opportunistic_reader(self, reader_id: str) -> ClientLogic:
        """The reader a deployment should run when only the *worst case* must
        match ``read_round_trips``: protocols with a reader that finishes
        early in favourable executions return it here (the kv-store asks for
        this one); the default is the textbook reader."""
        return self.make_reader(reader_id)

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "write_round_trips": self.write_round_trips,
            "read_round_trips": self.read_round_trips,
            "servers": len(self.servers),
            "max_faults": self.max_faults,
            "readers": self.readers,
            "writers": self.writers,
        }


class DirectDriver:
    """Synchronous in-process driver for client operation generators.

    Useful for unit tests of protocol logic and for the proof engine: it
    delivers every round-trip to a chosen subset of server logic objects
    immediately, in a caller-controlled order, with no clock or network in
    between.  It is *not* used for end-to-end histories (the simulator is).
    """

    def __init__(self, servers: Dict[str, ServerLogic], max_faults: int) -> None:
        self.servers = dict(servers)
        self.max_faults = max_faults

    def run_operation(
        self,
        client_logic: ClientLogic,
        generator: OperationGenerator,
        op_id: str,
        respond_from: Optional[Sequence[str]] = None,
        server_order: Optional[Sequence[str]] = None,
    ) -> OperationOutcome:
        """Run one operation to completion.

        ``respond_from`` selects which servers' replies are handed back to the
        client (default: the first ``S - t`` in ``server_order``);
        ``server_order`` controls the order servers process the broadcast.
        """
        order = list(server_order) if server_order is not None else list(self.servers)
        quorum = len(self.servers) - self.max_faults
        responders = list(respond_from) if respond_from is not None else order[:quorum]
        round_trip = 0
        try:
            request = next(generator)
            while True:
                round_trip += 1
                replies: List[Message] = []
                for server_id in order:
                    logic = self.servers[server_id]
                    msg = Message(
                        sender=client_logic.client_id,
                        receiver=server_id,
                        kind=request.kind,
                        payload=request.payload_for(server_id),
                        op_id=op_id,
                        round_trip=round_trip,
                    )
                    reply = logic.handle(msg)
                    if reply is not None and server_id in responders:
                        replies.append(reply)
                needed = request.wait_for if request.wait_for is not None else quorum
                if len(replies) < needed:
                    raise QuorumUnavailableError(
                        f"only {len(replies)} replies available, need {needed}"
                    )
                request = generator.send(replies[:needed] if needed else replies)
        except StopIteration as stop:
            outcome = stop.value
            if not isinstance(outcome, OperationOutcome):
                raise ProtocolError(
                    "operation generator must return an OperationOutcome"
                )
            outcome.metadata.setdefault("round_trips", round_trip)
            return outcome
