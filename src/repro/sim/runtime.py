"""Simulation runtime: binds clock, network, servers, clients and history.

:class:`Simulation` builds a full emulation of the paper's system model
(Fig. 1) for any :class:`~repro.protocols.base.RegisterProtocol`:

* ``S`` server processes running the protocol's server logic,
* ``W`` writer and ``R`` reader client processes running the protocol's
  client logic,
* an asynchronous network with a configurable delay model, skip rules and an
  optional adversarial interceptor,
* a crash-failure injector bounded by ``t``,
* a history recorder whose output feeds the atomicity checker,

all on one :class:`~repro.core.clock.Clock`, the one the engine fabric runs
the simulated store on.

Operations can be scheduled at explicit virtual times (open-loop) or issued
back-to-back per client (closed-loop); both modes are used by the workload
generators and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..consistency.history import History, HistoryRecorder
from ..core.clock import Clock
from ..core.conditions import SystemParameters
from ..core.errors import ConfigurationError, SimulationError
from ..protocols.base import OperationOutcome, RegisterProtocol
from ..util.ids import client_ids
from .byzantine import ByzantineBehavior, ByzantineInjector
from .client import REGISTER_KEY, ClientProcess
from .delays import ConstantDelay, DelayModel
from .failures import FailureInjector
from .network import Network, SkipRule
from .process import ServerProcess

__all__ = ["Simulation", "SimulationResult"]


@dataclass
class SimulationResult:
    """What a simulation run produces."""

    history: History
    messages_sent: int
    messages_delivered: int
    virtual_duration: float
    crashed_servers: List[str] = field(default_factory=list)
    outcomes: Dict[str, OperationOutcome] = field(default_factory=dict)


class Simulation:
    """A single-register emulation of the paper's client/server system."""

    def __init__(
        self,
        protocol: RegisterProtocol,
        params: Optional[SystemParameters] = None,
        delay_model: Optional[DelayModel] = None,
        byzantine_behaviors: Optional[Dict[str, "ByzantineBehavior"]] = None,
    ) -> None:
        self.protocol = protocol
        self.params = params or SystemParameters(
            servers=len(protocol.servers),
            writers=protocol.writers,
            readers=protocol.readers,
            max_faults=protocol.max_faults,
        )
        if len(protocol.servers) != self.params.servers:
            raise ConfigurationError(
                "protocol server list does not match system parameters"
            )
        self.clock = Clock()
        self.network = Network(self.clock, delay_model or ConstantDelay())
        self.recorder = HistoryRecorder(lambda: self.clock.now)

        # Optional Byzantine fault injection: wrap the chosen servers' logic,
        # enforcing the same t budget as crash failures.
        self.byzantine = ByzantineInjector(protocol.servers, self.params.max_faults)
        for server_id, behavior in (byzantine_behaviors or {}).items():
            self.byzantine.corrupt(server_id, behavior)

        self.server_processes: Dict[str, ServerProcess] = {}
        for server_id in protocol.servers:
            logic = self.byzantine.wrap(server_id, protocol.make_server(server_id))
            process = ServerProcess(server_id, logic)
            process.attach(self.network)
            self.server_processes[server_id] = process

        self.writer_ids = client_ids("w", self.params.writers)
        self.reader_ids = client_ids("r", self.params.readers)
        self.writers: Dict[str, ClientProcess] = {}
        self.readers: Dict[str, ClientProcess] = {}
        for writer_id in self.writer_ids:
            logic = protocol.make_writer(writer_id)
            process = ClientProcess(writer_id, logic, protocol.servers, self.recorder)
            process.attach(self.network)
            self.writers[writer_id] = process
        for reader_id in self.reader_ids:
            logic = protocol.make_reader(reader_id)
            process = ClientProcess(reader_id, logic, protocol.servers, self.recorder)
            process.attach(self.network)
            self.readers[reader_id] = process

        self.failures = FailureInjector(
            self.clock, self.network.crash, protocol.servers, self.params.max_faults
        )
        self.outcomes: Dict[str, OperationOutcome] = {}

    # -- convenience accessors ---------------------------------------------------

    def client(self, client_id: str) -> ClientProcess:
        if client_id in self.writers:
            return self.writers[client_id]
        if client_id in self.readers:
            return self.readers[client_id]
        raise KeyError(client_id)

    # -- scheduling operations -----------------------------------------------------

    def schedule_write(
        self,
        writer_id: str,
        value: Any,
        at: float,
        on_complete: Optional[Callable[[OperationOutcome], None]] = None,
    ) -> None:
        """Invoke ``write(value)`` on the given writer at virtual time ``at``."""
        client = self.writers[writer_id]
        self.clock.schedule_at(
            at, lambda: client.invoke_write(value, self._capture(writer_id, on_complete))
        )

    def schedule_read(
        self,
        reader_id: str,
        at: float,
        on_complete: Optional[Callable[[OperationOutcome], None]] = None,
    ) -> None:
        """Invoke ``read()`` on the given reader at virtual time ``at``."""
        client = self.readers[reader_id]
        self.clock.schedule_at(
            at, lambda: client.invoke_read(self._capture(reader_id, on_complete))
        )

    def _capture(self, client_id: str, inner):
        def callback(outcome: OperationOutcome) -> None:
            self.outcomes[f"{client_id}#{len(self.outcomes)}"] = outcome
            if inner is not None:
                inner(outcome)

        return callback

    def schedule_closed_loop(
        self,
        client_id: str,
        operations: Sequence[Any],
        start_at: float = 0.0,
        think_time: float = 0.0,
    ) -> None:
        """Issue a sequence of operations back-to-back on one client.

        ``operations`` is a sequence of items: ``("write", value)`` or
        ``("read",)``; each is invoked as soon as the previous one completes
        (plus ``think_time``).
        """
        client = self.client(client_id)
        ops = list(operations)

        def issue(index: int) -> None:
            if index >= len(ops):
                return
            spec = ops[index]

            def next_one(_outcome: OperationOutcome) -> None:
                self.outcomes[f"{client_id}#{len(self.outcomes)}"] = _outcome
                if think_time > 0:
                    self.clock.schedule(think_time, lambda: issue(index + 1))
                else:
                    issue(index + 1)

            if spec[0] == "write":
                client.invoke_write(spec[1], next_one)
            elif spec[0] == "read":
                client.invoke_read(next_one)
            else:
                raise SimulationError(f"unknown operation spec {spec!r}")

        self.clock.schedule_at(start_at, lambda: issue(0))

    # -- adversary / failure controls ------------------------------------------------

    def add_skip_rule(self, rule: SkipRule) -> SkipRule:
        return self.network.add_skip_rule(rule)

    def set_interceptor(self, interceptor) -> None:
        self.network.set_interceptor(interceptor)

    def crash_server(self, server_id: str, at: float) -> None:
        self.failures.schedule_crash(server_id, at)

    # -- running ----------------------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: int = 2_000_000) -> SimulationResult:
        """Run the simulation to quiescence (or a deadline) and return results."""
        self.clock.run(until=until, max_events=max_events)
        history = self.recorder.history(REGISTER_KEY)
        return SimulationResult(
            history=history,
            messages_sent=self.network.sent_count,
            messages_delivered=self.network.delivered_count,
            virtual_duration=self.clock.now,
            crashed_servers=sorted(self.failures.crashed_servers),
            outcomes=dict(self.outcomes),
        )
