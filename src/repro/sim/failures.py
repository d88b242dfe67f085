"""Crash-failure injection for the simulator.

The model allows any number of clients and up to ``t`` servers to crash in an
execution.  The injector schedules crash events on the virtual clock and
enforces the ``t`` budget for servers so that an experiment cannot
accidentally exceed the failure model it claims to run under.  It crashes a
process through the ``crash`` callable it is given: the register network's
(:meth:`~repro.sim.network.Network.crash`) or the simulated store's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Set

from ..core.clock import Clock
from ..core.errors import ConfigurationError
from ..util.rng import SeededRng

__all__ = ["CrashPlan", "FailureInjector"]


@dataclass(frozen=True)
class CrashPlan:
    """A single planned crash: which process, and when."""

    process_id: str
    time: float


class FailureInjector:
    """Schedules crash failures on ``clock`` and tracks them."""

    def __init__(
        self,
        clock: Clock,
        crash: Callable[[str], None],
        server_ids: Sequence[str],
        max_server_faults: int,
    ) -> None:
        if max_server_faults < 0 or max_server_faults >= len(server_ids):
            raise ConfigurationError(
                f"t={max_server_faults} invalid for S={len(server_ids)}"
            )
        self.clock = clock
        self.crash = crash
        self.server_ids = list(server_ids)
        self.max_server_faults = max_server_faults
        self.crashed_servers: Set[str] = set()
        self.crashed_clients: Set[str] = set()
        self.plans: List[CrashPlan] = []

    def schedule_crash(self, process_id: str, time: float) -> CrashPlan:
        """Plan a crash of ``process_id`` at virtual time ``time``."""
        if process_id in self.server_ids:
            planned_servers = {
                p.process_id for p in self.plans if p.process_id in self.server_ids
            }
            planned_servers.add(process_id)
            if len(planned_servers | self.crashed_servers) > self.max_server_faults:
                raise ConfigurationError(
                    f"crashing {process_id} would exceed the fault budget t="
                    f"{self.max_server_faults}"
                )
        plan = CrashPlan(process_id, time)
        self.plans.append(plan)
        self.clock.schedule_at(time, lambda: self._crash_now(process_id))
        return plan

    def schedule_random_server_crashes(
        self, count: int, horizon: float, rng: SeededRng
    ) -> List[CrashPlan]:
        """Crash ``count`` random distinct servers at random times in [0, horizon]."""
        if count > self.max_server_faults:
            raise ConfigurationError(
                f"cannot crash {count} servers with fault budget t={self.max_server_faults}"
            )
        victims = rng.sample(self.server_ids, count)
        return [
            self.schedule_crash(victim, rng.uniform(0, horizon)) for victim in victims
        ]

    def _crash_now(self, process_id: str) -> None:
        self.crash(process_id)
        if process_id in self.server_ids:
            self.crashed_servers.add(process_id)
        else:
            self.crashed_clients.add(process_id)

    @property
    def remaining_fault_budget(self) -> int:
        return self.max_server_faults - len(self.crashed_servers)
