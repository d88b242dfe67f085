"""The discrete global clock both simulated worlds run on.

The paper's system model assumes "the existence of a discrete global clock,
but the processes cannot access the global clock" (Section 2.1).  A
:class:`Clock` realizes exactly that: one heap of actions, run earliest due
first, ties in scheduling order, so runs repeat bit for bit.  Protocol code
never reads it -- only the history recorder, the tracer and the schedule do.

The register-level simulator (:mod:`repro.sim`) schedules its messages,
invocations and crashes on one; the engine fabric
(:class:`~repro.kvstore.engine.fabric.Fabric`) *is* one, with frames and
timers on top.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from .errors import SimulationError

__all__ = ["Clock"]


class _Pending:
    """One action on the clock; it runs at most once, and not once cancelled."""

    __slots__ = ("due", "seq", "action", "done")

    def __init__(self, due: float, seq: int, action: Callable[[], None]) -> None:
        self.due = due
        self.seq = seq
        self.action = action
        self.done = False

    def cancel(self) -> None:
        self.done = True

    def run(self) -> None:
        if not self.done:
            self.done = True
            self.action()


class Clock:
    """A virtual clock and the actions waiting on it.

    :meth:`step` / :meth:`run` run the earliest-due action, ties in
    scheduling order; a cancelled action is skipped without moving
    :attr:`now`, and ``run(until=t)`` runs what is due at ``t`` too, leaving
    ``now`` at the last action run.
    """

    def __init__(self) -> None:
        self.now = 0.0
        #: True while :meth:`run` is on the stack, so code that may be called
        #: from quiescence or from inside an action knows whether to pump.
        self.running = False
        # (due, seq, pending): seq is unique, so the heap orders entries by
        # comparing floats and ints in C and never reaches the handle.
        self._clock: List[Tuple[float, int, _Pending]] = []
        self._seq = itertools.count()

    def schedule(self, delay: float, action: Callable[[], None]) -> _Pending:
        """Run ``action`` ``delay`` units from now; ``cancel()`` the handle to drop it."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self._at(self.now + delay, action)

    def schedule_at(self, time: float, action: Callable[[], None]) -> _Pending:
        """Run ``action`` at virtual time ``time`` itself (not at
        ``now + (time - now)``, which can miss it by an ulp)."""
        if time < self.now:
            raise SimulationError(f"cannot schedule in the past (time={time}, now={self.now})")
        return self._at(time, action)

    def step(self, until: Optional[float] = None) -> bool:
        """Run the earliest-due action (due at or before ``until``, if given);
        ``False`` once there is none.  Cancelled actions are dropped on the
        way without moving ``now``."""
        clock = self._clock
        while clock and clock[0][2].done:
            heapq.heappop(clock)
        if not clock or (until is not None and clock[0][0] > until):
            return False
        self.now, _, pending = heapq.heappop(clock)
        pending.run()
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Step to quiescence, or until nothing is due at or before ``until``,
        and return the number of actions run; more than ``max_events`` is a
        livelock and raises :class:`~repro.core.errors.SimulationError`."""
        executed = 0
        was_running, self.running = self.running, True
        try:
            while max_events is None or executed < max_events:
                if not self.step(until):
                    return executed
                executed += 1
            raise SimulationError(f"event cap of {max_events} exceeded; likely livelock")
        finally:
            self.running = was_running

    def _at(self, due: float, action: Callable[[], None]) -> _Pending:
        pending = _Pending(due, next(self._seq), action)
        heapq.heappush(self._clock, (due, pending.seq, pending))
        return pending
