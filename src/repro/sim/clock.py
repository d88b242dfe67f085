"""Discrete global clock and event queue.

The paper's system model assumes "the existence of a discrete global clock,
but the processes cannot access the global clock" (Section 2.1).  The
simulator realizes exactly that: a single virtual clock drives all events in
timestamp order, while protocol code never reads it -- only the tracer and
the history checker do.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from ..core.errors import SimulationError

__all__ = ["ScheduledEvent", "EventQueue", "SimClock"]


class ScheduledEvent:
    """An event scheduled on the virtual clock, and the handle to cancel it.

    Events fire in ``(time, sequence)`` order, so simultaneous events fire
    in the order they were scheduled -- this keeps executions deterministic.
    Events compare by identity.
    """

    __slots__ = ("time", "sequence", "action", "label", "cancelled")

    def __init__(
        self,
        time: float,
        sequence: int,
        action: Callable[[], None],
        label: str = "",
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.action = action
        self.label = label
        self.cancelled = cancelled

    def cancel(self) -> None:
        """Prevent the event from firing when its time comes."""
        self.cancelled = True


class SimClock:
    """The read-only face of the simulation clock."""

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def _advance(self, time: float) -> None:
        if time < self._now:
            raise SimulationError(
                f"clock cannot move backwards (now={self._now}, target={time})"
            )
        self._now = time


class EventQueue:
    """A priority queue of :class:`ScheduledEvent` driving the simulation."""

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        # (time, sequence, event): sequence is unique, so the heap orders
        # entries by comparing floats and ints in C and never reaches the
        # event itself.
        self._heap: List[Tuple[float, int, ScheduledEvent]] = []
        self._sequence = itertools.count()
        self._running = False

    @property
    def running(self) -> bool:
        """True while :meth:`run` is on the stack.

        Lets code that may be called either from quiescence or from inside
        an event handler (e.g. a live resize) decide whether it must pump
        the queue itself or can rely on the already-running loop.
        """
        return self._running

    def __len__(self) -> int:
        return sum(1 for _, _, event in self._heap if not event.cancelled)

    @property
    def empty(self) -> bool:
        return len(self) == 0

    def schedule(
        self, delay: float, action: Callable[[], None], label: str = ""
    ) -> ScheduledEvent:
        """Schedule ``action`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        time = self.clock.now + delay
        sequence = next(self._sequence)
        event = ScheduledEvent(time, sequence, action, label)
        heapq.heappush(self._heap, (time, sequence, event))
        return event

    def schedule_at(
        self, time: float, action: Callable[[], None], label: str = ""
    ) -> ScheduledEvent:
        """Schedule ``action`` at an absolute virtual time."""
        return self.schedule(time - self.clock.now, action, label)

    def pop(self) -> Optional[ScheduledEvent]:
        """Remove and return the next non-cancelled event, advancing the clock."""
        while self._heap:
            time, _, event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self.clock._advance(time)
            return event
        return None

    def run(self, until: Optional[float] = None, max_events: int = 1_000_000) -> int:
        """Run events until the queue is empty, a deadline, or an event cap.

        Returns the number of events executed.  The event cap guards against
        accidental livelock in protocol code.
        """
        executed = 0
        was_running, self._running = self._running, True
        try:
            while True:
                if executed >= max_events:
                    raise SimulationError(
                        f"event cap of {max_events} exceeded; likely livelock"
                    )
                if until is not None and self._peek_time() is not None:
                    if self._peek_time() > until:
                        break
                event = self.pop()
                if event is None:
                    break
                event.action()
                executed += 1
        finally:
            self._running = was_running
        return executed

    def _peek_time(self) -> Optional[float]:
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None
