"""An in-memory fabric: engines wired together with no transport at all.

Each registered engine gets its own :class:`~.runtime.EffectRuntime`; the
fabric only supplies the hooks.  A sent frame joins the FIFO queue of its
connection ``(source, destination)``, due one time unit later; a timer or a
:meth:`Fabric.schedule` callback is due after its delay.  Two schedules run
them: :meth:`Fabric.step` / :meth:`Fabric.run` always run the earliest due
(ties in scheduling order, so runs repeat bit for bit), and the adversary's
:meth:`Fabric.actions` / :meth:`Fabric.take` run any head frame or armed
timer it picks, whatever its due time.  ``Connect`` succeeds at once, and a
completed operation calls ``callbacks[op_id]``.  No run path of the store
imports this module: it drives engines through schedules no transport makes.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from functools import partial
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple, Union

from .effects import OpCompleted, OpFailed, SendFrame
from .runtime import EffectRuntime

__all__ = ["Fabric"]

#: ``("deliver", (source, destination))`` or ``("fire", (owner, timer_id))``.
Action = Tuple[str, Tuple[Any, Any]]


class _Pending:
    """One action on the clock; it runs at most once, and not once cancelled."""

    __slots__ = ("seq", "action", "done")

    def __init__(self, seq: int, action: Callable[[], None]) -> None:
        self.seq = seq
        self.action = action
        self.done = False

    def cancel(self) -> None:
        self.done = True

    def run(self) -> None:
        if not self.done:
            self.done = True
            self.action()


class Fabric:
    """Frames wait per connection and timers wait armed, on one virtual clock."""

    def __init__(self) -> None:
        self.now = 0.0
        self.engines: Dict[str, Any] = {}
        self.runtimes: Dict[str, EffectRuntime] = {}
        self.connections: Dict[Tuple[str, str], Deque[_Pending]] = {}
        #: Operation id -> called with the outcome when the operation completes.
        self.callbacks: Dict[str, Callable[[Any], None]] = {}
        self.completed: List[str] = []
        self.failures: List[OpFailed] = []
        #: Processes whose inbound frames vanish (a crash the sender is not
        #: told about, as on the simulated network).
        self.down: Set[str] = set()
        self._clock: List[Tuple[float, int, _Pending]] = []
        self._seq = itertools.count()
        self._holds: List[Tuple[Callable[[SendFrame], bool], List[SendFrame]]] = []

    def register(self, process_id: str, engine: Any) -> None:
        self.engines[process_id] = engine
        self.runtimes[process_id] = EffectRuntime(
            engine, self.schedule, partial(self._send, process_id),
            connect=lambda target: engine.on_connected(target),
            complete=self._complete,
        )

    def execute(self, owner: str, effects) -> None:
        """Run ``effects`` as ``owner``'s, through its runtime."""
        self.runtimes[owner].run(effects)

    def schedule(self, delay: float, action: Callable[[], None]) -> _Pending:
        """Run ``action`` ``delay`` units from now; ``cancel()`` the handle to drop it."""
        pending = _Pending(next(self._seq), action)
        heapq.heappush(self._clock, (self.now + delay, pending.seq, pending))
        return pending

    def deliver(self, effect: SendFrame) -> None:
        """Hand one frame to its destination now, unless a hold parks it."""
        for match, held in self._holds:
            if match(effect):
                held.append(effect)
                return
        engine = self.engines.get(effect.destination)
        if engine is not None and effect.destination not in self.down:
            self.runtimes[effect.destination].run(engine.on_frame(effect.frame))

    def hold(self, match: Callable[[SendFrame], bool]) -> Callable[[], None]:
        """Park every frame ``match`` accepts as it arrives; returns ``release()``,
        which lifts the hold and delivers what it parked, in arrival order."""
        entry: Tuple[Callable[[SendFrame], bool], List[SendFrame]] = (match, [])
        self._holds.append(entry)

        def release() -> None:
            self._holds.remove(entry)
            for effect in entry[1]:
                self.deliver(effect)

        return release

    # -- the default schedule: earliest due first ------------------------------

    def step(self, until: Optional[float] = None) -> bool:
        """Run the earliest-due action (due before ``until``, if given);
        ``False`` once there is none."""
        if not self._clock or (until is not None and self._clock[0][0] >= until):
            return False
        self.now, _, pending = heapq.heappop(self._clock)
        pending.run()
        return True

    def run(self, until: Optional[float] = None) -> None:
        """Step to quiescence, or until nothing is due before ``until``."""
        while self.step(until):
            pass

    # -- the adversary's schedule: any runnable action, in any order ------------

    def actions(self) -> List[Action]:
        """Every head frame, connections sorted, then every armed timer,
        oldest armed first (a re-armed one goes last, so a quiet schedule
        cannot starve one timer behind another that keeps being re-armed)."""
        found: List[Action] = [
            ("deliver", key) for key, queue in self.connections.items() if queue
        ]
        armed = [
            (pending.seq, owner, timer_id)
            for owner, runtime in self.runtimes.items()
            for timer_id, pending in runtime.timers.items()
        ]
        armed.sort()
        return found + [("fire", (owner, timer_id)) for _, owner, timer_id in armed]

    def take(self, action: Action) -> None:
        """Run one of :meth:`actions` now, whatever its due time."""
        what, (first, second) = action
        if what == "deliver":
            self.connections[(first, second)][0].run()
        else:
            self.runtimes[first].timers[second].run()

    # -- the runtime's hooks -----------------------------------------------------

    def _send(self, source: str, effect: SendFrame) -> None:
        key = (source, effect.destination)
        queue = self.connections.get(key)
        if queue is None:  # kept sorted, the order actions() lists them in
            queue = self.connections[key] = deque()
            self.connections = dict(sorted(self.connections.items()))
        queue.append(self.schedule(1.0, partial(self._arrive, queue, effect)))

    def _arrive(self, queue: Deque[_Pending], effect: SendFrame) -> None:
        queue.popleft()  # a connection is FIFO: the frame arriving is its head
        self.deliver(effect)

    def _complete(self, effect: Union[OpCompleted, OpFailed]) -> None:
        if isinstance(effect, OpFailed):
            self.failures.append(effect)
            return
        self.completed.append(effect.op_id)
        callback = self.callbacks.pop(effect.op_id, None)
        if callback is not None:
            callback(effect.outcome)
