"""The engine fabric: a simulated world of engines on one virtual clock.

The fabric *is* a :class:`~repro.core.clock.Clock` -- the one the
register-level simulator runs on too -- with frames and timers on top.

Each registered engine gets its own :class:`~.runtime.EffectRuntime`; the
fabric only supplies the hooks.  A sent frame joins the queue of its
connection ``(source, destination)``, due ``delay(source, destination)``
later (one time unit unless the fabric was built with a delay) but never
before the frame ahead of it: ``due = max(now + draw, due of the
connection's tail)``, so every connection is first-in first-out, as a TCP
connection is.  A timer or a :meth:`Fabric.schedule` callback is due after
its delay.

Two schedules run them.  The clock's :meth:`~repro.core.clock.Clock.step` /
:meth:`~repro.core.clock.Clock.run` always run the earliest due, ties in
scheduling order, so runs repeat bit for bit; a cancelled action is skipped
without moving ``now``, ``run(until=t)`` runs what is due at ``t`` too, and
``max_events`` caps a livelocked run.  The adversary's
:meth:`Fabric.actions` / :meth:`Fabric.take` run any head frame or armed
timer it picks, whatever its due time.

A process in :attr:`Fabric.down` has crashed without telling anyone: a frame
from or to it is dropped when it is sent, and one already on its way to it
is dropped on arrival.  A process registered with a ``service`` of
``(overhead, per_op)`` is a replica with finite capacity: a frame costs it
``overhead`` plus ``per_op`` per sub-operation (per key for a drain frame), a
busy replica queues the work, and every frame it sends leaves when the work
queued so far is done -- a frame its timer sends too, so it never overtakes a
reply still held in service and the replica's connections stay FIFO.  Those
hold-backs are not engine timers: nothing observes them and they never reach
``on_timer``.  Its timers themselves fire on time.  ``Connect`` succeeds at
once, and a completed operation calls ``callbacks[op_id]`` and then every
watcher.

:class:`~repro.kvstore.sim_backend.SimKVCluster` runs the simulated store on
one fabric; the engine tests drive it through schedules no transport makes.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple, Union

from ...core.clock import Clock, _Pending
from ...messages import service_units
from .effects import OpCompleted, OpFailed, SendFrame
from .runtime import EffectRuntime

__all__ = ["Fabric"]

#: ``("deliver", (source, destination))`` or ``("fire", (owner, timer_id))``.
Action = Tuple[str, Tuple[Any, Any]]


class _Service:
    """A replica's capacity: when it is next free, which is when the frames
    it sends leave."""

    __slots__ = ("overhead", "per_op", "busy_until")

    def __init__(self, overhead: float, per_op: float) -> None:
        self.overhead = overhead
        self.per_op = per_op
        self.busy_until = 0.0


def _one_unit(source: str, destination: str) -> float:
    return 1.0


class Fabric(Clock):
    """Frames wait per connection and timers wait armed, on one virtual clock.

    ``delay(source, destination)`` draws a frame's transit time.  With
    ``raise_failures`` an operation's terminal failure raises its error out
    of the run, as a failed call would; otherwise it joins :attr:`failures`.
    """

    def __init__(
        self,
        delay: Optional[Callable[[str, str], float]] = None,
        *,
        raise_failures: bool = False,
    ) -> None:
        super().__init__()
        self.engines: Dict[str, Any] = {}
        self.runtimes: Dict[str, EffectRuntime] = {}
        #: The frames in flight on each connection, oldest first.
        self.connections: Dict[Tuple[str, str], Deque[_Pending]] = {}
        #: Operation id -> called with the outcome when the operation completes.
        self.callbacks: Dict[str, Callable[[Any], None]] = {}
        #: Called after every completed operation, after its callback.
        self.watchers: List[Callable[[], None]] = []
        self.failures: List[OpFailed] = []
        #: Crashed processes: their traffic vanishes, and no one is told.
        self.down: Set[str] = set()
        #: Frames sent, those dropped at send included.
        self.sent = 0
        self._delay = delay or _one_unit
        self._raise_failures = raise_failures
        self._services: Dict[str, _Service] = {}
        self._holds: List[Tuple[Callable[[SendFrame], bool], List[SendFrame]]] = []

    def register(
        self, process_id: str, engine: Any, service: Optional[Tuple[float, float]] = None
    ) -> None:
        """Run ``engine`` as ``process_id``; ``service`` is a replica's
        ``(overhead, per_op)`` service time."""
        send = partial(self._send, process_id)
        if service is not None:
            capacity = self._services[process_id] = _Service(*service)
            send = partial(self._send_after_service, process_id, capacity)
        self.engines[process_id] = engine
        self.runtimes[process_id] = EffectRuntime(
            engine, self.schedule, send,
            connect=lambda target: engine.on_connected(target),
            complete=self._complete,
        )

    def execute(self, owner: str, effects) -> None:
        """Run ``effects`` as ``owner``'s, through its runtime."""
        self.runtimes[owner].run(effects)

    def deliver(self, effect: SendFrame) -> None:
        """Hand one frame to its destination now, unless a hold parks it."""
        for match, held in self._holds:
            if match(effect):
                held.append(effect)
                return
        destination = effect.destination
        engine = self.engines.get(destination)
        if engine is None or destination in self.down:
            return
        service = self._services.get(destination)
        if service is None:
            self.runtimes[destination].run(engine.on_frame(effect.frame))
            return
        # State transitions apply at delivery, in arrival order; only the
        # replies wait for the service.
        frame = effect.frame
        units = service_units(frame)
        effects = engine.on_frame(frame)
        service.busy_until = max(self.now, service.busy_until) + (
            service.overhead + service.per_op * units
        )
        self.runtimes[destination].run(effects)

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

    # -- the adversary's schedule: any runnable action, in any order ------------

    def actions(self) -> List[Action]:
        """Every head frame, connections sorted, then every armed timer,
        oldest armed first (a re-armed one goes last, so a quiet schedule
        cannot starve one timer behind another that keeps being re-armed)."""
        found: List[Action] = [("deliver", key) for key in sorted(self.connections)]
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
        self.sent += 1
        destination = effect.destination
        if source in self.down or destination in self.down:
            return
        key = (source, destination)
        due = self.now + self._delay(source, destination)
        queue = self.connections.get(key)
        if queue is None:
            queue = self.connections[key] = deque()
        elif due < queue[-1].due:
            due = queue[-1].due
        queue.append(self._at(due, partial(self._arrive, key, effect)))

    def _send_after_service(self, source: str, service: _Service, effect: SendFrame) -> None:
        hold = service.busy_until - self.now
        if hold <= 0:
            self._send(source, effect)
        else:
            self.schedule(hold, partial(self._send, source, effect))

    def _arrive(self, key: Tuple[str, str], effect: SendFrame) -> None:
        queue = self.connections[key]
        queue.popleft()  # a connection is FIFO: the frame arriving is its head
        if not queue:
            del self.connections[key]
        self.deliver(effect)

    def _complete(self, effect: Union[OpCompleted, OpFailed]) -> None:
        callback = self.callbacks.pop(effect.op_id, None)
        if type(effect) is OpFailed:
            if self._raise_failures:
                raise effect.error
            self.failures.append(effect)
            return
        if callback is not None:
            callback(effect.outcome)
        for watcher in self.watchers:
            watcher()
