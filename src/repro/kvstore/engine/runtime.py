"""The effect interpreter: the one place an engine's effects are executed.

An engine returns :mod:`~repro.kvstore.engine.effects`; an adapter owns an
:class:`EffectRuntime` per engine and hands every batch to :meth:`run`.
The runtime holds the only dispatch on effect type and the only timer
table, so timer semantics -- and the ``timer.*`` lifecycle events that make
"armed == fired + cancelled" checkable on every tier -- exist once, for the
simulator and asyncio alike.  What differs between transports is passed in:

* ``schedule(delay, callback) -> handle`` with ``handle.cancel()``
  (``loop.call_later``, ``EventQueue.schedule``);
* ``send(SendFrame)`` puts one frame on the adapter's wire;
* ``connect(target)`` and ``complete(OpCompleted | OpFailed)``, which only
  a client's adapter supplies.

``send`` and ``connect`` may hand effects back (an undeliverable frame's
report, an immediate ``on_connected``); those join the tail of the batch
being run.  A :meth:`run` made from inside a hook -- a completion callback
invoking the next operation -- is an independent batch and executes
depth-first, before the outer batch continues.

Engine methods are looked up on the instance at every call: tests and the
benchmark's tracer wrap them after the runtime is built.  Like the rest of
the package this module imports neither :mod:`asyncio` nor :mod:`repro.sim`.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Union

from ...observe.events import NULL_OBSERVER, TIMER_ARMED, TIMER_CANCELLED, TIMER_FIRED
from .effects import (
    CancelTimer,
    Connect,
    Effect,
    OpCompleted,
    OpFailed,
    SendFrame,
    StartTimer,
    TimerId,
)

__all__ = ["EffectRuntime"]

#: What a hook may hand back to join the current batch.
_HandedBack = Optional[Iterable[Effect]]


class EffectRuntime:
    """Executes one engine's effects and owns its armed timers.

    ``timers`` maps each armed timer id to the handle ``schedule`` returned;
    an id leaves the table when it fires, is cancelled or is re-armed.
    """

    def __init__(
        self,
        engine: Any,
        schedule: Callable[[float, Callable[[], None]], Any],
        send: Callable[[SendFrame], _HandedBack],
        connect: Optional[Callable[[str], _HandedBack]] = None,
        complete: Optional[Callable[[Union[OpCompleted, OpFailed]], None]] = None,
    ) -> None:
        self.engine = engine
        self.timers: Dict[TimerId, Any] = {}
        self._observer = getattr(engine, "observer", NULL_OBSERVER)
        self._schedule = schedule
        self._send = send
        self._connect = connect
        self._complete = complete

    def run(self, effects: Iterable[Effect]) -> None:
        """Execute ``effects`` in order, then whatever the hooks handed back."""
        tail: List[Effect] = []
        for effect in effects:
            kind = type(effect)
            if kind is SendFrame:
                handed_back = self._send(effect)
            elif kind is StartTimer:
                timer_id = effect.timer_id
                self._cancel(timer_id, "rearm")
                self.timers[timer_id] = self._schedule(
                    effect.delay, partial(self._fire, timer_id)
                )
                self._observer.emit(TIMER_ARMED, timer=timer_id[0])
                continue
            elif kind is CancelTimer:
                self._cancel(effect.timer_id, "cancel")
                continue
            elif self._complete is not None and kind in (OpCompleted, OpFailed):
                self._complete(effect)
                continue
            elif self._connect is not None and kind is Connect:
                handed_back = self._connect(effect.target)
            else:
                raise TypeError(f"{self.engine!r} cannot execute effect {effect!r}")
            if handed_back:
                tail.extend(handed_back)
        if tail:
            self.run(tail)

    def shutdown(self) -> None:
        """Cancel every armed timer: nothing fires after the owner stops."""
        for timer_id in list(self.timers):
            self._cancel(timer_id, "shutdown")

    def _cancel(self, timer_id: TimerId, reason: str) -> None:
        handle = self.timers.pop(timer_id, None)
        if handle is not None:
            handle.cancel()
            self._observer.emit(TIMER_CANCELLED, timer=timer_id[0], reason=reason)

    def _fire(self, timer_id: TimerId) -> None:
        # Gone from the table before the engine hears of it, so on_timer may
        # re-arm the same id.
        self.timers.pop(timer_id, None)
        self._observer.emit(TIMER_FIRED, timer=timer_id[0])
        self.run(self.engine.on_timer(timer_id))
