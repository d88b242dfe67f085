"""The simulated asynchronous message-passing network.

Processes communicate over bidirectional reliable channels (Fig. 1 of the
paper).  There is no communication among servers and none among clients; the
network itself does not enforce that topology (the protocols simply never use
such links).  The network keeps counters, not a log of messages: a test that
must see the traffic installs an interceptor (:meth:`Network.set_interceptor`),
which is shown every message before it is scheduled.

The network supports the scheduling controls the proofs and the fault
injector need:

* per-link **delay models** (see :mod:`repro.sim.delays`);
* **skip rules** -- delay every matching message "a sufficiently long period
  of time (e.g. until the rest of the execution has finished)", which is how
  the paper models a round-trip skipping a server;
* **crash** of a process -- messages to and from it are silently dropped from
  the moment of the crash;
* message **interception hooks** used by the adversarial scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Set

from ..core.errors import SimulationError
from .clock import EventQueue
from .delays import ConstantDelay, DelayModel
from ..messages import Message

__all__ = ["SkipRule", "Network"]

#: Value used to "skip" a message: it is scheduled this far in the future,
#: long after every workload in this library has completed.
SKIP_DELAY = 1e12


@dataclass
class SkipRule:
    """Delays matching messages effectively forever.

    A rule matches a message when every non-None field matches.  ``op_id``
    and ``round_trip`` let the proof engine skip a *specific round-trip of a
    specific operation* on a specific server, which is exactly the primitive
    used in the chain constructions (e.g. "R2 skips the critical server").
    """

    sender: Optional[str] = None
    receiver: Optional[str] = None
    op_id: Optional[str] = None
    round_trip: Optional[int] = None
    kind: Optional[str] = None
    both_directions: bool = True

    def matches(self, message: Message) -> bool:
        if self.op_id is not None and message.op_id != self.op_id:
            return False
        if self.round_trip is not None and message.round_trip != self.round_trip:
            return False
        if self.kind is not None and message.kind != self.kind:
            return False
        direct = (self.sender is None or message.sender == self.sender) and (
            self.receiver is None or message.receiver == self.receiver
        )
        if direct:
            return True
        if self.both_directions:
            reverse = (self.sender is None or message.receiver == self.sender) and (
                self.receiver is None or message.sender == self.receiver
            )
            return reverse
        return False


class Network:
    """Routes messages between registered processes through the event queue."""

    def __init__(
        self,
        events: EventQueue,
        delay_model: Optional[DelayModel] = None,
    ) -> None:
        self.events = events
        self.delay_model = delay_model if delay_model is not None else ConstantDelay()
        self._handlers: Dict[str, Callable[[Message], None]] = {}
        self._crashed: Set[str] = set()
        self._skip_rules: List[SkipRule] = []
        self._intercept: Optional[Callable[[Message], Optional[float]]] = None
        self.sent_count = 0
        #: Sent while its sender or receiver was crashed: never scheduled.
        self.dropped_count = 0
        self.delivered_count = 0

    # -- topology -----------------------------------------------------------

    def register(self, process_id: str, handler: Callable[[Message], None]) -> None:
        """Attach a process; ``handler`` is called for each delivered message."""
        if process_id in self._handlers:
            raise SimulationError(f"process {process_id} already registered")
        self._handlers[process_id] = handler

    def is_registered(self, process_id: str) -> bool:
        return process_id in self._handlers

    # -- failure / adversary controls ----------------------------------------

    def crash(self, process_id: str) -> None:
        """Crash a process: all its future traffic is dropped."""
        self._crashed.add(process_id)

    def recover(self, process_id: str) -> None:
        """Undo a crash (used only by availability experiments)."""
        self._crashed.discard(process_id)

    @property
    def crashed(self) -> Set[str]:
        return set(self._crashed)

    def add_skip_rule(self, rule: SkipRule) -> SkipRule:
        """Install a skip rule; returns it so callers can remove it later."""
        self._skip_rules.append(rule)
        return rule

    def remove_skip_rule(self, rule: SkipRule) -> None:
        self._skip_rules.remove(rule)

    def clear_skip_rules(self) -> None:
        self._skip_rules.clear()

    def set_interceptor(
        self, interceptor: Optional[Callable[[Message], Optional[float]]]
    ) -> None:
        """Install an adversarial interceptor.

        The interceptor sees every message before scheduling and may return a
        delay override (a float), ``None`` to use the delay model, or
        ``float('inf')`` to skip the message entirely.
        """
        self._intercept = interceptor

    # -- sending -------------------------------------------------------------

    def send(self, message: Message) -> None:
        """Send a message; delivery is scheduled according to delays/rules."""
        self.sent_count += 1
        if message.sender in self._crashed or message.receiver in self._crashed:
            self.dropped_count += 1
            return

        skipped = bool(self._skip_rules) and any(
            rule.matches(message) for rule in self._skip_rules
        )
        delay: Optional[float] = None
        if self._intercept is not None:
            override = self._intercept(message)
            if override is not None:
                if override == float("inf"):
                    skipped = True
                else:
                    delay = override
        if delay is None:
            delay = self.delay_model.delay(message.sender, message.receiver)
        if skipped:
            delay = SKIP_DELAY
        self.events.schedule(delay, partial(self._deliver, message))

    def _deliver(self, message: Message) -> None:
        if message.receiver in self._crashed:
            return
        handler = self._handlers.get(message.receiver)
        if handler is None:
            raise SimulationError(f"no process registered as {message.receiver}")
        self.delivered_count += 1
        handler(message)

    # -- introspection --------------------------------------------------------

    def pending_messages(self) -> int:
        """Messages sent but not yet delivered (including skipped ones).

        A message dropped at send never counts; one whose receiver crashed
        while it was in flight stays pending.
        """
        return self.sent_count - self.dropped_count - self.delivered_count
