"""The effect vocabulary of the sans-I/O kvstore engines.

Every engine in :mod:`repro.kvstore.engine` is a pure state machine: it
consumes decoded frames (and timer fires, and transport notifications) and
returns a list of *effects* describing what should happen in the outside
world.  The engines never touch a socket, a simulator runtime, or a clock --
executing effects is the adapter's job:

* the simulator backend maps :class:`SendFrame` onto the simulated network
  and :class:`StartTimer` onto the virtual-clock event queue;
* the asyncio backend maps :class:`SendFrame` onto transport writes and
  :class:`StartTimer` onto ``loop.call_later``.

Because both backends execute the *same* effect stream emitted by the *same*
engine classes, a feature implemented in the engine (stale-epoch replay,
proxy failover, delta view-push adoption, ...) works identically on both
transports by construction.

:class:`RetryPolicy` collects every timing knob the engines request timers
with.  The numbers are in the *adapter's* time unit -- seconds on asyncio,
virtual time units on the simulator -- so each backend configures windows
that make sense for its transport while the state machines stay shared.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional, Tuple, Union

from ...messages import Message
from ...protocols.base import OperationOutcome

__all__ = [
    "DIRECT_INGRESS",
    "TimerId",
    "SendFrame",
    "StartTimer",
    "CancelTimer",
    "Connect",
    "OpCompleted",
    "OpFailed",
    "Effect",
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "SIM_RETRY_POLICY",
    "RECONNECT_INTERVAL",
    "MAX_TRANSIENT_RETRIES",
    "MAX_ROUND_TIMEOUTS",
    "PROXY_FAILOVER_TIMEOUT",
    "SILENCE_WINDOW",
    "SIM_SILENCE_WINDOW",
]

#: The :class:`Connect` target meaning "no proxy: direct replica
#: connections" -- the ingress path of last resort once a client's proxy
#: candidate list is exhausted.
DIRECT_INGRESS = "@direct"

#: Timers are identified by tuples (kind first, then discriminators), so an
#: adapter can keep them in one dict and an engine can cancel exactly the
#: timer it armed.
TimerId = Tuple[Any, ...]


@dataclass(frozen=True)
class SendFrame:
    """Put one frame on the wire toward ``destination``.

    ``frame.receiver`` always equals ``destination``; the field is explicit
    so adapters route without re-inspecting the frame.  An adapter that
    cannot deliver the frame reports back via the engine's
    ``on_frame_undeliverable`` hook (transports with silent loss -- the
    simulated network -- simply never report).
    """

    destination: str
    frame: Message


@dataclass(frozen=True)
class StartTimer:
    """Arm (or re-arm) the timer ``timer_id`` to fire after ``delay``."""

    timer_id: TimerId
    delay: float


@dataclass(frozen=True)
class CancelTimer:
    """Disarm ``timer_id`` (a no-op if it already fired or never existed)."""

    timer_id: TimerId


@dataclass(frozen=True)
class Connect:
    """(Re)establish the ingress path ``target``.

    ``target`` is a proxy id, or :data:`DIRECT_INGRESS` for direct replica
    connections.  A connection-oriented adapter dials and then reports
    ``on_connected(target)`` / ``on_connect_failed(target)``; the simulator
    adapter, whose network needs no dialing, acknowledges immediately.
    """

    target: str


@dataclass(frozen=True)
class OpCompleted:
    """One client operation finished with ``outcome``."""

    op_id: str
    key: str
    outcome: OperationOutcome
    round_trips: int


@dataclass(frozen=True)
class OpFailed:
    """One client operation failed terminally with ``error``."""

    op_id: str
    key: str
    error: BaseException


Effect = Union[SendFrame, StartTimer, CancelTimer, Connect, OpCompleted, OpFailed]


#: Asyncio-backend defaults (seconds); see :class:`RetryPolicy`.
RECONNECT_INTERVAL = 0.05
MAX_TRANSIENT_RETRIES = 100
MAX_ROUND_TIMEOUTS = 5
#: How long a quorum-first round may sit short of its quorum before the rest
#: of the group is asked too: three orders of magnitude above a loopback round
#: trip, so only a replica that really is slow or gone trips it.
SILENCE_WINDOW = 0.25

#: Simulator default (virtual time units) for the client's proxy-failover
#: watchdog.  Generous by design: a merely *slow* proxy resets the watchdog
#: with every ack it does deliver, so only a silent proxy -- crashed, its
#: traffic dropped -- trips it.
PROXY_FAILOVER_TIMEOUT = 200.0
#: The simulator's silence window (virtual time units): some ten round trips
#: of the default delay model, and two widenings still fit well inside the
#: failover watchdog's window.
SIM_SILENCE_WINDOW = 50.0


@dataclass(frozen=True)
class RetryPolicy:
    """Timing knobs of the reconnect/replay/failover machinery.

    One policy is owned by a cluster and inherited by every engine built
    against it, so a whole deployment's failure windows scale together:

    * ``reconnect_interval * max_transient_retries`` bounds how long a
      caller keeps replaying over a transient outage (the kill/restart
      window);
    * ``silence_window`` is the tick of the one per-engine watchdog, the
      only timer that bounds an attempt (armed only while attempts are out):
      a quorum-first attempt -- one sent to only ``S - t`` replicas -- that
      sits short of its quorum for a whole window has the remaining replicas
      asked too, and an attempt sent to every replica it may ask fails after
      ``max_round_timeouts`` windows short of its quorum -- a mutating one
      after no fewer than ``ceil(lease_ttl / silence_window) + 1``, since a
      replica may withhold its ack behind a read lease for a whole TTL;
    * ``failover_timeout`` arms the client's proxy-death watchdog
      (``None`` disables it -- the asyncio backend's choice, where a dead
      proxy is observed as a severed TCP connection instead).

    Units are the owning backend's: seconds on asyncio, virtual time units
    on the simulator.
    """

    reconnect_interval: float = RECONNECT_INTERVAL
    max_transient_retries: int = MAX_TRANSIENT_RETRIES
    max_round_timeouts: int = MAX_ROUND_TIMEOUTS
    failover_timeout: Optional[float] = None
    silence_window: float = SILENCE_WINDOW
    #: How long a caller backs off before replaying a round that bounced
    #: off a *draining* key range (its shard view was already fresh, so
    #: replaying immediately would spin against the fence until the range
    #: installs).  ``None`` falls back to ``reconnect_interval``.
    drain_backoff: Optional[float] = None

    def __post_init__(self) -> None:
        if self.failover_timeout is not None and self.failover_timeout <= 0:
            raise ValueError("failover_timeout must be positive (or None: off)")

    @property
    def transient_window(self) -> float:
        """Upper bound on the reconnect-and-replay window."""
        return self.reconnect_interval * self.max_transient_retries

    @property
    def drain_backoff_interval(self) -> float:
        """The resolved drain-bounce backoff window."""
        return (
            self.drain_backoff
            if self.drain_backoff is not None
            else self.reconnect_interval
        )

    def with_failover_timeout(self, timeout: Optional[float]) -> "RetryPolicy":
        """This policy with the watchdog window replaced."""
        return replace(self, failover_timeout=timeout)


#: What the asyncio backend runs with unless told otherwise.
DEFAULT_RETRY_POLICY = RetryPolicy()

#: What the simulator runs with: the failover watchdog (the virtual network
#: drops a crashed process's traffic without a word) and the silence window
#: in virtual time.
SIM_RETRY_POLICY = RetryPolicy(
    failover_timeout=PROXY_FAILOVER_TIMEOUT,
    silence_window=SIM_SILENCE_WINDOW,
    # At the default 0.05 a long drain would be polled hundreds of times
    # per range; ~10 virtual units is a couple of network round trips.
    drain_backoff=10.0,
)
