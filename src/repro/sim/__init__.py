"""Discrete-event simulation substrate for register emulations."""

from .byzantine import (
    ByzantineBehavior,
    ByzantineInjector,
    ByzantineServer,
    Equivocation,
    SilentDrop,
    TagInflation,
    ValueCorruption,
    make_byzantine,
)
from .clock import EventQueue, ScheduledEvent, SimClock
from .client import ClientProcess
from .delays import (
    ConstantDelay,
    DelayModel,
    ExponentialDelay,
    GeoDelay,
    PerLinkDelay,
    UniformDelay,
)
from .failures import CrashPlan, FailureInjector
from ..messages import Message
from .network import Network, SkipRule
from .process import Process, ServerProcess
from .runtime import Simulation, SimulationResult
from .tracing import HistoryRecorder

__all__ = [
    "ByzantineBehavior",
    "ByzantineInjector",
    "ByzantineServer",
    "Equivocation",
    "SilentDrop",
    "TagInflation",
    "ValueCorruption",
    "make_byzantine",
    "EventQueue",
    "ScheduledEvent",
    "SimClock",
    "ClientProcess",
    "ConstantDelay",
    "DelayModel",
    "ExponentialDelay",
    "GeoDelay",
    "PerLinkDelay",
    "UniformDelay",
    "CrashPlan",
    "FailureInjector",
    "Message",
    "Network",
    "SkipRule",
    "Process",
    "ServerProcess",
    "Simulation",
    "SimulationResult",
    "HistoryRecorder",
]
