"""Discrete-event simulation substrate for register emulations.

The network, processes, clients and crash injector here run on
:class:`~repro.core.clock.Clock`, the one virtual clock the engine fabric
(:mod:`repro.kvstore.engine.fabric`) runs the simulated store on; operations
are recorded by :class:`~repro.consistency.history.HistoryRecorder`.
"""

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

__all__ = [
    "ByzantineBehavior",
    "ByzantineInjector",
    "ByzantineServer",
    "Equivocation",
    "SilentDrop",
    "TagInflation",
    "ValueCorruption",
    "make_byzantine",
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
]
