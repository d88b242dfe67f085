"""Message delay models for the simulated network.

Delays decide the interleavings the protocols see; the paper's proofs rely on
an *asynchronous* network where the adversary may delay any message
arbitrarily (up to "skipping" a server by delaying its messages past the end
of the execution).  The benchmark harness instead uses distributions that
mimic LAN / WAN round-trip times so that the one-vs-two-round-trip latency
difference the paper motivates shows up in wall-clock numbers.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..util.rng import SeededRng

__all__ = [
    "DelayModel",
    "ConstantDelay",
    "UniformDelay",
    "ExponentialDelay",
    "PerLinkDelay",
    "GeoDelay",
]


class DelayModel(abc.ABC):
    """Computes the one-way delay of a message from ``src`` to ``dst``."""

    @abc.abstractmethod
    def delay(self, src: str, dst: str) -> float:
        """One-way latency for the next message on this link."""

    def site_of(self, process_id: str) -> Optional[str]:
        """The site ``process_id`` runs at, or ``None`` in a model without
        sites (every process at one place)."""
        return None


@dataclass
class ConstantDelay(DelayModel):
    """Every message takes exactly ``value`` time units (default 1.0)."""

    value: float = 1.0

    def delay(self, src: str, dst: str) -> float:
        return self.value


class UniformDelay(DelayModel):
    """Delays drawn uniformly from ``[low, high]`` with a seeded RNG."""

    def __init__(self, low: float = 0.5, high: float = 1.5, seed: int = 0) -> None:
        if low < 0 or high < low:
            raise ValueError("need 0 <= low <= high")
        self.low = low
        self.high = high
        self._rng = SeededRng(seed)

    def delay(self, src: str, dst: str) -> float:
        return self._rng.uniform(self.low, self.high)


class ExponentialDelay(DelayModel):
    """Exponentially distributed delays with the given mean, plus a floor."""

    def __init__(self, mean: float = 1.0, floor: float = 0.05, seed: int = 0) -> None:
        if mean <= 0:
            raise ValueError("mean must be positive")
        self.mean = mean
        self.floor = floor
        self._rng = SeededRng(seed)

    def delay(self, src: str, dst: str) -> float:
        return self.floor + self._rng.expovariate(1.0 / self.mean)


class PerLinkDelay(DelayModel):
    """A fixed base delay per (src, dst) link, with optional jitter."""

    def __init__(
        self,
        base: Dict[Tuple[str, str], float],
        default: float = 1.0,
        jitter: float = 0.0,
        seed: int = 0,
    ) -> None:
        self.base = dict(base)
        self.default = default
        self.jitter = jitter
        self._rng = SeededRng(seed)

    def delay(self, src: str, dst: str) -> float:
        base = self.base.get((src, dst), self.default)
        if self.jitter <= 0:
            return base
        return base + self._rng.uniform(0, self.jitter)


class GeoDelay(DelayModel):
    """A geo-replication-like delay model.

    Each process is assigned to a *site*; intra-site messages take
    ``local_delay`` and inter-site messages take ``wan_delay`` (both with a
    configurable jitter fraction).  This models the deployment the paper's
    introduction motivates, where clients read from nearby replicas.
    """

    def __init__(
        self,
        sites: Dict[str, str],
        local_delay: float = 0.5,
        wan_delay: float = 40.0,
        jitter_fraction: float = 0.1,
        seed: int = 0,
    ) -> None:
        self.sites = dict(sites)
        self.local_delay = local_delay
        self.wan_delay = wan_delay
        self.jitter_fraction = jitter_fraction
        self._rng = SeededRng(seed)

    def site_of(self, process_id: str) -> Optional[str]:
        return self.sites.get(process_id)

    def delay(self, src: str, dst: str) -> float:
        same_site = self.sites.get(src) == self.sites.get(dst)
        base = self.local_delay if same_site else self.wan_delay
        if self.jitter_fraction <= 0:
            return base
        return base * self._rng.uniform(1.0, 1.0 + self.jitter_fraction)
