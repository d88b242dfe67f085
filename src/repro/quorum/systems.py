"""Quorum systems used by register emulations.

The protocols in the paper all follow the same pattern: a client round-trip
contacts every server and waits for acknowledgements from ``S - t`` of them.
Correctness then rests on intersection properties of those ack sets.  This
module makes the quorum structure explicit so that protocols, proofs and
benchmarks can reason about it directly:

* :class:`MajorityQuorumSystem` -- the classic ``t < S/2`` majority system
  behind W2R2 (any two ``S - t`` sets intersect).
* :class:`FastQuorumSystem` -- the stronger structure needed for fast reads:
  with ``R < S/t - 2`` the sets ``S - a*t`` used by the admissibility
  predicate intersect the reply set of any later operation even after up to
  ``t`` failures (Lemmas 9-10 of Appendix A).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator, Sequence, Tuple

from ..core.conditions import require_fast_reads, require_majority_quorums
from ..core.errors import ConfigurationError

__all__ = [
    "QuorumSystem",
    "MajorityQuorumSystem",
    "FastQuorumSystem",
    "ack_sets",
    "all_intersect",
    "intersection_size_lower_bound",
]


def intersection_size_lower_bound(size_a: int, size_b: int, universe: int) -> int:
    """Guaranteed size of the intersection of two subsets of a universe.

    By inclusion-exclusion, two subsets of sizes ``a`` and ``b`` of a universe
    of ``n`` elements intersect in at least ``a + b - n`` elements.
    """
    return max(0, size_a + size_b - universe)


def ack_sets(servers: Sequence[str], quorum_size: int) -> Iterator[FrozenSet[str]]:
    """All possible sets of ``quorum_size`` acknowledging servers."""
    for combo in itertools.combinations(servers, quorum_size):
        yield frozenset(combo)


def all_intersect(quorums: Iterable[FrozenSet[str]]) -> bool:
    """True when every pair of the given quorums has a nonempty intersection."""
    qs = list(quorums)
    for a, b in itertools.combinations(qs, 2):
        if not (a & b):
            return False
    return True


@dataclass(frozen=True)
class QuorumSystem:
    """A generic ``S - t`` acknowledgement quorum system.

    Attributes:
        servers: the ordered tuple of server ids.
        max_faults: ``t``, the number of crash failures tolerated.
    """

    servers: Tuple[str, ...]
    max_faults: int

    def __post_init__(self) -> None:
        if len(self.servers) < 2:
            raise ConfigurationError("a quorum system needs at least 2 servers")
        if self.max_faults < 0 or self.max_faults >= len(self.servers):
            raise ConfigurationError(
                f"t={self.max_faults} out of range for S={len(self.servers)}"
            )
        if len(set(self.servers)) != len(self.servers):
            raise ConfigurationError("duplicate server ids in quorum system")

    @property
    def size(self) -> int:
        return len(self.servers)

    @property
    def quorum_size(self) -> int:
        """The ``S - t`` ack threshold used by every round-trip."""
        return self.size - self.max_faults

    def quorums(self) -> Iterator[FrozenSet[str]]:
        """All possible ack sets of size ``S - t``."""
        return ack_sets(self.servers, self.quorum_size)

    def is_quorum(self, acked: Iterable[str]) -> bool:
        acked_set = set(acked)
        if not acked_set.issubset(self.servers):
            raise ConfigurationError("ack set contains unknown servers")
        return len(acked_set) >= self.quorum_size

    def guaranteed_overlap(self) -> int:
        """Minimum intersection size of any two ``S - t`` quorums."""
        return intersection_size_lower_bound(
            self.quorum_size, self.quorum_size, self.size
        )

    def tolerates(self, crashed: Iterable[str]) -> bool:
        """Whether progress is possible with the given servers crashed."""
        crashed_set = set(crashed) & set(self.servers)
        return len(crashed_set) <= self.max_faults


@dataclass(frozen=True)
class MajorityQuorumSystem(QuorumSystem):
    """The ``t < S/2`` system used by ABD / MW-ABD (W2R2 implementations)."""

    def __post_init__(self) -> None:
        super().__post_init__()
        require_majority_quorums(self.size, self.max_faults, "majority quorums")

    def regular(self) -> bool:
        """Any two quorums intersect -- the defining property."""
        return self.guaranteed_overlap() >= 1


@dataclass(frozen=True)
class FastQuorumSystem(QuorumSystem):
    """Quorum structure for fast (one-round-trip) reads.

    Requires ``R < S/t - 2`` where ``R`` is the number of readers; the class
    records ``readers`` so it can validate the condition and expose the
    intersection lemmas the admissibility proof relies on.
    """

    readers: int = 2

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.readers < 1:
            raise ConfigurationError("need at least one reader")
        require_fast_reads(self.readers, self.size, self.max_faults)

    def admissible_set_size(self, degree: int) -> int:
        """Size ``S - a*t`` of a witnessing set for admissibility degree a."""
        return self.size - degree * self.max_faults

    def witness_survives_faults(self, degree: int) -> bool:
        """Lemma 9: a degree-``a`` witness set has more than ``t`` servers."""
        return self.admissible_set_size(degree) > self.max_faults

    def witness_meets_later_read(self, degree: int) -> bool:
        """Lemma 10: a degree-``a`` witness set intersects a later ``S - t`` reply set."""
        overlap = intersection_size_lower_bound(
            self.admissible_set_size(degree), self.quorum_size, self.size
        )
        return overlap >= 1

    def max_degree(self) -> int:
        """The largest admissibility degree the algorithm ever uses, ``R + 1``."""
        return self.readers + 1
