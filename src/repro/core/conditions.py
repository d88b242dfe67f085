"""Feasibility conditions from the paper's design space (Table 1).

The paper characterises, for each point of the design space
``{W1, W2} x {R1, R2}``, whether a wait-free atomic MWMR register
implementation exists in a system of ``S`` servers, ``W >= 2`` writers,
``R >= 2`` readers, tolerating ``t`` server crashes:

* **W2R2** -- possible iff ``t < S/2`` (majority quorums, Lynch-Shvartsman).
* **W1R2** -- impossible whenever ``W >= 2, R >= 2, t >= 1`` (this paper's
  main theorem).
* **W2R1** -- possible iff ``R < S/t - 2`` (this paper, extending DGLV).
* **W1R1** -- impossible whenever ``W >= 2, R >= 2, t >= 1`` (DGLV).

This module encodes those predicates, plus the single-writer results of DGLV
that the paper builds on (fast SWMR implementations exist iff
``R < S/t - 2``).  All functions are pure and raise
:class:`~repro.core.errors.ConfigurationError` on nonsensical parameters so
callers discover bad sweeps early.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import ConfigurationError
from .fastness import DesignPoint

__all__ = [
    "SystemParameters",
    "validate_parameters",
    "majority_quorum_possible",
    "require_majority_quorums",
    "fast_read_bound",
    "require_fast_reads",
    "fast_read_possible",
    "fast_write_possible",
    "fast_read_write_possible",
    "w2r2_possible",
    "is_feasible",
    "max_readers_for_fast_reads",
    "min_servers_for_fast_reads",
    "parameter_sweep",
]


@dataclass(frozen=True)
class SystemParameters:
    """The four parameters of the paper's system model.

    Attributes:
        servers: ``S`` -- number of server replicas (``S >= 2``).
        writers: ``W`` -- number of writer clients (``W >= 1``).
        readers: ``R`` -- number of reader clients (``R >= 1``).
        max_faults: ``t`` -- maximum number of servers that may crash
            (``0 <= t < S``).
    """

    servers: int
    writers: int
    readers: int
    max_faults: int

    def __post_init__(self) -> None:
        validate_parameters(
            self.servers, self.writers, self.readers, self.max_faults
        )

    @property
    def is_multi_writer(self) -> bool:
        return self.writers >= 2

    @property
    def is_multi_reader(self) -> bool:
        return self.readers >= 2

    @property
    def quorum_size(self) -> int:
        """Number of replies ``S - t`` a client waits for per round-trip."""
        return self.servers - self.max_faults

    def describe(self) -> str:
        return (
            f"S={self.servers}, W={self.writers}, "
            f"R={self.readers}, t={self.max_faults}"
        )


def validate_parameters(servers: int, writers: int, readers: int, max_faults: int) -> None:
    """Validate system parameters, raising ``ConfigurationError`` if invalid."""
    if servers < 2:
        raise ConfigurationError(f"need at least 2 servers, got {servers}")
    if writers < 1:
        raise ConfigurationError(f"need at least 1 writer, got {writers}")
    if readers < 1:
        raise ConfigurationError(f"need at least 1 reader, got {readers}")
    if max_faults < 0:
        raise ConfigurationError(f"t must be non-negative, got {max_faults}")
    if max_faults >= servers:
        raise ConfigurationError(
            f"t must be smaller than S (got t={max_faults}, S={servers})"
        )


def majority_quorum_possible(servers: int, max_faults: int) -> bool:
    """True when ``t < S/2`` so that any two ``S - t`` quorums intersect."""
    return 2 * max_faults < servers


def require_majority_quorums(servers: int, max_faults: int, what: str) -> None:
    """Refuse ``what`` unless :func:`majority_quorum_possible` (``t < S/2``)."""
    if not majority_quorum_possible(servers, max_faults):
        raise ConfigurationError(
            f"{what} requires t < S/2 (got t={max_faults}, S={servers})"
        )


def w2r2_possible(params: SystemParameters) -> bool:
    """Feasibility of slow (two-round-trip) read/write implementations.

    Lynch-Shvartsman's MW-ABD works exactly when majorities intersect,
    i.e. ``t < S/2`` (Table 1, row W2R2).
    """
    return majority_quorum_possible(params.servers, params.max_faults)


def fast_read_bound(servers: int, max_faults: int) -> float:
    """The threshold ``S/t - 2`` that the number of readers is compared to.

    For ``t = 0`` there is no bound (every operation can trivially be fast
    because no server may be missed), represented as ``float('inf')``.
    """
    if max_faults == 0:
        return float("inf")
    return servers / max_faults - 2


def require_fast_reads(readers: int, servers: int, max_faults: int, hint: str = "") -> None:
    """Refuse fast reads unless ``R <`` :func:`fast_read_bound` (``S/t - 2``);
    ``hint`` is appended to the refusal."""
    if readers >= fast_read_bound(servers, max_faults):
        raise ConfigurationError(
            "fast reads require R < S/t - 2 "
            f"(got R={readers}, S={servers}, t={max_faults}){hint}"
        )


def fast_read_possible(params: SystemParameters) -> bool:
    """Feasibility of W2R1 (fast read) implementations: ``R < S/t - 2``.

    This is the necessary and sufficient condition of Section 5 of the paper
    (and of DGLV in the single-writer case).
    """
    return params.readers < fast_read_bound(params.servers, params.max_faults)


def fast_write_possible(params: SystemParameters) -> bool:
    """Feasibility of W1R2 (fast write) implementations.

    The paper's main theorem: impossible whenever there are at least two
    writers, at least two readers and at least one tolerated fault.  In the
    single-writer case a fast write is trivially achievable by ABD (the
    writer maintains its own timestamp and writes in one round-trip), and
    with ``t = 0`` fastness is not constrained.
    """
    if params.max_faults == 0:
        return True
    if not params.is_multi_writer:
        return True
    if not params.is_multi_reader:
        # With a single reader the chain argument's R2 does not exist; DGLV
        # style fast behaviour is achievable.  The paper requires R >= 2 for
        # the impossibility.
        return True
    return False


def fast_read_write_possible(params: SystemParameters) -> bool:
    """Feasibility of W1R1 implementations (DGLV impossibility).

    In the multi-writer case W1R1 is impossible for ``t >= 1``; in the
    single-writer case it requires ``R < S/t - 2`` (DGLV's fast
    implementation).
    """
    if params.max_faults == 0:
        return True
    if params.is_multi_writer and params.is_multi_reader:
        return False
    return fast_read_possible(params)


_FEASIBILITY = {
    DesignPoint.W2R2: w2r2_possible,
    DesignPoint.W1R2: fast_write_possible,
    DesignPoint.W2R1: fast_read_possible,
    DesignPoint.W1R1: fast_read_write_possible,
}


def is_feasible(point: DesignPoint, params: SystemParameters) -> bool:
    """Whether an atomic implementation exists at ``point`` under ``params``.

    W2R2 feasibility (``t < S/2``) is a prerequisite for every point: if even
    slow implementations are impossible, so are fast ones.
    """
    if not w2r2_possible(params):
        return False
    return _FEASIBILITY[point](params)


def max_readers_for_fast_reads(servers: int, max_faults: int) -> int:
    """Largest ``R`` for which a W2R1 implementation exists, or a huge value for t=0.

    The condition is strict: ``R < S/t - 2``.
    """
    bound = fast_read_bound(servers, max_faults)
    if bound == float("inf"):
        return 10**9
    # Largest integer strictly below the bound.
    if bound.is_integer():
        return int(bound) - 1
    return int(bound)


def min_servers_for_fast_reads(readers: int, max_faults: int) -> int:
    """Smallest ``S`` such that ``R < S/t - 2`` holds."""
    if max_faults == 0:
        return 2
    # Need S > (R + 2) * t, i.e. S >= (R + 2) * t + 1.
    return (readers + 2) * max_faults + 1


def parameter_sweep(
    servers_range,
    writers_range,
    readers_range,
    faults_range,
    require_valid: bool = True,
) -> Iterator[SystemParameters]:
    """Yield all valid parameter combinations from the given ranges.

    Invalid combinations (``t >= S`` etc.) are skipped when ``require_valid``
    is True (the default), otherwise a ``ConfigurationError`` propagates.
    """
    for s in servers_range:
        for w in writers_range:
            for r in readers_range:
                for t in faults_range:
                    try:
                        yield SystemParameters(s, w, r, t)
                    except ConfigurationError:
                        if not require_valid:
                            raise
