"""Coalescing and frame accounting shared by every engine and adapter."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union

__all__ = ["BatchStats"]


@dataclass
class BatchStats:
    """Coalescing and frame statistics for one component of one run.

    One instance belongs to one *component* -- a client driver or a proxy --
    and the frame counters follow a convention that makes merging safe
    across any set of components: every frame on the wire is counted
    **exactly once**, request frames by the component that *sent* them
    (``frames_sent``) and reply frames by the component that *received* them
    (``frames_received``).  A client behind a proxy counts its client->proxy
    requests and proxy->client acks; the proxy counts its proxy->replica
    requests and replica->proxy acks; summing the four numbers is the exact
    frame total of the deployment, with nothing counted twice.

    ``rounds``/``sub_operations`` describe this component's own coalescing
    (how many framed rounds it cut, carrying how many sub-operations), so
    merging client stats with proxy stats would conflate two different
    meanings -- keep tiers in separate instances and merge within a tier.
    """

    rounds: int = 0
    sub_operations: int = 0
    largest: int = 0
    frames_sent: int = 0
    frames_received: int = 0
    #: Replica rounds sent quorum-first (to ``S - t`` replicas only), and how
    #: many of those had to ask the rest of the group after all.
    rounds_narrow: int = 0
    rounds_widened: int = 0

    def record(self, batch_size: int) -> None:
        self.rounds += 1
        self.sub_operations += batch_size
        self.largest = max(self.largest, batch_size)

    def record_frames(self, sent: int = 0, received: int = 0) -> None:
        self.frames_sent += sent
        self.frames_received += received

    @property
    def mean_batch_size(self) -> float:
        return self.sub_operations / self.rounds if self.rounds else 0.0

    @property
    def frames_total(self) -> int:
        """Frames this component put on or took off the wire."""
        return self.frames_sent + self.frames_received

    def merge(self, other: "BatchStats") -> None:
        self.rounds += other.rounds
        self.sub_operations += other.sub_operations
        self.largest = max(self.largest, other.largest)
        self.frames_sent += other.frames_sent
        self.frames_received += other.frames_received
        self.rounds_narrow += other.rounds_narrow
        self.rounds_widened += other.rounds_widened

    def copy(self) -> "BatchStats":
        """A detached snapshot (for merge-without-mutation reporting)."""
        snapshot = BatchStats()
        snapshot.merge(self)
        return snapshot

    def as_dict(self) -> Dict[str, Union[int, float]]:
        """The canonical reporting shape, shared by the benchmark JSON and
        the CLI so every consumer assembles the same keys from one place."""
        return {
            "rounds": self.rounds,
            "sub_ops": self.sub_operations,
            "mean_batch": self.mean_batch_size,
            "largest_batch": self.largest,
            "frames_sent": self.frames_sent,
            "frames_received": self.frames_received,
            "frames_total": self.frames_total,
            "rounds_narrow": self.rounds_narrow,
            "rounds_widened": self.rounds_widened,
        }

    def summary(self) -> str:
        return (
            f"{self.rounds} batch rounds, {self.sub_operations} sub-ops, "
            f"mean batch {self.mean_batch_size:.2f}, largest {self.largest}, "
            f"{self.frames_sent} frames sent"
        )
