"""Control-plane migration reporting.

The data-plane side of a rebalance -- fencing donors, transferring per-key
register state, installing it on the new owners -- is the frame-based
incremental drain run by
:class:`~repro.kvstore.engine.control.ControlPlaneEngine`.  Earlier versions
applied a whole plan in one synchronous critical section (every group
server's logic object was reachable in the coordinating process); that
single-process assumption is gone, and with it the shard-sized cutover
pause: the engine drains one key *range* at a time, so client ops on keys
outside the range in flight keep completing throughout.

What both backends still share is :class:`MigrationReport` -- what one
rebalance moved.  Because the drain is asynchronous, a report is returned
*before* the data has moved; ``done`` flips (and ``on_done`` callbacks
fire) when the drain completes and the counters are final.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List

__all__ = ["MigrationReport"]


@dataclass
class MigrationReport:
    """What one applied plan physically moved.

    The shard-set fields (``shards_added``/``shards_removed``/
    ``shards_fenced``) are metadata and are final as soon as the report is
    returned -- the shard map flips synchronously.  The data counters
    (``keys_moved``, ``registers_moved``) are filled when the incremental
    drain finishes; watch ``done`` or register an ``on_done`` callback.
    """

    keys_moved: int = 0
    registers_moved: int = 0
    shards_added: List[str] = field(default_factory=list)
    shards_removed: List[str] = field(default_factory=list)
    shards_fenced: List[str] = field(default_factory=list)
    done: bool = False
    _done_callbacks: List[Callable[["MigrationReport"], None]] = field(
        default_factory=list, repr=False
    )

    def summary(self) -> str:
        return (
            f"moved {self.keys_moved} keys ({self.registers_moved} replica "
            f"registers), +{len(self.shards_added)}/-{len(self.shards_removed)} "
            f"shards, fenced {len(self.shards_fenced)}"
        )

    def on_done(self, callback: Callable[["MigrationReport"], None]) -> None:
        """Run ``callback(report)`` once the drain completes.

        Fires immediately when the report is already complete, so callers
        need not care whether the backend drained synchronously (the
        simulator pumping its own event queue) or in the background (the
        asyncio cluster).
        """
        if self.done:
            callback(self)
        else:
            self._done_callbacks.append(callback)

    def _complete(self) -> None:
        """Mark the drain finished and fire the completion callbacks."""
        if self.done:
            return
        self.done = True
        callbacks, self._done_callbacks = self._done_callbacks, []
        for callback in callbacks:
            callback(self)
