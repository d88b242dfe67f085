"""Per-key histories and per-key atomicity checking.

Atomicity of the key-value store decomposes by key: registers for different
keys share nothing, so the store is linearizable iff each key's sub-history
is an atomic single-register history (locality of linearizability).  The
recorder (:class:`~repro.consistency.history.HistoryRecorder`, exported here
as :class:`KVHistoryRecorder`) therefore keeps one history per key and
:func:`check_per_key_atomicity` runs the library's
:func:`~repro.consistency.atomicity.check_atomicity` on each sub-history
independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..consistency.atomicity import AtomicityResult, check_atomicity
from ..consistency.history import History, HistoryRecorder as KVHistoryRecorder

__all__ = ["KVHistoryRecorder", "PerKeyAtomicity", "check_per_key_atomicity"]


@dataclass
class PerKeyAtomicity:
    """The per-key verdicts of one kv-store run."""

    results: Dict[str, AtomicityResult] = field(default_factory=dict)

    @property
    def all_atomic(self) -> bool:
        return all(result.atomic for result in self.results.values())

    @property
    def violating_keys(self) -> List[str]:
        return sorted(k for k, result in self.results.items() if not result.atomic)

    def summary(self) -> str:
        if self.all_atomic:
            return f"ATOMIC on all {len(self.results)} keys"
        bad = self.violating_keys
        return f"NOT ATOMIC on {len(bad)}/{len(self.results)} keys: {', '.join(bad[:5])}"


def check_per_key_atomicity(histories: Dict[str, History]) -> PerKeyAtomicity:
    """Check each key's sub-history independently (locality)."""
    return PerKeyAtomicity(
        results={key: check_atomicity(history) for key, history in histories.items()}
    )
