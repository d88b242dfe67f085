"""Per-key histories and per-key atomicity checking.

Atomicity of the key-value store decomposes by key: registers for different
keys share nothing, so the store is linearizable iff each key's sub-history
is an atomic single-register history (locality of linearizability).  The
recorder therefore keeps one history per key and
:func:`check_per_key_atomicity` runs the library's
:func:`~repro.consistency.atomicity.check_atomicity` on each sub-history
independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..consistency.atomicity import AtomicityResult, check_atomicity
from ..consistency.history import History
from ..core.operations import Operation, OpKind
from ..core.timestamps import Tag

__all__ = ["KVHistoryRecorder", "PerKeyAtomicity", "check_per_key_atomicity"]


class KVHistoryRecorder:
    """Collects one operation history per key.

    ``time_fn`` abstracts the clock: the simulator passes its virtual clock,
    the asyncio backend a monotonic wall clock, so the same recorder (and the
    same checker) serves both.
    """

    def __init__(self, time_fn: Callable[[], float]) -> None:
        self._time_fn = time_fn
        self._operations: Dict[str, Operation] = {}
        self._per_key: Dict[str, List[str]] = {}
        self._completed = 0

    def record_invocation(
        self,
        key: str,
        op_id: str,
        client: str,
        kind: OpKind,
        value: Any = None,
    ) -> Operation:
        operation = Operation(
            op_id=op_id, client=client, kind=kind, start=self._time_fn(), value=value
        )
        self._operations[op_id] = operation
        self._per_key.setdefault(key, []).append(op_id)
        return operation

    def record_response(
        self,
        op_id: str,
        value: Any = None,
        tag: Optional[Tag] = None,
        round_trips: int = 0,
    ) -> Operation:
        operation = self._operations[op_id]
        if not operation.is_complete:
            self._completed += 1
        operation.finish = self._time_fn()
        operation.round_trips = round_trips
        if operation.is_read:
            operation.value = value
            operation.tag = tag
        elif tag is not None:
            operation.tag = tag
        return operation

    @property
    def total_operations(self) -> int:
        return len(self._operations)

    @property
    def completed_operations(self) -> int:
        """Operations with a response, each counted at its first one."""
        return self._completed

    def histories(self) -> Dict[str, History]:
        """One history per key, operations in invocation order."""
        return {
            key: History([self._operations[op_id] for op_id in op_ids])
            for key, op_ids in self._per_key.items()
        }


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
