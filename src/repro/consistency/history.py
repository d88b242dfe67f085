"""Histories of register operations.

A *history* (the paper calls it an execution of the clients, Section 2.1) is
the sequence of invocation and response events observed at the global clock.
The atomicity checker, the anomaly classifier and the benchmark reporters all
consume this type; :class:`HistoryRecorder` produces it, one history per key,
for both simulators and the asyncio store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..core.operations import Operation, OpKind
from ..core.timestamps import Tag

__all__ = ["History", "HistoryRecorder"]


@dataclass
class History:
    """A collection of operations with real-time ordering information."""

    operations: List[Operation] = field(default_factory=list)

    # -- construction ---------------------------------------------------------

    def add(self, operation: Operation) -> None:
        self.operations.append(operation)

    @classmethod
    def from_operations(cls, operations: Iterable[Operation]) -> "History":
        return cls(list(operations))

    # -- basic queries --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.operations)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.operations)

    @property
    def reads(self) -> List[Operation]:
        return [op for op in self.operations if op.is_read]

    @property
    def writes(self) -> List[Operation]:
        return [op for op in self.operations if op.is_write]

    @property
    def complete_operations(self) -> List[Operation]:
        return [op for op in self.operations if op.is_complete]

    @property
    def pending_operations(self) -> List[Operation]:
        return [op for op in self.operations if not op.is_complete]

    def by_client(self, client: str) -> List[Operation]:
        return [op for op in self.operations if op.client == client]

    def operation(self, op_id: str) -> Operation:
        for op in self.operations:
            if op.op_id == op_id:
                return op
        raise KeyError(op_id)

    def write_for_tag(self, tag: Tag) -> Optional[Operation]:
        """The write operation that produced ``tag``, if present."""
        for op in self.writes:
            if op.tag == tag:
                return op
        return None

    # -- structural checks -----------------------------------------------------

    def is_well_formed(self) -> bool:
        """Each client's sub-history is sequential (no overlapping ops)."""
        clients: Dict[str, List[Operation]] = {}
        for op in self.operations:
            clients.setdefault(op.client, []).append(op)
        for ops in clients.values():
            ordered = sorted(ops, key=lambda o: o.start)
            for earlier, later in zip(ordered, ordered[1:]):
                if earlier.finish is None or earlier.finish > later.start:
                    return False
        return True

    def precedes(self, first: Operation, second: Operation) -> bool:
        """Real-time order ``first ≺ second``."""
        return first.precedes(second)

    def concurrent(self, first: Operation, second: Operation) -> bool:
        return first.concurrent_with(second)

    def real_time_pairs(self) -> Iterator[Tuple[Operation, Operation]]:
        """All ordered pairs (a, b) with a ≺ b."""
        for a in self.complete_operations:
            for b in self.operations:
                if a is not b and a.precedes(b):
                    yield a, b

    # -- completion -----------------------------------------------------------

    def completed_only(self) -> "History":
        """A copy restricted to complete operations.

        Pending *writes* are kept (a pending write may have taken effect and
        be observed by readers), pending reads are dropped -- the standard
        history-completion convention for linearizability checking.
        """
        ops: List[Operation] = []
        for op in self.operations:
            if op.is_complete:
                ops.append(op)
            elif op.is_write:
                ops.append(op)
        return History(ops)

    def duration(self) -> float:
        """Virtual/wall-clock span covered by the history."""
        if not self.operations:
            return 0.0
        start = min(op.start for op in self.operations)
        finish = max(
            (op.finish for op in self.operations if op.finish is not None),
            default=start,
        )
        return finish - start

    def round_trip_counts(self) -> Tuple[List[int], List[int]]:
        """Round-trip counts for (writes, reads), for the design-space classifier."""
        writes = [op.round_trips for op in self.writes if op.is_complete]
        reads = [op.round_trips for op in self.reads if op.is_complete]
        return writes, reads


class HistoryRecorder:
    """Collects one operation history per key as clients invoke and complete
    operations.

    ``time_fn`` abstracts the clock: the simulators pass their virtual
    clock, the asyncio store a monotonic wall clock, so the same recorder
    (and the same checker) serves all three.  It is the only reader of that
    clock; protocol code never reads it, as in the paper's model.  Atomicity
    decomposes by key (locality of linearizability), so each key's history
    is checked on its own; the single-register simulator records under one.
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

    def history(self, key: str) -> History:
        """``key``'s history, operations in invocation order."""
        return History([self._operations[op_id] for op_id in self._per_key.get(key, ())])

    def histories(self) -> Dict[str, History]:
        """One history per key, operations in invocation order."""
        return {key: self.history(key) for key in self._per_key}
