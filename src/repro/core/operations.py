"""Operation records: invocations, responses, and operation intervals.

The atomicity definition (Definition 2.1 of the paper) is stated over
*executions*: sequences of invocation and response events, each tagged with a
timestamp of the discrete global clock.  This module defines the operation
record -- an invocation and its response, as one interval -- shared by the
simulator, the asyncio runtime, the history checker and the proof engine.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Any, Optional

from .timestamps import Tag

__all__ = [
    "OpKind",
    "Operation",
    "new_op_id",
]

_op_counter = itertools.count(1)


def new_op_id(prefix: str = "op") -> str:
    """Generate a fresh, process-unique operation identifier."""
    return f"{prefix}-{next(_op_counter)}"


class OpKind(enum.Enum):
    """Kinds of register operations."""

    READ = "read"
    WRITE = "write"


@dataclass
class Operation:
    """A completed (or pending) operation: an invocation/response pair.

    ``start`` and ``finish`` are the paper's ``O.s`` and ``O.f``; an operation
    with ``finish is None`` is pending (it has been invoked but has not yet
    responded).  For writes, ``value``/``tag`` describe what was written; for
    reads they describe what was returned.
    """

    op_id: str
    client: str
    kind: OpKind
    start: float
    finish: Optional[float] = None
    value: Any = None
    tag: Optional[Tag] = None
    round_trips: int = 0

    @property
    def is_read(self) -> bool:
        return self.kind is OpKind.READ

    @property
    def is_write(self) -> bool:
        return self.kind is OpKind.WRITE

    @property
    def is_complete(self) -> bool:
        return self.finish is not None

    @property
    def latency(self) -> Optional[float]:
        """Wall-clock (or simulated-clock) duration, if complete."""
        if self.finish is None:
            return None
        return self.finish - self.start

    def precedes(self, other: "Operation") -> bool:
        """Real-time precedence ``self ≺ other`` (O1.f < O2.s)."""
        if self.finish is None:
            return False
        return self.finish < other.start

    def concurrent_with(self, other: "Operation") -> bool:
        """Neither operation precedes the other."""
        return not self.precedes(other) and not other.precedes(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = f"[{self.start},{self.finish}]" if self.is_complete else f"[{self.start},..)"
        return (
            f"Operation({self.op_id} {self.kind.value} by {self.client} "
            f"{status} value={self.value!r} tag={self.tag!r} rtts={self.round_trips})"
        )
