"""Tags and timestamps for multi-writer register values.

The multi-writer algorithms in the paper (Section 5.2 and Appendix A) identify
each written value by a pair ``(ts, wid)`` where ``ts`` is an integer version
number and ``wid`` is the identifier of the writer that proposed it.  Values
are totally ordered lexicographically: first by ``ts``, then by ``wid``.  The
two-round-trip write protocol guarantees that non-concurrent writes obtain
strictly increasing ``ts`` values, so the (arbitrary) writer-id order is only
ever used to break ties between *concurrent* writes, which is exactly the
argument in Section 5.2 of the paper.

This module provides:

* :class:`Tag` -- the ordered ``(ts, wid)`` pair, with :data:`BOTTOM_TAG`
  standing for the initial value ``(0, \\bot)``.
* :class:`TaggedValue` -- a tag together with the application value it names.
* Helpers for computing successor tags (``max_ts + 1`` with the local writer
  id) as the write protocol does in its second round-trip.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Iterable, Optional

__all__ = [
    "BOTTOM_WRITER",
    "BOTTOM_TAG",
    "Tag",
    "TaggedValue",
    "next_tag",
    "max_tag",
]

#: Writer id used for the initial register value ``(0, \bot)``.  It compares
#: lower than every real writer id.
BOTTOM_WRITER: str = ""


class Tag:
    """A totally ordered ``(ts, wid)`` version tag.

    ``ts`` is a non-negative integer timestamp; ``wid`` is the writer id (a
    string).  The ordering is lexicographic, matching the definition in
    Appendix A of the paper: ``(ts1, wi) < (ts2, wj)`` iff ``ts1 < ts2`` or
    ``ts1 == ts2 and wi < wj``.

    An immutable value type: every quorum round decodes and compares tags,
    so the class keeps two slots, sets them through their descriptors once
    in ``__init__`` and compares ``(ts, wid)`` field by field in each
    operator.  A non-``Tag`` operand is ``NotImplemented``, so a tag never
    equals the tuple it spells.
    """

    __slots__ = ("ts", "wid")

    ts: int
    wid: str

    def __init__(self, ts: int, wid: str = BOTTOM_WRITER) -> None:
        if ts < 0:
            raise ValueError(f"timestamp must be non-negative, got {ts}")
        _set_ts(self, ts)
        _set_wid(self, wid)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Tag")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable Tag")

    def __reduce__(self):
        # Rebuilt through ``__init__``: the default slot-state restore would
        # go through the ``__setattr__`` above.  Serves pickle and copy.
        return Tag, (self.ts, self.wid)

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Tag):
            return NotImplemented
        ts = other.ts
        return self.ts < ts or (self.ts == ts and self.wid < other.wid)

    def __le__(self, other: object) -> bool:
        if not isinstance(other, Tag):
            return NotImplemented
        ts = other.ts
        return self.ts < ts or (self.ts == ts and self.wid <= other.wid)

    def __gt__(self, other: object) -> bool:
        if not isinstance(other, Tag):
            return NotImplemented
        ts = other.ts
        return self.ts > ts or (self.ts == ts and self.wid > other.wid)

    def __ge__(self, other: object) -> bool:
        if not isinstance(other, Tag):
            return NotImplemented
        ts = other.ts
        return self.ts > ts or (self.ts == ts and self.wid >= other.wid)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tag):
            return NotImplemented
        return self.ts == other.ts and self.wid == other.wid

    def __hash__(self) -> int:
        return hash((self.ts, self.wid))

    @property
    def is_bottom(self) -> bool:
        """True for the initial tag ``(0, \\bot)``."""
        return self.ts == 0 and self.wid == BOTTOM_WRITER

    def successor(self, wid: str) -> "Tag":
        """The tag a writer ``wid`` proposes after observing this tag.

        This is the ``ts <- maxTS + 1`` step of the two-round-trip write
        (Algorithm 1, line 9).
        """
        return Tag(self.ts + 1, wid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        wid = self.wid if self.wid else "⊥"
        return f"Tag({self.ts},{wid})"


_set_ts = Tag.ts.__set__
_set_wid = Tag.wid.__set__


#: The initial tag ``(0, \bot)`` held by every server before any write.
BOTTOM_TAG = Tag(0, BOTTOM_WRITER)


@functools.total_ordering
@dataclass(frozen=True)
class TaggedValue:
    """A register value together with the tag that names it.

    Ordering and equality are by tag only: two ``TaggedValue`` objects with
    the same tag denote the same write (a writer never reuses a tag), so the
    payload is irrelevant for ordering purposes.
    """

    tag: Tag
    value: Any = None

    def __lt__(self, other: "TaggedValue") -> bool:
        if not isinstance(other, TaggedValue):
            return NotImplemented
        return self.tag < other.tag

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaggedValue):
            return NotImplemented
        return self.tag == other.tag

    def __hash__(self) -> int:
        return hash(self.tag)

    @property
    def is_initial(self) -> bool:
        """True when this is the initial value written by nobody."""
        return self.tag.is_bottom

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TaggedValue({self.tag!r}, {self.value!r})"


#: The initial register content.
INITIAL_VALUE = TaggedValue(BOTTOM_TAG, None)


def max_tag(tags: Iterable[Tag], default: Optional[Tag] = None) -> Tag:
    """Return the maximum of an iterable of tags.

    ``default`` (by default :data:`BOTTOM_TAG`) is returned for an empty
    iterable, mirroring what a reader does when no server reported anything
    newer than the initial value.
    """
    if default is None:
        default = BOTTOM_TAG
    best = default
    for tag in tags:
        if tag > best:
            best = tag
    return best


def next_tag(observed: Iterable[Tag], wid: str) -> Tag:
    """Compute the tag a writer proposes after its query round-trip.

    The writer collects tags from ``S - t`` servers, takes the maximum
    timestamp and proposes ``(maxTS + 1, wid)`` -- Algorithm 1, lines 6-10.
    """
    return max_tag(observed).successor(wid)
