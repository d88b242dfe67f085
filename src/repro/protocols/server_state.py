"""Server-side state machines shared by the register protocols.

Two server designs cover every protocol in this library:

* :class:`TagValueServer` -- the classic ABD server: it stores the largest
  ``(tag, value)`` pair it has seen and returns it on queries.  Used by the
  W2R2 baseline (MW-ABD), single-writer ABD, and the deliberately "too fast"
  candidate protocols.

* :class:`ValueVectorServer` -- the server of the paper's Algorithm 2: it
  keeps a *value vector* mapping every tag it knows to the value payload and
  the set of clients that have been *updated* with that value.  Reads
  piggyback the reader's ``valQueue``; the server merges it, records the
  reader in the updated set of its current value, and replies with the whole
  vector.  This is what the fast-read (W2R1) and the fast single-writer
  (DGLV-style) protocols use, because the ``updated`` sets are exactly what
  the ``admissible`` predicate inspects.

Both are plain objects operating on :class:`~repro.messages.Message`
values -- no clock, no network -- so they run unchanged under the simulator,
the asyncio transport and the direct in-process driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set

from ..core.timestamps import BOTTOM_TAG, Tag
from ..messages import Message
from .base import ServerLogic
from .codec import decode_tag, encode_tag

__all__ = ["TagValueServer", "ValueVectorEntry", "ValueVectorServer"]


class TagValueServer(ServerLogic):
    """ABD-style server: stores the single largest tagged value.

    Message kinds understood:

    * ``"query"`` -- reply ``"query-ack"`` with the stored tag and value.
    * ``"update"`` -- adopt the value if its tag is larger, reply
      ``"update-ack"`` with the (possibly unchanged) stored tag.
    """

    def __init__(self, server_id: str) -> None:
        super().__init__(server_id)
        self.tag: Tag = BOTTOM_TAG
        self.value: Any = None
        self.queries_served = 0
        self.updates_served = 0

    def handle(self, message: Message) -> Optional[Message]:
        if message.kind == "query":
            self.queries_served += 1
            return self.reply(
                message, "query-ack",
                {"tag": encode_tag(self.tag), "value": self.value},
            )
        if message.kind == "update":
            self.updates_served += 1
            incoming = decode_tag(message.payload["tag"])
            if incoming > self.tag:
                self.tag = incoming
                self.value = message.payload.get("value")
            return self.reply(
                message, "update-ack", {"tag": encode_tag(self.tag)}
            )
        raise ValueError(f"TagValueServer cannot handle message kind {message.kind!r}")

    # -- state migration ------------------------------------------------------------

    def export_state(self) -> Dict[str, Any]:
        return {"tag": encode_tag(self.tag), "value": self.value}

    def absorb_state(self, blob: Dict[str, Any]) -> None:
        incoming = decode_tag(blob["tag"])
        if incoming > self.tag:
            self.tag = incoming
            self.value = blob.get("value")


@dataclass
class ValueVectorEntry:
    """One entry of the value vector: the payload plus its ``updated`` set."""

    value: Any = None
    updated: Set[str] = field(default_factory=set)


class ValueVectorServer(ServerLogic):
    """The server of the paper's Algorithm 2 (multi-writer DGLV extension).

    State:

    * ``current`` -- the largest tag stored (``vali`` in the pseudocode);
    * ``vector`` -- mapping tag -> :class:`ValueVectorEntry`.

    Message kinds understood:

    * ``"write"`` -- the second round-trip of a write: ``update(val, w)`` then
      reply ``WRITEACK``.
    * ``"read"`` -- a query carrying the client's ``valQueue`` (possibly
      empty): merge the queue, add the requesting client to the updated set of
      the current value, and reply ``READACK`` with the full vector.

    The write protocol's *first* round-trip is an ordinary ``"read"`` with an
    empty queue, exactly as in Algorithm 1 line 6.
    """

    def __init__(self, server_id: str) -> None:
        super().__init__(server_id)
        self.current: Tag = BOTTOM_TAG
        self.vector: Dict[Tag, ValueVectorEntry] = {
            BOTTOM_TAG: ValueVectorEntry(value=None, updated=set())
        }
        self.reads_served = 0
        self.writes_served = 0

    # -- the update(val, c) procedure of Algorithm 2 -------------------------------

    def update(self, tag: Tag, value: Any, client: str) -> None:
        entry = self.vector.get(tag)
        if entry is None:
            entry = ValueVectorEntry(value=value, updated=set())
            self.vector[tag] = entry
        if value is not None and entry.value is None:
            entry.value = value
        entry.updated.add(client)
        if tag > self.current:
            self.current = tag

    # -- message handling -----------------------------------------------------------

    def handle(self, message: Message) -> Optional[Message]:
        if message.kind == "write":
            self.writes_served += 1
            tag = decode_tag(message.payload["tag"])
            self.update(tag, message.payload.get("value"), message.sender)
            return self.reply(message, "WRITEACK", {"tag": encode_tag(self.current)})
        if message.kind == "read":
            self.reads_served += 1
            queue = message.payload.get("val_queue", {})
            for encoded, value in queue.items():
                self.update(decode_tag(encoded), value, message.sender)
            # Record the requesting client in the updated set of the current
            # value before replying -- the step Lemma 8's proof relies on.
            self.update(self.current, self.vector[self.current].value, message.sender)
            return self.reply(message, "READACK", {"vector": self._encode_vector()})
        raise ValueError(
            f"ValueVectorServer cannot handle message kind {message.kind!r}"
        )

    def _encode_vector(self) -> Dict[str, Dict[str, Any]]:
        encoded: Dict[str, Dict[str, Any]] = {}
        for tag, entry in self.vector.items():
            encoded[encode_tag(tag)] = {
                "value": entry.value,
                "updated": sorted(entry.updated),
            }
        return encoded

    # -- state migration ------------------------------------------------------------

    def export_state(self) -> Dict[str, Any]:
        return {
            "current": encode_tag(self.current),
            "vector": self._encode_vector(),
        }

    def absorb_state(self, blob: Dict[str, Any]) -> None:
        for encoded, fields in blob.get("vector", {}).items():
            tag = decode_tag(encoded)
            entry = self.vector.get(tag)
            if entry is None:
                entry = ValueVectorEntry(value=None, updated=set())
                self.vector[tag] = entry
            if entry.value is None and fields.get("value") is not None:
                entry.value = fields["value"]
            entry.updated.update(fields.get("updated", ()))
        incoming = decode_tag(blob["current"])
        if incoming > self.current:
            self.current = incoming
