"""Byzantine server behaviours for the simulator.

Section 5.2 of the paper notes that impossibility results in the crash model
carry over to the Byzantine model, and that the constructive W2R1 result can
be extended to tolerate Byzantine servers along the lines of DGLV.  To study
that direction the simulator can wrap any server logic in a *Byzantine
behaviour* that corrupts its replies while leaving the protocol code
untouched:

* :class:`ValueCorruption` -- replies carry fabricated values for the tags
  they report.
* :class:`TagInflation` -- replies advertise a fabricated, very large tag, a
  classic attack against "return the largest tag you see" readers.
* :class:`Equivocation` -- replies alternate between the true state and a
  fabricated one, so different clients observe different answers.
* :class:`SilentDrop` -- the server simply never answers (a crash expressed
  as a behaviour, useful for mixing fault types under one budget).

:func:`make_byzantine` wraps an existing :class:`~repro.protocols.base.ServerLogic`;
the :class:`ByzantineInjector` tracks the ``t`` budget exactly like the crash
injector does.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Sequence, Set

from ..core.errors import ConfigurationError
from ..core.timestamps import Tag
from ..protocols.base import ServerLogic
from ..protocols.codec import encode_tag
from ..messages import Message

__all__ = [
    "ByzantineBehavior",
    "ValueCorruption",
    "TagInflation",
    "Equivocation",
    "SilentDrop",
    "ByzantineServer",
    "make_byzantine",
    "ByzantineInjector",
]

#: Marker value used by the fabrication behaviours so tests can recognise
#: data that no client ever wrote.
FABRICATED_VALUE = "<byzantine-fabricated>"
FABRICATED_TAG = Tag(10**9, "byz")


class ByzantineBehavior(abc.ABC):
    """Transforms the reply a correct server logic would have produced."""

    @abc.abstractmethod
    def corrupt(self, request: Message, reply: Optional[Message]) -> Optional[Message]:
        """Return the (possibly corrupted) reply to send, or None to stay silent."""

    def describe(self) -> str:
        return type(self).__name__


def _rewrite_payload_values(payload: Dict, value) -> Dict:
    """Replace every value field in a reply payload with a fabricated one."""
    rewritten = dict(payload)
    if "value" in rewritten:
        rewritten["value"] = value
    if "vector" in rewritten:
        rewritten["vector"] = {
            tag: {**entry, "value": value}
            for tag, entry in rewritten["vector"].items()
        }
    return rewritten


class ValueCorruption(ByzantineBehavior):
    """Fabricate the value payloads while keeping tags plausible."""

    def corrupt(self, request: Message, reply: Optional[Message]) -> Optional[Message]:
        if reply is None:
            return None
        reply.payload = _rewrite_payload_values(reply.payload, FABRICATED_VALUE)
        return reply


class TagInflation(ByzantineBehavior):
    """Advertise an absurdly large tag with a fabricated value."""

    def corrupt(self, request: Message, reply: Optional[Message]) -> Optional[Message]:
        if reply is None:
            return None
        payload = dict(reply.payload)
        if "tag" in payload:
            payload["tag"] = encode_tag(FABRICATED_TAG)
            payload["value"] = FABRICATED_VALUE
        if "vector" in payload:
            vector = dict(payload["vector"])
            vector[encode_tag(FABRICATED_TAG)] = {
                "value": FABRICATED_VALUE,
                "updated": ["byz"],
            }
            payload["vector"] = vector
        reply.payload = payload
        return reply


class Equivocation(ByzantineBehavior):
    """Alternate between honest replies and tag-inflated ones per request."""

    def __init__(self) -> None:
        self._count = 0
        self._inflator = TagInflation()

    def corrupt(self, request: Message, reply: Optional[Message]) -> Optional[Message]:
        self._count += 1
        if self._count % 2 == 0:
            return reply
        return self._inflator.corrupt(request, reply)


class SilentDrop(ByzantineBehavior):
    """Never reply (equivalent to a crash, expressed as a behaviour)."""

    def corrupt(self, request: Message, reply: Optional[Message]) -> Optional[Message]:
        return None


class ByzantineServer(ServerLogic):
    """A server logic wrapped with a Byzantine behaviour."""

    def __init__(self, inner: ServerLogic, behavior: ByzantineBehavior) -> None:
        super().__init__(inner.server_id)
        self.inner = inner
        self.behavior = behavior

    def handle(self, message: Message) -> Optional[Message]:
        reply = self.inner.handle(message)
        return self.behavior.corrupt(message, reply)


def make_byzantine(logic: ServerLogic, behavior: ByzantineBehavior) -> ByzantineServer:
    """Wrap a server logic object with a Byzantine behaviour."""
    return ByzantineServer(logic, behavior)


class ByzantineInjector:
    """Tracks which servers are Byzantine, enforcing the ``t`` budget."""

    def __init__(self, server_ids: Sequence[str], max_faults: int) -> None:
        if max_faults < 0 or max_faults >= len(server_ids):
            raise ConfigurationError(
                f"t={max_faults} invalid for S={len(server_ids)}"
            )
        self.server_ids = list(server_ids)
        self.max_faults = max_faults
        self.behaviors: Dict[str, ByzantineBehavior] = {}

    def corrupt(self, server_id: str, behavior: ByzantineBehavior) -> None:
        """Mark a server as Byzantine with the given behaviour."""
        if server_id not in self.server_ids:
            raise ConfigurationError(f"unknown server {server_id}")
        planned = set(self.behaviors) | {server_id}
        if len(planned) > self.max_faults:
            raise ConfigurationError(
                f"corrupting {server_id} would exceed the fault budget t={self.max_faults}"
            )
        self.behaviors[server_id] = behavior

    def wrap(self, server_id: str, logic: ServerLogic) -> ServerLogic:
        """Wrap the logic of a server if it has been marked Byzantine."""
        behavior = self.behaviors.get(server_id)
        if behavior is None:
            return logic
        return make_byzantine(logic, behavior)

    @property
    def corrupted(self) -> Set[str]:
        return set(self.behaviors)
