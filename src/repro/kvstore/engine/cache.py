"""The proxy's hot-key read cache: bounded LRU of lease-backed entries.

This module is pure bookkeeping -- the lease *protocol* (what makes serving
a cached value atomic) lives in :class:`~repro.kvstore.engine.proxy.ProxyEngine`
and :class:`~repro.kvstore.engine.server.GroupServerEngine`; the structures
here only remember what the protocol has established:

* a :class:`CacheEntry` is one key's cached read -- the quorum replies of
  each round-trip of the fill read, the replicas that granted a lease for
  it, and the single-flight follower queue of reads that arrived while the
  fill was still in the air;
* a :class:`ReadCache` is the bounded LRU map of entries.

An entry is **servable** once a write-blocking set of replicas holds the
lease (``granted``: grants from at least ``wait_for`` of the replicas the fill
asked -- a quorum-first fill asks exactly that many); it
serves whichever rounds the fill recorded.  How many that is depends on the
fill's first quorum: unanimous, and every reader served it finishes after
round 1 like the fill did; split, and they ask for round 2 and are served
the fill's recorded write-back.  Any write that could supersede the cached
value must gather ``wait_for`` acks of its own, and every replica deferring
on our lease withholds its ack -- two quorums out of the same replica group
intersect, so no such write completes while the entry serves.  That is the
whole atomicity argument, and ``granted`` is its load-bearing check.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from ...messages import Message, ProxySubRequest
from .routing import ProxyRoute

__all__ = ["CacheEntry", "ReadCache", "payload_fingerprint"]


def payload_fingerprint(payload: Dict[str, Any]) -> str:
    """A canonical string for payload equality across dict orderings.

    Cached round-trips are matched on (kind, payload): a read's writeback
    payload derives deterministically from the round-1 replies, so a
    follower served the cached round 1 produces byte-for-byte the same
    round-2 payload as the fill did -- which is what makes serving the
    cached round 2 sound.  Round 1 of a read is an empty ``query``, so the
    empty payload skips building a JSON encoder.
    """
    if not payload:
        return "{}"
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass
class CacheEntry:
    """One key's cached read and the lease state backing it.

    ``fill_client``/``fill_op_id`` identify the read operation elected to
    fill the entry (its later round-trips are recognized by this identity
    and ride with the lease mark); ``fill_pending`` back-references the
    fill's in-flight round so an eviction can detach it (the round then
    completes as an ordinary leaseless read).  ``nonce`` is the entry's
    unique fill identity: it rides in the lease mark of every fill
    sub-request and is echoed by the grants of the replicas' batch-acks, so
    a delayed grant meant for an evicted predecessor entry of the same key
    is never credited to this one.  An entry serves only while it is
    ``granted``; at the proxy-side lease deadline it is evicted.
    """

    key: str
    route: Optional[ProxyRoute] = None
    wait_for: int = 0
    fill_client: str = ""
    fill_op_id: str = ""
    nonce: str = ""
    fill_pending: Optional[Any] = None
    #: The replicas sent a lease-marked sub of the fill: the only ones that
    #: can hold our lease, so the ones grants are taken from and releases go to.
    asked: Set[str] = field(default_factory=set)
    grants: Set[str] = field(default_factory=set)
    rounds: Dict[int, List[Message]] = field(default_factory=dict)
    round_payloads: Dict[int, Tuple[str, str]] = field(default_factory=dict)
    inflight: Set[int] = field(default_factory=set)
    followers: Dict[int, List[Tuple[str, ProxySubRequest]]] = field(
        default_factory=dict
    )

    @property
    def granted(self) -> bool:
        """Whether a write-blocking set of replicas holds our lease."""
        return self.wait_for > 0 and len(self.grants) >= self.wait_for

    def matches(self, round_trip: int, sub: ProxySubRequest) -> bool:
        """Whether ``sub`` is the same protocol round the fill recorded."""
        recorded = self.round_payloads.get(round_trip)
        return recorded == (sub.kind, payload_fingerprint(sub.payload))

    def replies_for(
        self, round_trip: int, wait_for: Optional[int]
    ) -> Optional[List[Message]]:
        """The cached quorum for one round, or None if it cannot satisfy
        the requested ack threshold."""
        recorded = self.rounds.get(round_trip)
        if recorded is None:
            return None
        needed = wait_for if wait_for is not None else self.wait_for
        if needed <= 0 or len(recorded) < needed:
            return None
        return recorded[:needed]


class ReadCache:
    """A bounded LRU map ``key -> CacheEntry``.

    Purely mechanical: insertion beyond capacity returns the evicted
    least-recently-used entry so the caller (the proxy engine) can run the
    protocol side of the eviction -- lease releases, follower re-dispatch,
    timer cancels.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Optional[CacheEntry]:
        """Look up an entry and mark it most-recently-used."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def peek(self, key: str) -> Optional[CacheEntry]:
        """Look up an entry without touching recency."""
        return self._entries.get(key)

    def pop(self, key: str) -> Optional[CacheEntry]:
        return self._entries.pop(key, None)

    def insert(self, key: str, entry: CacheEntry) -> Optional[CacheEntry]:
        """Add an entry; returns the LRU entry displaced by overflow."""
        self._entries[key] = entry
        self._entries.move_to_end(key)
        if len(self._entries) > self.capacity:
            _lru_key, lru_entry = self._entries.popitem(last=False)
            return lru_entry
        return None

    def entries(self) -> Iterator[CacheEntry]:
        return iter(list(self._entries.values()))

    def clear(self) -> None:
        self._entries.clear()
