"""An in-memory fabric for the sans-I/O engines, with the codec in the path.

Modelled on the test suite's ``MemoryFabric`` (promoting that class into
``src/`` is ROADMAP 3c, not this benchmark): ``SendFrame`` effects are
delivered after one unit of virtual time, timers fire off the same queue,
``Connect`` is acknowledged at once.  Unlike the test fabric every frame
passes through ``encode_message`` -> ``decode_message`` on its way, each in
its own span, so a pass yields the codec's cost at the workload's real frame
mix and a corpus of real frames for the microbenchmark.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.asyncio_net.codec import decode_message, encode_message
from repro.core.operations import OpKind
from repro.kvstore import ShardMap
from repro.kvstore.engine import (
    SIM_RETRY_POLICY,
    CachedShardView,
    CancelTimer,
    ClientSessionEngine,
    Connect,
    GroupServerEngine,
    OpCompleted,
    OpFailed,
    ProxyEngine,
    SendFrame,
    StartTimer,
)
from repro.kvstore.perkey import KVHistoryRecorder
from repro.kvstore.workload import KVWorkload
from repro.messages import Message
from repro.observe import (
    NULL_OBSERVER,
    TIMER_ARMED,
    TIMER_CANCELLED,
    TIMER_FIRED,
    EngineObserver,
    ObserverHub,
)

import spec
from tracing import Span

#: Frames kept for the codec microbenchmark (a round has a few thousand).
CORPUS_CAP = 4000
PROXY_ID = "p1"


class Fabric:
    """Delivers effects between registered engines on a virtual clock."""

    def __init__(self, spans: Optional[List[Span]] = None) -> None:
        self.now = 0.0
        self.spans = spans
        self.corpus: List[Tuple[Message, bytes]] = []
        self.frames: Counter = Counter()
        self.wire_bytes = 0
        self.callbacks: Dict[str, Callable[[Any], None]] = {}
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._engines: Dict[str, Any] = {}
        self._observers: Dict[str, EngineObserver] = {}
        self._timers: Dict[Tuple[str, Any], Dict[str, bool]] = {}

    def register(self, process_id: str, engine: Any, observer: EngineObserver) -> None:
        """``observer`` receives the timer lifecycle events an adapter emits."""
        self._engines[process_id] = engine
        self._observers[process_id] = observer

    def _push(self, delay: float, action: Callable[[], None]) -> None:
        heapq.heappush(self._heap, (self.now + delay, next(self._seq), action))

    def execute(self, owner_id: str, effects) -> None:
        for effect in effects:
            if isinstance(effect, SendFrame):
                self._push(1.0, lambda eff=effect: self._deliver(eff))
            elif isinstance(effect, StartTimer):
                key = (owner_id, effect.timer_id)
                observer = self._observers[owner_id]
                stale = self._timers.get(key)
                if stale is not None:
                    stale["cancelled"] = True
                    observer.emit(TIMER_CANCELLED, timer=effect.timer_id[0], reason="rearm")
                entry = {"cancelled": False}
                self._timers[key] = entry
                observer.emit(TIMER_ARMED, timer=effect.timer_id[0])
                self._push(effect.delay, lambda k=key, e=entry: self._fire(k, e))
            elif isinstance(effect, CancelTimer):
                entry = self._timers.pop((owner_id, effect.timer_id), None)
                if entry is not None:
                    entry["cancelled"] = True
                    self._observers[owner_id].emit(
                        TIMER_CANCELLED, timer=effect.timer_id[0], reason="cancel"
                    )
            elif isinstance(effect, Connect):
                self.execute(owner_id, self._engines[owner_id].on_connected(effect.target))
            elif isinstance(effect, OpCompleted):
                callback = self.callbacks.pop(effect.op_id, None)
                if callback is not None:
                    callback(effect.outcome)
            elif isinstance(effect, OpFailed):
                self.callbacks.pop(effect.op_id, None)  # never completes: counted as failed
            else:
                raise TypeError(f"unknown effect {effect!r}")

    def _fire(self, key: Tuple[str, Any], entry: Dict[str, bool]) -> None:
        if entry["cancelled"]:
            return
        self._timers.pop(key, None)
        owner, timer_id = key
        self._observers[owner].emit(TIMER_FIRED, timer=timer_id[0])
        self.execute(owner, self._engines[owner].on_timer(timer_id))

    def _deliver(self, effect: SendFrame) -> None:
        engine = self._engines.get(effect.destination)
        if engine is None:
            return  # e.g. acks to the control plane
        start = perf_counter()
        data = encode_message(effect.frame)
        middle = perf_counter()
        frame = decode_message(data[4:])
        end = perf_counter()
        kind = frame.kind
        if self.spans is not None:
            self.spans.append(Span(f"encode:{kind}", "codec", start, middle, None, frame.op_id))
            self.spans.append(Span(f"decode:{kind}", "codec", middle, end, None, frame.op_id))
        self.frames[kind] += 1
        self.wire_bytes += len(data)
        if len(self.corpus) < CORPUS_CAP:
            self.corpus.append((effect.frame, data))
        self.execute(effect.destination, engine.on_frame(frame))

    def run(self) -> None:
        while self._heap:
            self.now, _, action = heapq.heappop(self._heap)
            action()


def build(
    workload: spec.Workload,
    hub: Optional[ObserverHub],
    spans: Optional[List[Span]] = None,
    wrap: Callable[[EngineObserver], EngineObserver] = lambda observer: observer,
) -> Tuple[Fabric, Dict[str, ClientSessionEngine], KVHistoryRecorder]:
    """The workload's clients, proxy and replicas wired through a fabric.

    ``hub`` attaches a scoped observer to every engine, as the real
    adapters do; ``None`` leaves them on ``NULL_OBSERVER``.  ``wrap`` lets
    the caller put a shim around each engine's observer (to time it).
    """
    fabric = Fabric(spans)
    if hub is not None:
        hub.clock = lambda: fabric.now

    def observer(tier: str, component: str):
        return wrap(hub.scoped(tier, component) if hub is not None else NULL_OBSERVER)

    shard_map = ShardMap(
        spec.NUM_SHARDS, protocol_key=spec.PROTOCOL, num_groups=spec.NUM_GROUPS,
        readers=workload.clients, writers=workload.clients,
    )
    recorder = KVHistoryRecorder(lambda: fabric.now)
    for group in shard_map.groups.values():
        hosted = {s.shard_id: s.epoch for s in shard_map.shards_on(group.group_id)}
        for server_id in group.servers:
            scoped = observer("replica", server_id)
            fabric.register(server_id, GroupServerEngine(
                server_id, group.protocol, dict(hosted),
                observer=scoped, lease_ttl=spec.SIM_LEASE_TTL,
            ), scoped)
    if workload.use_proxy:
        scoped = observer("proxy", PROXY_ID)
        fabric.register(PROXY_ID, ProxyEngine(
            PROXY_ID, CachedShardView(shard_map), policy=SIM_RETRY_POLICY,
            observer=scoped, read_cache=workload.read_cache, lease_ttl=spec.SIM_LEASE_TTL,
            read_round_trips=max(g.protocol.read_round_trips for g in shard_map.groups.values()),
        ), scoped)
    clients: Dict[str, ClientSessionEngine] = {}
    for index in range(1, workload.clients + 1):
        client_id = f"c{index}"
        scoped = observer("client", client_id)
        client = ClientSessionEngine(
            client_id, shard_map, recorder, policy=SIM_RETRY_POLICY,
            max_batch=spec.MAX_BATCH,
            proxy_candidates=[PROXY_ID] if workload.use_proxy else [],
            observer=scoped,
        )
        fabric.register(client_id, client, scoped)
        if workload.use_proxy:
            fabric.execute(client_id, client.on_connected(PROXY_ID))
        clients[client_id] = client
    return fabric, clients, recorder


def drive(
    fabric: Fabric, clients: Dict[str, ClientSessionEngine], ops: KVWorkload, namespace: str
) -> int:
    """Issue ``ops`` closed-loop, ``pipeline_depth`` per client; returns completions."""
    completed = 0

    def start_chain(client_id: str, queue: List) -> None:
        def issue_next(_outcome=None) -> None:
            nonlocal completed
            if _outcome is not None:
                completed += 1
            if not queue:
                return
            op = queue.pop()
            kind = OpKind.WRITE if op.kind == "put" else OpKind.READ
            op_id, effects = clients[client_id].invoke(kind, namespace + op.key, op.value)
            fabric.callbacks[op_id] = issue_next
            fabric.execute(client_id, effects)

        for _ in range(ops.pipeline_depth):
            issue_next()

    for client_id in ops.clients:
        start_chain(client_id, list(reversed(ops.sequences[client_id])))
    fabric.run()
    return completed
