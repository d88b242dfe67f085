"""Tests for the sans-I/O kvstore engine: equivalence, deltas, import ban.

Four concerns, each guarding the engine extraction a different way:

* **Cross-backend equivalence** -- the same scripted operation sequence is
  driven through the in-memory engine fabric
  (:class:`repro.kvstore.engine.fabric.Fabric`), the simulator adapter, and
  the asyncio adapter, and the *engines'* emitted effect sequences (normalized
  to sends and completions) must be identical.  Any future drift between
  the backends' protocol behaviour fails here by construction, because the
  trace is recorded at the engine boundary both adapters share.
* **Delta view pushes** -- a rebalance pushes O(moved) route entries, not
  O(shards); deltas adopt monotonically out of order; and a dropped delta
  degrades cleanly to the epoch-fence bounce.
* **Import ban** -- ``repro.kvstore.engine`` must import neither
  ``asyncio`` nor ``repro.sim``: the engines are transport-free, and this
  test keeps them that way.
* **One interpreter** -- only ``engine/runtime.py`` dispatches on the timer
  effects; an adapter that grows its own loop fails an AST scan.  Likewise
  only ``engine/rounds.py`` runs replica rounds.
"""

from __future__ import annotations

import ast
import itertools
import os
import subprocess
import sys
from pathlib import Path


from repro.kvstore import (
    KVOp,
    KVRunConfig,
    KVWorkload,
    ShardMap,
    SimKVCluster,
    check_per_key_atomicity,
    generate_workload,
    run,
)
from repro.kvstore.engine import (
    CONTROL_PLANE,
    ClientSessionEngine,
    ControlPlaneEngine,
    GroupServerEngine,
    OpCompleted,
    OpFailed,
    ProxyEngine,
    SIM_RETRY_POLICY,
    SendFrame,
    CachedShardView,
    view_push_frames,
)
from repro.kvstore.perkey import KVHistoryRecorder
from repro.core.operations import OpKind
from repro.kvstore.engine.fabric import Fabric
from repro.observe import MetricsObserver, ObserverHub

import repro.kvstore.engine as engine_package


# -- the in-memory stack ----------------------------------------------------------


def build_memory_stack(num_shards=1, num_groups=1, use_proxy=False, hub=None,
                       read_cache=0, lease_ttl=1000.0, num_clients=1):
    """A full client/proxy/servers stack wired through a :class:`Fabric`.

    ``hub`` optionally attaches an :class:`~repro.observe.ObserverHub`: every
    engine gets a scoped observer, on which its runtime emits the timer
    lifecycle events, as on the real adapters.  ``read_cache`` arms the proxy's
    lease-backed read cache (the default ``lease_ttl`` of 1000 fabric units
    keeps expiry out of short scripts; shrink it to exercise the timers).
    ``num_clients`` > 1 registers extra clients ``c2..cN`` sharing the proxy.
    """
    shard_map = ShardMap(num_shards, num_groups=num_groups,
                         readers=num_clients, writers=num_clients)
    fabric = Fabric()
    if hub is not None:
        hub.clock = lambda: fabric.now

    def scoped(tier, component):
        return hub.scoped(tier, component) if hub is not None else None

    ticks = itertools.count()
    recorder = KVHistoryRecorder(lambda: float(next(ticks)))
    for group in shard_map.groups.values():
        hosted = {
            spec.shard_id: spec.epoch for spec in shard_map.shards_on(group.group_id)
        }
        for server_id in group.servers:
            fabric.register(
                server_id,
                GroupServerEngine(server_id, group.protocol, dict(hosted),
                                  observer=scoped("replica", server_id),
                                  lease_ttl=lease_ttl),
            )
    proxy = None
    if use_proxy:
        proxy = ProxyEngine(
            "p1", CachedShardView(shard_map), policy=SIM_RETRY_POLICY,
            observer=scoped("proxy", "p1"),
            read_cache=read_cache, lease_ttl=lease_ttl,
        )
        fabric.register("p1", proxy)
    for extra in range(2, num_clients + 1):
        extra_id = f"c{extra}"
        extra_client = ClientSessionEngine(
            extra_id, shard_map, recorder, policy=SIM_RETRY_POLICY,
            proxy_candidates=["p1"] if use_proxy else [],
            observer=scoped("client", extra_id),
        )
        fabric.register(extra_id, extra_client)
        if use_proxy:
            fabric.execute(extra_id, extra_client.on_connected("p1"))
    client = ClientSessionEngine(
        "c1",
        shard_map,
        recorder,
        policy=SIM_RETRY_POLICY,
        proxy_candidates=["p1"] if use_proxy else [],
        observer=scoped("client", "c1"),
    )
    fabric.register("c1", client)
    if use_proxy:
        fabric.execute("c1", client.on_connected("p1"))
    return shard_map, fabric, client, proxy, recorder


def run_script(fabric, client, script, on_all_done=None):
    """Issue ``(kind, key, value)`` ops closed-loop through the fabric.

    ``on_all_done`` fires at the final operation's completion -- *before*
    the fabric drains trailing timers -- so callers can snapshot state at
    the moment the script (not the run) ends.
    """
    remaining = list(script)
    outcomes = []

    def issue_next(_outcome=None) -> None:
        if _outcome is not None:
            outcomes.append(_outcome)
        if not remaining:
            if len(outcomes) == len(script) and on_all_done is not None:
                on_all_done()
            return
        kind, key, value = remaining.pop(0)
        op_id, effects = client.invoke(kind, key, value)
        fabric.callbacks[op_id] = issue_next
        fabric.execute("c1", effects)

    issue_next()
    fabric.run()
    return outcomes


SCRIPT = [
    (OpKind.WRITE, "alpha", "v1"),
    (OpKind.WRITE, "beta", "v2"),
    (OpKind.READ, "alpha", None),
    (OpKind.READ, "beta", None),
    (OpKind.WRITE, "alpha", "v3"),
    (OpKind.READ, "alpha", None),
]

#: The cached-read variant: repeat reads (the second of each pair is a cache
#: hit behind a read-cache proxy) interleaved with writes that invalidate.
CACHED_SCRIPT = [
    (OpKind.WRITE, "alpha", "v1"),
    (OpKind.READ, "alpha", None),
    (OpKind.READ, "alpha", None),
    (OpKind.WRITE, "alpha", "v2"),
    (OpKind.READ, "alpha", None),
    (OpKind.READ, "alpha", None),
    (OpKind.WRITE, "beta", "v3"),
    (OpKind.READ, "beta", None),
    (OpKind.READ, "beta", None),
    (OpKind.READ, "alpha", None),
]


# -- effect tracing at the engine boundary --------------------------------------

_TAPPED = (
    "invoke",
    "on_frame",
    "on_timer",
    "on_connected",
    "on_connect_failed",
    "on_peer_lost",
    "on_frame_undeliverable",
)


def normalize(effect):
    """The transport-independent shadow of one effect (None = ignore).

    Timer effects are dropped: their *ids* are shared, but which timers a
    deployment arms is timing configuration (the simulator runs a failover
    watchdog, asyncio does not), not protocol behaviour.
    """
    if isinstance(effect, SendFrame):
        return ("send", effect.destination, effect.frame.kind)
    if isinstance(effect, OpCompleted):
        return ("done", effect.key, effect.outcome.value)
    if isinstance(effect, OpFailed):
        return ("fail", effect.key)
    return None


def tap(engine, trace):
    """Record every effect ``engine`` emits, at the engine boundary."""
    for name in _TAPPED:
        original = getattr(engine, name, None)
        if original is None:
            continue  # not every engine has the full client surface

        def wrapper(*args, _original=original, **kwargs):
            result = _original(*args, **kwargs)
            effects = result[1] if isinstance(result, tuple) else result
            for effect in effects:
                shadow = normalize(effect)
                if shadow is not None:
                    trace.append(shadow)
            return result

        setattr(engine, name, wrapper)


def memory_trace(use_proxy=False, hub=None, script=SCRIPT, read_cache=0):
    _, fabric, client, proxy, recorder = build_memory_stack(
        use_proxy=use_proxy, hub=hub, read_cache=read_cache
    )
    client_trace, proxy_trace = [], []
    tap(client, client_trace)
    if proxy is not None:
        tap(proxy, proxy_trace)
    # Snapshot the traces at the last completion: trailing lease timers
    # firing at virtual-clock quiescence are run-length artifacts (the
    # wall-clock backend cancels them at shutdown instead), not script
    # behaviour.
    cut = {}
    run_script(fabric, client, script,
               on_all_done=lambda: cut.update(
                   client=len(client_trace), proxy=len(proxy_trace)))
    verdict = check_per_key_atomicity(recorder.histories())
    assert verdict.all_atomic, verdict.summary()
    return (client_trace[: cut.get("client")],
            proxy_trace[: cut.get("proxy")])


def _trace_config(backend, use_proxy, read_cache):
    """The trace clusters' config: a lease of 1000 units/seconds where there
    is a cache, as in the memory stack; with none, nothing holds a lease and
    each backend keeps its default."""
    return KVRunConfig(
        backend=backend, proxies=1 if use_proxy else 0, read_cache=read_cache,
        lease_ttl=1000.0 if read_cache else None,
    )


def sim_trace(use_proxy=False, script=SCRIPT, read_cache=0):
    shard_map = ShardMap(1, num_groups=1, readers=1, writers=1)
    cluster = SimKVCluster(shard_map, ["c1"], _trace_config("sim", use_proxy, read_cache))
    client_trace, proxy_trace = [], []
    tap(cluster.clients["c1"].engine, client_trace)
    if use_proxy:
        tap(cluster.proxies["p1"].engine, proxy_trace)
    remaining = list(script)
    cut = {}

    def issue_next(_outcome=None) -> None:
        if not remaining:
            # Same snapshot as the memory harness: the script is over; what
            # the virtual clock drains afterwards is not its behaviour.
            cut.setdefault("client", len(client_trace))
            cut.setdefault("proxy", len(proxy_trace))
            return
        kind, key, value = remaining.pop(0)
        if kind is OpKind.WRITE:
            cluster.clients["c1"].put(key, value, on_complete=issue_next)
        else:
            cluster.clients["c1"].get(key, on_complete=issue_next)

    cluster.events.schedule(0.0, issue_next, label="script")
    cluster.run()
    verdict = check_per_key_atomicity(cluster.recorder.histories())
    assert verdict.all_atomic, verdict.summary()
    return (client_trace[: cut.get("client")],
            proxy_trace[: cut.get("proxy")])


def asyncio_trace(use_proxy=False, script=SCRIPT, read_cache=0):
    import asyncio

    from repro.kvstore import AsyncKVCluster, KVStore

    async def scenario():
        shard_map = ShardMap(1, num_groups=1, readers=1, writers=1)
        cluster = AsyncKVCluster(
            shard_map, _trace_config("asyncio", use_proxy, read_cache)
        )
        await cluster.start()
        if use_proxy:
            await cluster.start_proxies(1)
        store = KVStore(cluster, client_id="c1", use_proxy="p1" if use_proxy else None)
        await store.connect()
        client_trace, proxy_trace = [], []
        tap(store.engine, client_trace)
        # A standalone session is fed its link's frames and timers itself;
        # here the adapter feeds the process's shared link, so the client's
        # effect stream is the two taken together.
        tap(store.engine.link, client_trace)
        if use_proxy:
            tap(cluster.proxies["p1"].engine, proxy_trace)
        try:
            for kind, key, value in script:
                if kind is OpKind.WRITE:
                    await store.put(key, value)
                else:
                    await store.get(key)
            verdict = store.check()
            assert verdict.all_atomic, verdict.summary()
        finally:
            await store.close()
            await cluster.stop()
        # The proxy answers the connection a round came in on: the link that
        # carries c1's rounds, where a standalone session is its own sender.
        link_id = store.engine.link.link_id
        proxy_trace = [
            (kind, "c1", frame) if kind == "send" and dest == link_id
            else (kind, dest, frame)
            for kind, dest, frame in proxy_trace
        ]
        return client_trace, proxy_trace

    return asyncio.run(scenario())


def round_trips_by_kind(histories):
    """``{kind: [round_trips, ...]}`` over every key's recorded history."""
    recorded = {OpKind.WRITE: [], OpKind.READ: []}
    for history in histories.values():
        writes, reads = history.round_trip_counts()
        recorded[OpKind.WRITE] += writes
        recorded[OpKind.READ] += reads
    return recorded


def script_workload(script):
    """``script`` as a one-client, strictly sequential runner workload."""
    ops = [
        KVOp("put", key, value) if kind is OpKind.WRITE else KVOp("get", key)
        for kind, key, value in script
    ]
    return KVWorkload({"c1": ops}, pipeline_depth=1)


def memory_round_trips(script=SCRIPT):
    _, fabric, client, _, recorder = build_memory_stack()
    run_script(fabric, client, script)
    return round_trips_by_kind(recorder.histories())


def sim_round_trips(script=SCRIPT):
    result = run(KVRunConfig(num_shards=1, num_groups=1), script_workload(script))
    assert result.check().all_atomic
    return round_trips_by_kind(result.histories)


def asyncio_round_trips(script=SCRIPT):
    result = run(
        KVRunConfig(backend="asyncio", num_shards=1, num_groups=1), script_workload(script)
    )
    assert result.check().all_atomic
    return round_trips_by_kind(result.histories)


class TestCrossBackendEquivalence:
    """Both adapters must produce the engine effect stream the pure harness
    does -- the no-drift-by-construction property of the extraction."""

    def test_memory_harness_is_deterministic(self):
        first = memory_trace()
        second = memory_trace()
        assert first == second
        assert first[0]  # the trace is not trivially empty

    def test_direct_effect_sequences_are_identical(self):
        memory, _ = memory_trace(use_proxy=False)
        sim, _ = sim_trace(use_proxy=False)
        net, _ = asyncio_trace(use_proxy=False)
        assert memory == sim == net
        # Sanity: the script really produced replica sends and completions --
        # a query round asks a quorum (2 of 3), an update round everyone; a
        # write is one of each, and a read of this sequential script finds
        # its quorum unanimous, so one query.
        writes = sum(1 for kind, *_ in SCRIPT if kind is OpKind.WRITE)
        reads = len(SCRIPT) - writes
        assert sum(1 for kind, *_ in memory if kind == "send") == (
            (2 + 3) * writes + 2 * reads
        )
        assert sum(1 for kind, *_ in memory if kind == "done") == len(SCRIPT)

    def test_sequential_reads_take_one_round_trip_on_every_backend(self):
        # The recorded histories agree with the frame count above: with no
        # write in flight every read ends after its query round, every write
        # takes both of its rounds, on all three adapters.
        for recorded in (
            memory_round_trips(), sim_round_trips(), asyncio_round_trips()
        ):
            assert recorded == {
                OpKind.WRITE: [2] * 3, OpKind.READ: [1] * 3,
            }, recorded

    def test_proxied_effect_sequences_are_identical(self):
        memory_client, memory_proxy = memory_trace(use_proxy=True)
        sim_client, sim_proxy = sim_trace(use_proxy=True)
        net_client, net_proxy = asyncio_trace(use_proxy=True)
        assert memory_client == sim_client == net_client
        assert memory_proxy == sim_proxy == net_proxy
        # Every client send goes to the proxy; the proxy fans out to replicas.
        assert all(dest == "p1" for kind, dest, _ in memory_client if kind == "send")
        assert any(dest.startswith("g1-") for kind, dest, _ in memory_proxy
                   if kind == "send")

    def test_cached_read_effect_sequences_are_identical(self):
        # The lease-backed read cache changes what the proxy sends (grant
        # releases, fewer replica rounds) -- but it must change it the SAME
        # way on every backend.  Lease ttl is 1000 units/seconds in all
        # three stacks, so no expiry timer fires mid-script and the traces
        # are timer-free protocol behaviour only.
        memory_client, memory_proxy = memory_trace(
            use_proxy=True, script=CACHED_SCRIPT, read_cache=8
        )
        sim_client, sim_proxy = sim_trace(
            use_proxy=True, script=CACHED_SCRIPT, read_cache=8
        )
        net_client, net_proxy = asyncio_trace(
            use_proxy=True, script=CACHED_SCRIPT, read_cache=8
        )
        assert memory_client == sim_client == net_client
        assert memory_proxy == sim_proxy == net_proxy
        # The cache really served repeat reads: the proxy sent fewer read
        # sub-rounds than the uncached run of the same script needs.
        uncached_client, uncached_proxy = memory_trace(
            use_proxy=True, script=CACHED_SCRIPT, read_cache=0
        )
        def replica_sends(trace):
            return sum(1 for kind, dest, _ in trace
                       if kind == "send" and dest.startswith("g1-"))
        assert replica_sends(memory_proxy) < replica_sends(uncached_proxy)
        # And every operation still completed through the client.
        assert sum(1 for kind, *_ in memory_client if kind == "done") == \
            len(CACHED_SCRIPT)

    def test_memory_stack_survives_a_live_resize_with_delta_push(self):
        shard_map, fabric, client, proxy, recorder = build_memory_stack(
            num_shards=4, num_groups=2, use_proxy=True
        )
        run_script(fabric, client, [(OpKind.WRITE, f"k{i}", f"v{i}") for i in range(8)])
        # Live rebalance: the control engine drives the frame-based drain and
        # the delta push through the fabric -- the identical frame/effect
        # sequence both cluster backends execute.  The retry delay must sit
        # above the fabric's 2.0-unit round trip or resends declare live
        # replicas dead.
        control = ControlPlaneEngine(shard_map, proxy_ids=["p1"], retry_delay=10.0)
        fabric.register(CONTROL_PLANE, control)
        report, effects = control.start_resize(8)
        fabric.execute(CONTROL_PLANE, effects)
        fabric.run()
        assert report.done
        assert control.drains_completed == 1
        run_script(fabric, client, [(OpKind.READ, f"k{i}", None) for i in range(8)])
        verdict = check_per_key_atomicity(recorder.histories())
        assert verdict.all_atomic, verdict.summary()
        assert proxy.view.deltas_applied == 1
        assert proxy.stale_replays == 0  # the push made the resize bounce-free


class TestFrameAccounting:
    def test_undeliverable_frames_are_uncounted(self):
        # "Every frame on the wire is counted exactly once": a frame the
        # transport could not deliver never hit the wire, so reporting it
        # undeliverable must uncount it -- the replayed attempt counts its
        # own frames, keeping totals honest across kill/reconnect windows.
        shard_map = ShardMap(1, num_groups=1, readers=1, writers=1)
        ticks = itertools.count()
        recorder = KVHistoryRecorder(lambda: float(next(ticks)))
        client = ClientSessionEngine("c1", shard_map, recorder,
                                     policy=SIM_RETRY_POLICY)
        _, effects = client.invoke(OpKind.WRITE, "k", "v")
        effects += client.on_timer(("flush", "g1"))
        sends = [e for e in effects if isinstance(e, SendFrame)]
        assert len(sends) == 2  # the query round: one batch frame per replica asked
        assert client.stats.frames_sent == 2
        before_rounds = client.stats.rounds
        widening = client.on_frame_undeliverable(
            sends[0].frame, ConnectionResetError("down"), retryable=True
        )
        # One frame uncounted, and the one that asks the third replica counted.
        assert [e.destination for e in widening] == ["g1-s3"]
        assert client.stats.frames_sent == 2
        client.on_frame_undeliverable(
            widening[0].frame, ConnectionResetError("down"), retryable=True
        )
        assert client.stats.frames_sent == 1
        assert client.stats.rounds == before_rounds  # coalescing stats intact


# -- the observer seam ----------------------------------------------------------


def _timer_counters(snapshot, tier):
    counters = snapshot[tier]["counters"]
    return (counters["timers_armed"], counters["timers_fired"],
            counters["timers_cancelled"])


def _assert_timer_lifecycle(snapshot, tiers=("client", "proxy", "replica", "control")):
    """Every armed timer is accounted exactly once: fired or cancelled."""
    for tier in tiers:
        if tier not in snapshot:
            continue
        # A tier that never armed a timer has no timer counters at all (the
        # replica tier's are not seeded).
        counters = snapshot[tier]["counters"]
        armed, fired, cancelled = (
            counters.get(name, 0)
            for name in ("timers_armed", "timers_fired", "timers_cancelled")
        )
        assert armed == fired + cancelled, (
            f"{tier}: {armed} armed != {fired} fired + {cancelled} cancelled"
        )


def _assert_every_tier_arms_and_balances(result):
    """A proxied, cached, resized run exercises timers on all four tiers --
    client flushes, proxy merge windows, replica leases, control-plane drain
    retries -- and each tier's adapter must account for every one of them."""
    assert result.check().all_atomic
    assert set(result.metrics) >= {"client", "proxy", "replica", "control"}
    _assert_timer_lifecycle(result.metrics)
    for tier in ("replica", "control"):
        assert result.metrics[tier]["counters"].get("timers_armed", 0) > 0, tier


class TestObserverSeam:
    """Observation is a side channel: attaching observers must not change a
    single engine effect, and every armed timer must resolve exactly once."""

    def test_observer_does_not_perturb_direct_effects(self):
        plain = memory_trace(use_proxy=False)
        hub = ObserverHub()
        hub.add_sink(MetricsObserver())
        observed = memory_trace(use_proxy=False, hub=hub)
        assert plain == observed

    def test_observer_does_not_perturb_proxied_effects(self):
        plain = memory_trace(use_proxy=True)
        hub = ObserverHub()
        hub.add_sink(MetricsObserver())
        observed = memory_trace(use_proxy=True, hub=hub)
        assert plain == observed

    def test_memory_timer_lifecycle_direct(self):
        hub = ObserverHub()
        metrics = hub.add_sink(MetricsObserver())
        memory_trace(use_proxy=False, hub=hub)
        snapshot = metrics.registry.snapshot()
        armed, _, _ = _timer_counters(snapshot, "client")
        assert armed > 0  # flush timers at least
        _assert_timer_lifecycle(snapshot)

    def test_memory_timer_lifecycle_proxied_includes_watchdog(self):
        hub = ObserverHub()
        metrics = hub.add_sink(MetricsObserver())
        memory_trace(use_proxy=True, hub=hub)
        snapshot = metrics.registry.snapshot()
        # The sim retry policy arms the proxy-failover watchdog on every
        # proxied dispatch; a healthy proxy means it must be *cancelled*,
        # never leaked.
        _, _, cancelled = _timer_counters(snapshot, "client")
        assert cancelled > 0
        _assert_timer_lifecycle(snapshot)

    def test_sim_timer_lifecycle_proxied_resize(self):
        workload = generate_workload(num_clients=2, ops_per_client=12,
                                     num_keys=12, seed=3)
        result = run(KVRunConfig(
            num_shards=4, num_groups=2, proxies=2,
            resize_to=6,
        ), workload)
        assert result.check().all_atomic
        assert result.metrics is not None
        _assert_timer_lifecycle(result.metrics)

    def test_asyncio_timer_lifecycle_proxied(self):
        workload = generate_workload(num_clients=2, ops_per_client=8,
                                     num_keys=8, seed=3)
        result = run(KVRunConfig(backend="asyncio", num_shards=2, proxies=1), workload)
        assert result.check().all_atomic
        assert result.metrics is not None
        # Round timeouts armed by the asyncio policy resolve through the
        # cancel path; watchdogs stranded at close resolve through shutdown.
        _assert_timer_lifecycle(result.metrics)

    def test_sim_timer_lifecycle_on_all_four_tiers(self):
        workload = generate_workload(num_clients=2, ops_per_client=12,
                                     num_keys=12, seed=3)
        _assert_every_tier_arms_and_balances(run(KVRunConfig(
            num_shards=4, num_groups=2, proxies=1,
            read_cache=8, resize_to=6,
        ), workload))

    def test_asyncio_timer_lifecycle_on_all_four_tiers(self):
        # Lease timers and drain retries still armed at teardown resolve
        # through ReplicaServer.stop() / the control driver's shutdown().
        workload = generate_workload(num_clients=2, ops_per_client=12,
                                     num_keys=12, seed=3)
        _assert_every_tier_arms_and_balances(run(KVRunConfig(
            backend="asyncio", num_shards=4, num_groups=2, proxies=1,
            read_cache=8, resize_to=6,
        ), workload))


# -- delta view pushes ----------------------------------------------------------


class TestDeltaViewPush:
    def test_resize_delta_is_o_moved_not_o_shards(self):
        # 1024 shards on 4 groups; adding 2 shards must push only the added
        # shards plus the donors their ring arcs fence -- a handful of
        # entries, where the full snapshot carries all 1026.
        shard_map = ShardMap(1024, num_groups=4, virtual_nodes=8,
                             readers=1, writers=1)
        plan = shard_map.resize(1026)
        delta = shard_map.view_delta(plan)
        assert delta is not None and delta["delta"] is True
        full = shard_map.view_snapshot()
        assert len(full["routes"]) == 1026
        assert set(delta["added"]) == {spec.shard_id for spec in plan.added}
        # Each added shard has 8 virtual nodes, each fencing at most one
        # donor: the delta is bounded by moved work, not by shard count.
        assert len(delta["routes"]) <= 2 + 2 * 8
        assert len(delta["routes"]) < len(full["routes"]) / 50

    def test_delta_applies_like_the_full_snapshot(self):
        shard_map = ShardMap(4, num_groups=2)
        by_delta = CachedShardView(shard_map)
        by_refresh = CachedShardView(shard_map)
        plan = shard_map.resize(7)
        assert by_delta.apply_push(shard_map.view_delta(plan)) is True
        by_refresh.refresh()
        for key in ("a", "b", "user:7", "zz", "hot"):
            assert by_delta.resolve(key) == by_refresh.resolve(key)
        assert by_delta.ring_epoch == shard_map.ring_epoch
        assert by_delta.deltas_applied == 1

    def test_move_delta_carries_one_route(self):
        shard_map = ShardMap(4, num_groups=2)
        view = CachedShardView(shard_map)
        plan = shard_map.move_shard("sh1", "g2")
        delta = shard_map.view_delta(plan)
        assert list(delta["routes"]) == ["sh1"]
        assert view.apply_push(delta) is True
        assert view._routes["sh1"].group_id == "g2"
        assert view._routes["sh1"].epoch == shard_map.shards["sh1"].epoch

    def test_out_of_order_deltas_adopt_monotonically(self):
        shard_map = ShardMap(2, num_groups=2)
        view = CachedShardView(shard_map)
        delta1 = shard_map.view_delta(shard_map.resize(4))      # ring 1 -> 2
        delta2 = shard_map.view_delta(shard_map.move_shard("sh1", "g2"))  # ring 2
        # Reordered: the move delta's base (ring 2) was never adopted.
        assert view.apply_push(delta2) is False
        assert view.deltas_skipped == 1
        assert view.ring_epoch == 1  # nothing rolled forward half-applied
        assert view.apply_push(delta1) is True
        assert view.apply_push(delta2) is True
        assert view._routes["sh1"].epoch == shard_map.shards["sh1"].epoch
        # Replaying either delta is harmless: the view never rolls back.
        assert view.apply_push(delta1) is False
        assert view._routes["sh1"].epoch == shard_map.shards["sh1"].epoch

    def test_resize_noop_produces_no_push_frames(self):
        shard_map = ShardMap(4, num_groups=2)
        plan = shard_map.resize(4)
        assert shard_map.view_delta(plan) is None
        assert view_push_frames(shard_map, ["p1", "p2"], plan=plan) == []

    def test_dropped_delta_falls_back_to_the_epoch_fence_bounce(self):
        # Phase 1 runs, then a resize whose push is suppressed (the dropped
        # delta), then a resize whose push goes out: the second delta's base
        # is unknown to the proxies, so they skip it and discover both
        # rebalances the hard way -- stale bounces, replay, still atomic.
        shard_map = ShardMap(4, num_groups=2, readers=2, writers=2)
        cluster = SimKVCluster(shard_map, ["c1", "c2"], KVRunConfig(proxies=2))
        client = cluster.clients["c1"]
        for i in range(8):
            client.put(f"k{i}", f"v{i}")
        cluster.run()
        cluster.push_views = False
        cluster.resize(6)          # this delta is never pushed
        cluster.push_views = True
        cluster.resize(9)          # pushed, but its base is missing
        cluster.run()
        for proxy in cluster.proxies.values():
            assert proxy.view.deltas_skipped >= 1
            assert proxy.view.deltas_applied == 0
        seen = {}
        for i in range(8):
            client.get(f"k{i}",
                       on_complete=lambda o, i=i: seen.__setitem__(i, o.value))
        cluster.run()
        assert seen == {i: f"v{i}" for i in range(8)}
        # The fence caught the staleness: at least one bounce-and-replay.
        assert cluster.stale_replays() >= 1
        verdict = check_per_key_atomicity(cluster.recorder.histories())
        assert verdict.all_atomic, verdict.summary()

    def test_full_workload_with_delta_pushes_stays_atomic_on_both_backends(self):
        workload = generate_workload(num_clients=3, ops_per_client=12,
                                     num_keys=16, seed=17, pipeline_depth=4)
        result = run(KVRunConfig(
            num_shards=4, num_groups=2,
            proxies=2, resize_to=8,
        ), workload)
        assert result.completed_ops == workload.total_operations()
        assert result.view_pushes == 2
        assert result.check().all_atomic
        net = run(KVRunConfig(
            backend="asyncio", num_shards=4, num_groups=2,
            proxies=2, resize_to=8,
        ), workload)
        assert net.completed_ops == workload.total_operations()
        assert net.check().all_atomic


# -- the import ban -------------------------------------------------------------


class TestEngineImportBan:
    """``repro.kvstore.engine`` must stay free of asyncio and repro.sim."""

    ENGINE_DIR = Path(engine_package.__file__).resolve().parent

    def _imports_of(self, path: Path):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        package_parts = ("repro", "kvstore", "engine")
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield alias.name
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0:
                    yield node.module or ""
                else:
                    # Resolve the relative import against the engine package.
                    base = package_parts[: len(package_parts) - (node.level - 1)]
                    module = node.module or ""
                    yield ".".join(filter(None, [".".join(base), module]))

    def test_static_no_asyncio_or_sim_imports(self):
        checked = set()
        for path in sorted(self.ENGINE_DIR.glob("*.py")):
            for module in self._imports_of(path):
                assert module != "asyncio" and not module.startswith("asyncio."), (
                    f"{path.name} imports asyncio"
                )
                assert not module.startswith("repro.sim"), (
                    f"{path.name} imports {module}"
                )
            checked.add(path.name)
        # The whole package was scanned, the cluster assembly included.
        assert len(checked) >= 6 and "assembly.py" in checked

    def test_runtime_import_pulls_in_neither_transport(self):
        src = Path(engine_package.__file__).resolve().parents[3]
        code = (
            "import sys\n"
            "import repro.kvstore.engine\n"
            "import repro.kvstore.engine.fabric\n"
            "bad = [m for m in sys.modules\n"
            "       if m == 'asyncio' or m.startswith('asyncio.')\n"
            "       or m == 'repro.sim' or m.startswith('repro.sim.')]\n"
            "assert not bad, bad\n"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        subprocess.run(
            [sys.executable, "-c", code], check=True, env=env, timeout=60
        )


# -- one interpreter ------------------------------------------------------------


class TestOneEffectInterpreter:
    """Only ``engine/runtime.py`` may dispatch on the timer effects: a second
    interpreter is a second timer table, and the copies drift (two of five
    once emitted no ``timer.*`` events)."""

    PACKAGE_DIR = Path(engine_package.__file__).resolve().parents[2]
    TIMER_EFFECTS = {"StartTimer", "CancelTimer"}

    def _names(self, node):
        return {
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
        }

    def _dispatches_on_timer_effects(self, tree) -> bool:
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2
                    and self._names(node.args[1]) & self.TIMER_EFFECTS):
                return True
            if (isinstance(node, ast.Compare)
                    and any(isinstance(op, (ast.Is, ast.Eq)) for op in node.ops)
                    and any(self._names(side) & self.TIMER_EFFECTS
                            for side in node.comparators)):
                return True  # type(effect) is StartTimer
        return False

    def test_only_the_runtime_interprets_timer_effects(self):
        interpreters = sorted(
            str(path.relative_to(self.PACKAGE_DIR))
            for path in self.PACKAGE_DIR.rglob("*.py")
            if self._dispatches_on_timer_effects(
                ast.parse(path.read_text(encoding="utf-8"))
            )
        )
        assert interpreters == [os.path.join("kvstore", "engine", "runtime.py")]

    def test_the_scan_sees_both_dispatch_spellings(self):
        for source in ("isinstance(e, StartTimer)",
                       "isinstance(e, (SendFrame, effects.CancelTimer))",
                       "type(e) is StartTimer"):
            assert self._dispatches_on_timer_effects(ast.parse(source)), source
        assert not self._dispatches_on_timer_effects(
            ast.parse("x = [StartTimer(tid, 1.0)]; isinstance(e, SendFrame)")
        )


class TestOneReplicaRoundMultiplexer:
    """Only ``engine/rounds.py`` may build ``batch`` frames, take ``batch-ack``
    frames apart or apply the stale-bounce rule: the client and the proxy once
    carried a copy each, kept in step by eye, and a second copy must not grow
    back unnoticed.  ``server.py`` defines the names and is the serving side;
    ``__init__.py`` re-exports them."""

    ENGINE_DIR = TestEngineImportBan.ENGINE_DIR
    ROUND_MACHINERY = {
        "make_batch", "unpack_batch", "unpack_batch_ack", "is_stale_reply",
        "MAX_STALE_RETRIES",
    }
    EXEMPT = {"server.py", "__init__.py"}

    def _uses(self, tree):
        return {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
        } & self.ROUND_MACHINERY

    def test_only_the_multiplexer_touches_the_round_machinery(self):
        users = {}
        for path in sorted(self.ENGINE_DIR.glob("*.py")):
            used = self._uses(ast.parse(path.read_text(encoding="utf-8")))
            if used and path.name not in self.EXEMPT:
                users[path.name] = sorted(used)
        assert users == {"rounds.py": sorted(self.ROUND_MACHINERY)}

    def test_the_scan_sees_calls_and_reads(self):
        for source in ("make_batch(a, b, subs)", "messages.unpack_batch(frame)",
                       "if n > MAX_STALE_RETRIES: pass",
                       "if server.is_stale_reply(r): pass"):
            assert self._uses(ast.parse(source)), source
        assert not self._uses(ast.parse("from .server import is_stale_reply"))
