"""Both backends assemble the same cluster, and the control plane over sockets.

A configuration is a shard map plus a dozen settings; what it *becomes* --
which engine each node runs, hosting what, scoped how -- must not depend on
the backend that built it.  The first half builds the same configuration as a
``SimKVCluster`` and as a started ``AsyncKVCluster`` and compares every fact
an engine's constructor fixed.  The second half drives the asyncio control
plane over real loopback TCP: it is an owner like the others -- it dials its
peers, lazily, and keeps the connections -- and a migration meets a dead
donor replica, a dead proxy, a cluster stopped mid-drain.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Tuple

import pytest

from repro.kvstore import AsyncKVCluster, KVStore, ShardMap, SimKVCluster
from repro.kvstore.engine import CONTROL_PLANE
from repro.messages import VIEW_PUSH_KIND

from test_kvstore_failover import FAST_RETRY
from test_transport_endpoints import _other_tasks, _wait_until

CLIENTS = ["c1", "c2", "c3", "c4"]

#: Settings both constructors spell the same way, set away from every default.
SHARED = dict(drain_range_size=5, autoscale_interval=3.0, lease_ttl=7.0)

#: name -> (push_views, read_cache, bounded_staleness, proxies per site).
#: A site of ``None`` is a deployment that names none; clients are spread
#: over the sites in order, two per site.
CONFIGS = {
    "cache-off": (True, 0, False, [(None, 3)]),
    "cache-on": (True, 16, True, [(None, 2)]),
    "no-push": (False, 0, False, [(None, 2)]),
    "two-sites": (True, 8, False, [("us", 2), ("eu", 1)]),
    "no-proxies": (True, 0, False, []),
}


def _shard_map() -> ShardMap:
    return ShardMap(6, num_groups=2, readers=4, writers=4)


def _sites(layout) -> Dict[str, str]:
    """The process -> site map of a layout, in the simulator's shape."""
    sites: Dict[str, str] = {}
    proxy = 0
    for index, (site, count) in enumerate(layout):
        for _ in range(count):
            proxy += 1
            if site is not None:
                sites[f"p{proxy}"] = site
        if site is not None:
            for client_id in CLIENTS[2 * index:2 * index + 2]:
                sites[client_id] = site
    return sites


class _Scopes:
    """A hub sink remembering the ``(tier, component)`` of every event."""

    def __init__(self) -> None:
        self.seen: List[Tuple[str, str]] = []

    def handle(self, event) -> None:
        self.seen.append((event.tier, event.component))


def _scope_of(hub, engine) -> Tuple[str, str]:
    """Where ``engine``'s events land: emit one and look."""
    sink = hub.add_sink(_Scopes())
    engine.observer.emit("assembly.probe")
    return sink.seen[0]  # the sink's first event: later probes reach it too


def _facts(hub, servers, proxies, control, clients) -> Dict[str, Any]:
    """Every constructor-visible fact of a cluster's engines.

    Read through public attributes, with two exceptions that have none: a
    proxy's cache capacity and a session's candidate list.
    """
    return {
        "servers": {
            server_id: (
                {shard: engine.hosted_epoch(shard) for shard in engine.hosted_shards()},
                engine.lease_ttl,
                _scope_of(hub, engine),
            )
            for server_id, engine in servers.items()
        },
        "proxies": {
            proxy_id: (
                engine.read_round_trips,
                engine._cache.capacity if engine._cache is not None else 0,
                engine.bounded_staleness,
                engine.max_batch,
                engine.view.ring_epoch,
                _scope_of(hub, engine),
            )
            for proxy_id, engine in proxies.items()
        },
        "control": (
            list(control.proxy_ids), control.drain_range_size,
            control.autoscale_interval, _scope_of(hub, control),
        ),
        "clients": {
            client_id: (
                list(engine._proxy_candidates), engine.proxy_id, engine.max_batch,
                _scope_of(hub, engine),
            )
            for client_id, engine in clients.items()
        },
    }


def _sim_facts(config: str) -> Dict[str, Any]:
    push_views, read_cache, bounded, layout = CONFIGS[config]
    cluster = SimKVCluster(
        _shard_map(), CLIENTS, num_proxies=sum(count for _, count in layout),
        sites=_sites(layout), push_views=push_views, read_cache=read_cache,
        bounded_staleness=bounded, **SHARED,
    )
    return _facts(
        cluster.hub, cluster.server_logics,
        {pid: proxy.engine for pid, proxy in cluster.proxies.items()},
        cluster.control.engine,
        {cid: client.engine for cid, client in cluster.clients.items()},
    )


def _asyncio_facts(config: str, heads: Dict[str, str]) -> Dict[str, Any]:
    """``heads`` names the proxy each store asks for (a sited client's own
    site's, as a deployment would); a client it leaves out takes its turn."""
    push_views, read_cache, bounded, layout = CONFIGS[config]

    async def scenario():
        cluster = AsyncKVCluster(_shard_map(), push_views=push_views, **SHARED)
        await cluster.start()
        stores = []
        try:
            for site, count in layout:
                await cluster.start_proxies(
                    count, site=site, read_cache=read_cache, bounded_staleness=bounded
                )
            for client_id in CLIENTS:
                store = KVStore(
                    cluster, client_id=client_id,
                    use_proxy=heads.get(client_id, True) if layout else None,
                )
                await store.connect()
                stores.append(store)
            return _facts(
                cluster.hub, cluster.server_logics,
                {pid: proxy.engine for pid, proxy in cluster.proxies.items()},
                cluster.control,
                {store.client_id: store.engine for store in stores},
            )
        finally:
            for store in stores:
                await store.close()
            await cluster.stop()

    return asyncio.run(scenario())


class TestBothBackendsAssembleTheSameCluster:
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_engines_agree_on_every_constructor_visible_fact(self, config):
        sim = _sim_facts(config)
        # A store says which proxy it wants; the simulator works it out from
        # the client's site and index.  Ask for what the simulator picked.
        sited = _sites(CONFIGS[config][3])
        heads = {
            client_id: facts[1]
            for client_id, facts in sim["clients"].items() if client_id in sited
        }
        net = _asyncio_facts(config, heads)
        assert net == sim

    def test_the_facts_are_the_configured_ones(self):
        facts = _sim_facts("two-sites")
        hosted, lease_ttl, scope = facts["servers"]["g1-s1"]
        assert hosted == {"sh1": 1, "sh3": 1, "sh5": 1}
        assert (lease_ttl, scope) == (7.0, ("replica", "g1-s1"))
        assert facts["proxies"]["p3"] == (2, 8, False, 64, 1, ("proxy", "p3"))
        assert facts["control"] == (
            ["p1", "p2", "p3"], 5, 3.0, ("control", "control-plane")
        )
        assert facts["clients"]["c2"] == (["p2", "p1"], "p2", 8, ("client", "c2"))
        assert facts["clients"]["c4"][0] == ["p3"]
        assert _sim_facts("no-push")["control"][0] == []
        assert _sim_facts("no-proxies")["clients"]["c1"][:2] == ([], None)


# -- the asyncio control plane over sockets --------------------------------------


class _DrainEvents:
    """A hub sink keeping the attributes of every ``drain.completed``."""

    def __init__(self) -> None:
        self.completed: List[Dict[str, Any]] = []

    def handle(self, event) -> None:
        if event.kind == "drain.completed":
            self.completed.append(dict(event.attrs))


async def _loaded(shard_map, proxies: int = 0, keys: int = 12):
    """A started cluster, one connected store and ``keys`` written keys."""
    cluster = AsyncKVCluster(shard_map, retry_policy=FAST_RETRY, drain_range_size=4)
    await cluster.start()
    if proxies:
        await cluster.start_proxies(proxies)
    store = KVStore(cluster, client_id="c1", use_proxy="p1" if proxies else None)
    await store.connect()
    for index in range(keys):
        await store.put(f"k{index}", f"v{index}")
    return cluster, store


class TestControlPlaneOverSockets:
    def test_a_drain_gives_up_on_a_dead_donor_replica_and_completes(self):
        async def scenario():
            shard_map = ShardMap(2, num_groups=2, readers=1, writers=1)
            cluster, store = await _loaded(shard_map)
            drains = cluster.hub.add_sink(_DrainEvents())
            # Five resends, 20 ms apart: the dead replica costs ~0.1 s.
            cluster.control.retry_delay = 0.02
            try:
                victim = shard_map.shards["sh1"].servers[0]
                await cluster.kill_server(victim)
                report = cluster.move_shard("sh1", "g2")
                await cluster.flush_migrations(timeout=10.0)
                assert report.done and report.keys_moved > 0
                assert cluster.control.drains_completed == 1
                assert [event["dead_replicas"] for event in drains.completed] == [[victim]]
                # The survivors carried every register across.
                for index in range(12):
                    assert await store.get(f"k{index}") == f"v{index}"
                assert store.check().all_atomic
            finally:
                await store.close()
                await cluster.stop()

        asyncio.run(scenario())

    def test_a_push_to_a_killed_proxy_is_dropped_and_a_restart_refreshes(self):
        async def scenario():
            shard_map = ShardMap(4, num_groups=2, readers=1, writers=1)
            cluster, store = await _loaded(shard_map, proxies=2)
            try:
                await cluster.kill_proxy("p2")
                cluster.resize(6)
                await cluster.flush_view_pushes()
                await cluster.flush_migrations()
                views = {pid: proxy.view for pid, proxy in cluster.proxies.items()}
                assert views["p1"].pushes_applied == 1
                assert views["p2"].pushes_applied == 0
                assert cluster.view_push_acks == 1
                assert views["p2"].ring_epoch < shard_map.ring_epoch
                await cluster.restart_proxy("p2")
                assert views["p2"].ring_epoch == shard_map.ring_epoch
                # The control plane redials the proxy where it was, and the
                # next push reaches it over the new connection.
                await _wait_until(lambda: "p2" in cluster._control_plane.endpoint.peers)
                cluster.resize(8)
                await cluster.flush_view_pushes()
                assert views["p2"].pushes_applied == 1
                assert cluster.view_push_acks == 3
                await cluster.flush_migrations()
                for index in range(12):
                    assert await store.get(f"k{index}") == f"v{index}"
            finally:
                await store.close()
                await cluster.stop()

        asyncio.run(scenario())

    def test_the_control_plane_dials_at_its_first_use_and_keeps_the_connections(self):
        async def scenario():
            shard_map = ShardMap(4, num_groups=2, readers=8, writers=8)
            cluster = AsyncKVCluster(shard_map, retry_policy=FAST_RETRY)
            await cluster.start()
            await cluster.start_proxies(1)
            stores = [
                KVStore(cluster, client_id=f"c{index}", use_proxy=index % 2 == 0 or None)
                for index in range(8)
            ]
            try:
                for store in stores:
                    await store.connect()
                await asyncio.gather(*(
                    store.put(f"k{index}", index) for index, store in enumerate(stores)
                ))
                listeners = {**cluster.replicas, **cluster.proxies}
                accepted = {
                    peer: len(owner.endpoint.accepted) for peer, owner in listeners.items()
                }
                # Set-up is over: replicas hold the link's and the proxy's
                # connection, the proxy the link's one for its four stores --
                # nothing of the control plane's, which has dialled nobody.
                assert set(accepted.values()) == {2, 1}
                assert not any(
                    CONTROL_PLANE in owner.endpoint.peers for owner in listeners.values()
                )
                control_plane = cluster._control_plane.endpoint
                assert not control_plane.peers and not control_plane.tasks

                report = cluster.resize(8)
                await cluster.flush_view_pushes()
                await cluster.flush_migrations()
                # No frame of the first use was lost to a dial still landing.
                assert report.done and cluster.view_push_acks == 1
                assert cluster.control.drains_completed == 1
                for peer, owner in listeners.items():
                    assert len(owner.endpoint.accepted) == accepted[peer] + 1
                    assert CONTROL_PLANE in owner.endpoint.peers
                assert set(control_plane.peers) == set(listeners)

                cluster.move_shard("sh1", "g2")
                await cluster.flush_migrations()
                for peer, owner in listeners.items():  # kept, not one per frame
                    assert len(owner.endpoint.accepted) == accepted[peer] + 1

                # A proxy that comes up later is dialled as it does.
                await cluster.start_proxies(1)
                await _wait_until(lambda: "p2" in control_plane.peers)
                values = await asyncio.gather(*(
                    store.get(f"k{index}") for index, store in enumerate(stores)
                ))
                assert values == list(range(8))
            finally:
                for store in stores:
                    await store.close()
                await cluster.stop()

        asyncio.run(scenario())

    def test_flushing_pushes_gives_up_on_a_proxy_that_dies_before_its_ack(self):
        async def scenario():
            shard_map = ShardMap(4, num_groups=2, readers=1, writers=1)
            cluster, store = await _loaded(shard_map, proxies=2)
            try:
                engine = cluster.proxies["p2"].engine
                deliver = engine.on_frame
                # p2 goes deaf to pushes: it takes them off the wire, acks nothing.
                engine.on_frame = lambda frame: (
                    [] if frame.kind == VIEW_PUSH_KIND else deliver(frame)
                )
                cluster.resize(6)
                flushing = asyncio.ensure_future(cluster.flush_view_pushes())
                await _wait_until(lambda: cluster.view_push_acks == 1)
                await asyncio.sleep(0.02)
                assert not flushing.done()
                await cluster.kill_proxy("p2")
                await asyncio.wait_for(flushing, timeout=2.0)
                await cluster.flush_migrations()
            finally:
                await store.close()
                await cluster.stop()

        asyncio.run(scenario())

    def test_stopping_mid_drain_leaves_no_task_and_no_timer(self):
        async def scenario():
            shard_map = ShardMap(2, num_groups=2, readers=1, writers=1)
            cluster, store = await _loaded(shard_map)
            before = _other_tasks()
            timers = cluster.hub.add_sink(_ControlTimers())
            # The drain cannot finish: a donor replica is dead and the
            # control plane keeps asking it for a second.
            cluster.control.retry_delay = 0.2
            await cluster.kill_server(shard_map.shards["sh1"].servers[0])
            report = cluster.move_shard("sh1", "g2")
            await _wait_until(lambda: timers.armed > 0)
            await store.close()
            await cluster.stop()
            assert not report.done
            assert timers.armed == timers.resolved
            await asyncio.sleep(0)
            assert _other_tasks() <= before

        asyncio.run(scenario())


class _ControlTimers:
    """A hub sink counting the control plane's timer lifecycle events."""

    def __init__(self) -> None:
        self.armed = 0
        self.resolved = 0

    def handle(self, event) -> None:
        if event.tier != "control":
            return
        if event.kind == "timer.armed":
            self.armed += 1
        elif event.kind in ("timer.fired", "timer.cancelled"):
            self.resolved += 1
