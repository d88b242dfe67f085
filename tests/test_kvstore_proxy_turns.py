"""When an asyncio proxy answers its links: in the turn a replica answers it.

A ``ProxyServer`` holds the ``proxy-ack`` frames of a loop turn and writes
them from a zero-delay callback.  While the proxy has rounds out at the
replicas, that callback waits -- re-arming itself one turn at a time -- for
the first turn in which a replica's ``batch-ack`` arrives, and never longer
than ``HOLD_TURNS`` turns past the first.  So a cache hit admitted beside a
miss comes back in the miss's frame, and the ops of one wave come back to
their link together.  Each case counts the proxy's end-of-turn callbacks:
every call is one loop turn of a hold.
"""

from __future__ import annotations

import asyncio
from typing import List

from repro.kvstore import AsyncKVCluster, BroadcastReads, KVStore, ShardMap
from repro.kvstore.net_backend import HOLD_TURNS, ProxyServer
from repro.messages import PROXY_ACK_KIND, unpack_proxy_ack

from test_kvstore_failover import fast
from test_transport_endpoints import _wait_until


class TurnSpy:
    """Counts a proxy's end-of-turn callbacks, and the turns each write of
    held frames took (``holds``: callbacks per write, in order)."""

    def __init__(self, proxy: ProxyServer) -> None:
        self.calls = 0
        self.holds: List[int] = []
        self.held = asyncio.get_running_loop().create_future()
        since = 0
        end_turn = proxy._end_turn

        def spy() -> None:
            nonlocal since
            self.calls += 1
            since += 1
            end_turn()
            if not proxy._held:
                self.holds.append(since)
                since = 0
            elif not self.held.done():
                self.held.set_result(None)

        # The callback re-arms itself through the instance attribute.
        proxy._end_turn = spy


def acks_per_frame(store: KVStore) -> List[int]:
    """Sub-replies per ``proxy-ack`` frame the store's link receives."""
    link = store.engine.link
    on_frame = link.on_frame
    sizes: List[int] = []

    def spy(frame):
        if frame.kind == PROXY_ACK_KIND:
            sizes.append(len(unpack_proxy_ack(frame)))
        return on_frame(frame)

    link.on_frame = spy
    return sizes


def stall(proxy: ProxyServer, cluster: AsyncKVCluster, paused: bool = True) -> None:
    """Stop (or resume) the proxy reading its replicas: none answers it."""
    for server_id in cluster.replicas:
        transport = proxy.endpoint.peers[server_id].transport
        if paused:
            transport.pause_reading()
        else:
            transport.resume_reading()


async def cached_cluster(proxies: int = 1, **settings) -> AsyncKVCluster:
    cluster = AsyncKVCluster(
        ShardMap(1), fast(proxies=proxies, read_cache=8, lease_ttl=10.0, **settings)
    )
    await cluster.start()
    await cluster.start_proxies(proxies)
    return cluster


async def warmed(cluster: AsyncKVCluster, proxy_id: str = "p1") -> KVStore:
    """A store on ``proxy_id`` with ``hot`` cached there and ``cold`` not."""
    store = KVStore(cluster, client_id="c1", use_proxy=proxy_id)
    await store.connect()
    await store.put("hot", "h")
    await store.put("cold", "c")
    assert await store.get("hot") == "h"  # the fill
    return store


class TestAHitWaitsForTheTurnItsReplicasAnswer:
    def test_a_hit_beside_a_miss_leaves_in_the_miss_s_frame(self):
        async def scenario():
            cluster = await cached_cluster()
            store = await warmed(cluster)
            await store.put("cold2", "c2")
            proxy = cluster.proxies["p1"]
            try:
                hits = proxy.engine.cache_hits
                sizes = acks_per_frame(store)
                spy = TurnSpy(proxy)
                # The link writes its first op at once (one op in flight)
                # and the second a turn later.  A miss first: the proxy
                # flushes it in the hit's turn, and the replicas' answer
                # comes one turn after the first callback.
                got = await asyncio.gather(store.get("cold"), store.get("hot"))
                assert got == ["c", "h"]
                assert sizes == [2]
                assert spy.holds == [2]
                # A hit first: the miss is admitted a turn behind it, and
                # its answer arrives in the last turn the bound allows.
                got = await asyncio.gather(store.get("hot"), store.get("cold2"))
                assert got == ["h", "c2"]
                assert sizes == [2, 2]
                assert spy.holds == [2, HOLD_TURNS + 1]
                assert proxy.engine.cache_hits == hits + 2
            finally:
                await store.close()
                await cluster.stop()

        asyncio.run(scenario())

    def test_with_nothing_out_a_hit_leaves_one_turn_later(self):
        async def scenario():
            cluster = await cached_cluster()
            store = await warmed(cluster)
            proxy = cluster.proxies["p1"]
            try:
                assert proxy.engine.rounds_out == 0
                sizes = acks_per_frame(store)
                spy = TurnSpy(proxy)
                assert await store.get("hot") == "h"
                assert sizes == [1]
                assert spy.holds == [1]
            finally:
                await store.close()
                await cluster.stop()

        asyncio.run(scenario())


class TestTheHoldIsBounded:
    def test_a_silent_replica_holds_a_hit_for_the_bound_and_no_longer(self):
        async def scenario():
            cluster = await cached_cluster()
            store = await warmed(cluster)
            proxy = cluster.proxies["p1"]
            try:
                stall(proxy, cluster)
                spy = TurnSpy(proxy)
                hit = asyncio.ensure_future(store.get("hot"))
                miss = asyncio.ensure_future(store.get("cold"))
                assert await asyncio.wait_for(hit, 1.0) == "h"
                assert not miss.done()
                assert spy.holds == [HOLD_TURNS + 1]
                # The miss is still out, and nothing re-arms: the loop is
                # left to wait in its selector, not to spin.
                assert proxy.engine.rounds_out == 1
                assert proxy._writing is None
                calls = spy.calls
                await asyncio.sleep(0.02)
                assert spy.calls == calls
                stall(proxy, cluster, paused=False)
                assert await asyncio.wait_for(miss, 1.0) == "c"
            finally:
                await store.close()
                await cluster.stop()

        asyncio.run(scenario())

    def test_a_write_deferred_behind_another_proxy_s_lease(self):
        async def scenario():
            # Reads ask every replica, so p2's fill leases "cold" at all
            # three and p1's write is deferred at all three.
            cluster = await cached_cluster(proxies=2, read_policy=BroadcastReads())
            writer = await warmed(cluster, "p1")
            reader = KVStore(cluster, client_id="c2", use_proxy="p2")
            await reader.connect()
            first, second = cluster.proxies["p1"], cluster.proxies["p2"]
            logics = cluster.server_logics.values()
            try:
                # p2 never reads the invalidations: the replicas hold p1's
                # write until it does.
                assert await reader.get("cold") == "c"
                await writer.put("cold2", "c2")
                stall(second, cluster)
                put = asyncio.ensure_future(writer.put("cold", "c2"))
                await _wait_until(
                    lambda: sum(logic.write_deferrals for logic in logics) >= 3
                )
                assert first.engine.rounds_out == 1
                spy = TurnSpy(first)
                assert await asyncio.wait_for(writer.get("hot"), 1.0) == "h"
                assert not put.done()
                assert spy.holds == [HOLD_TURNS + 1]
                # With the write still out, the answer to a miss ends the
                # hold of the hit beside it.  The put keeps an op in flight
                # on the link, so both ride one link frame: the proxy
                # flushes the miss in the first callback's turn, and its
                # answer arrives in the third.
                got = await asyncio.gather(writer.get("cold2"), writer.get("hot"))
                assert got == ["c2", "h"]
                assert not put.done()
                assert spy.holds == [HOLD_TURNS + 1, 3]
                stall(second, cluster, paused=False)
                await asyncio.wait_for(put, 2.0)
                assert await writer.get("cold") == "c2"
                verdict = writer.check()
                assert verdict.all_atomic, verdict.summary()
            finally:
                await reader.close()
                await writer.close()
                await cluster.stop()

        asyncio.run(scenario())


class TestAKilledProxyDropsItsHold:
    def test_kill_during_a_hold_then_a_restarted_proxy_answers_its_hit(self):
        async def scenario():
            cluster = await cached_cluster()
            store = await warmed(cluster)
            proxy = cluster.proxies["p1"]
            try:
                stall(proxy, cluster)
                spy = TurnSpy(proxy)
                ops = asyncio.gather(store.get("hot"), store.get("cold"))
                await asyncio.wait_for(spy.held, 1.0)
                assert proxy._held and proxy._waited < HOLD_TURNS
                await cluster.kill_proxy("p1")
                assert proxy._writing is None and not proxy._held
                calls = spy.calls
                # The store fails over to the replicas and finishes both.
                assert await asyncio.wait_for(ops, 2.0) == ["h", "c"]
                assert store.proxy_failovers == 1
                await asyncio.sleep(0.02)
                assert spy.calls == calls  # no callback outlived the kill

                await cluster.restart_proxy("p1")
                again = KVStore(cluster, client_id="c2", use_proxy="p1")
                await again.connect()
                try:
                    assert await again.get("hot") == "h"  # the fill
                    hits = proxy.engine.cache_hits
                    holds = len(spy.holds)
                    assert await asyncio.wait_for(again.get("hot"), 1.0) == "h"
                    assert proxy.engine.cache_hits == hits + 1
                    assert spy.holds[holds:] == [1]
                finally:
                    await again.close()
            finally:
                await store.close()
                await cluster.stop()

        asyncio.run(scenario())
