"""The kv cluster's nodes on Unix-domain sockets, and acks too large for a frame.

Every replica and proxy of an ``AsyncKVCluster`` listens on a socket file
named after it in a directory the cluster makes at ``start()`` and removes at
``stop()``.  A killed node comes back on the same path, two clusters of one
process keep apart, and nothing is left in the temporary directory.

An ack whose rows together exceed ``MAX_FRAME_BYTES`` goes as several frames;
a single row too large for any frame fails its round with an explicit error.
Neither wedges an operation nor closes a connection.
"""

from __future__ import annotations

import asyncio
import os
import stat
import tempfile
import time

import pytest

from repro.asyncio_net import codec
from repro.asyncio_net.codec import MAX_FRAME_BYTES, decode_message, encode_message
from repro.asyncio_net.server import ReplicaServer
from repro.core.errors import ProtocolError
from repro.kvstore import AsyncKVCluster, KVStore, ShardMap
from repro.kvstore.perkey import KVHistoryRecorder, check_per_key_atomicity
from repro.messages import (
    BATCH_ACK_KIND,
    PROXY_ACK_KIND,
    REPLY_TOO_LARGE_KIND,
    Message,
    ProxySubReply,
    make_batch_ack,
    make_proxy_ack,
)

from test_kvstore_failover import fast

#: The shortest limit on a socket path among the platforms asyncio serves
#: Unix sockets on (macOS; Linux allows 108).
SUN_PATH_MAX = 104


def _other_tasks() -> "set[asyncio.Task]":
    return asyncio.all_tasks() - {asyncio.current_task()}


def _is_socket(path: str) -> bool:
    return stat.S_ISSOCK(os.stat(path).st_mode)


def _socket_dir(cluster: AsyncKVCluster) -> str:
    (directory,) = {os.path.dirname(replica.address) for replica in cluster.replicas.values()}
    return directory


async def _wait_until(condition, timeout: float = 2.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout
    while not condition():
        assert asyncio.get_running_loop().time() < deadline
        await asyncio.sleep(0.005)


class TestSocketLifecycle:
    def test_every_node_listens_on_a_short_path_of_one_directory(self):
        async def scenario():
            cluster = AsyncKVCluster(ShardMap(4, num_groups=2), fast())
            await cluster.start()
            await cluster.start_proxies(2)
            try:
                directory = _socket_dir(cluster)
                assert os.path.dirname(directory) == tempfile.gettempdir()
                assert os.path.basename(directory).startswith("repro-kv-")
                paths = [replica.address for replica in cluster.replicas.values()]
                paths += [cluster.proxy_endpoint(pid) for pid in cluster.proxies]
                assert len(set(paths)) == 6 + 2
                for path in paths:
                    assert os.path.dirname(path) == directory
                    assert _is_socket(path)
                    assert len(path.encode()) < SUN_PATH_MAX
                assert sorted(os.listdir(directory)) == sorted(
                    [*cluster.replicas, *cluster.proxies]
                )
            finally:
                await cluster.stop()

        asyncio.run(scenario())

    def test_stop_leaves_no_socket_file_or_directory(self):
        async def scenario():
            cluster = AsyncKVCluster(ShardMap(2, num_groups=1), fast())
            await cluster.start()
            await cluster.start_proxies(1)
            store = KVStore(cluster, client_id="c1", use_proxy="p1")
            await store.connect()
            await store.put("k", "v")
            directory = _socket_dir(cluster)
            await cluster.kill_server(next(iter(cluster.replicas)))  # a stale file
            await store.close()
            await cluster.stop()
            assert not os.path.exists(directory)
            await cluster.stop()  # idempotent
            assert not _other_tasks()

        asyncio.run(scenario())

    def test_a_start_that_fails_partway_leaves_nothing_behind(self, monkeypatch):
        started = []
        real_start = ReplicaServer.start

        async def start(self):
            if len(started) == 2:
                raise OSError("no room for a third replica")
            await real_start(self)
            started.append(self)

        monkeypatch.setattr(ReplicaServer, "start", start)

        async def scenario():
            cluster = AsyncKVCluster(ShardMap(1), fast())
            with pytest.raises(OSError, match="third replica"):
                await cluster.start()
            directory = os.path.dirname(started[0].address)
            assert not os.path.exists(directory)
            assert not any(replica.running for replica in started)
            assert not cluster.replicas
            assert not _other_tasks()

        asyncio.run(scenario())

    def test_a_killed_replica_and_proxy_restart_on_their_paths_and_stores_reconnect(self):
        async def scenario():
            cluster = AsyncKVCluster(ShardMap(2, num_groups=1), fast())
            await cluster.start()
            await cluster.start_proxies(1)
            recorder = KVHistoryRecorder(time.monotonic)
            direct = KVStore(cluster, client_id="c1", recorder=recorder)
            proxied = KVStore(cluster, client_id="c2", use_proxy="p1", recorder=recorder)
            await direct.connect()
            await proxied.connect()
            try:
                await direct.put("k", "v1")
                victim = next(iter(cluster.replicas))
                replica = cluster.replicas[victim]
                path = replica.address
                link = direct._link.endpoint
                await cluster.kill_server(victim)
                await _wait_until(lambda: victim not in link.peers)
                await direct.put("k", "v2")  # a quorum of the others
                await cluster.restart_server(victim)
                assert replica.address == path and _is_socket(path)
                # The link and the proxy redial the same path.
                await _wait_until(lambda: victim in link.peers)
                proxy = cluster.proxies["p1"]
                await _wait_until(lambda: victim in proxy.endpoint.peers)
                served = replica.requests_served
                await proxied.put("k", "v3")
                assert await direct.get("k") == "v3"
                assert replica.requests_served > served

                proxy_path = cluster.proxy_endpoint("p1")
                await cluster.kill_proxy("p1")
                await _wait_until(lambda: proxied.proxy_failovers == 1)
                await cluster.restart_proxy("p1")
                assert cluster.proxy_endpoint("p1") == proxy_path
                assert proxy.address == proxy_path and _is_socket(proxy_path)
                late = KVStore(cluster, client_id="c3", use_proxy="p1", recorder=recorder)
                await late.connect()
                try:
                    await late.put("k", "v4")
                    assert await proxied.get("k") == "v4"
                    assert late.engine.proxy_id == "p1"
                finally:
                    await late.close()
                assert check_per_key_atomicity(recorder.histories()).all_atomic
            finally:
                await direct.close()
                await proxied.close()
                await cluster.stop()
            assert not _other_tasks()

        asyncio.run(scenario())

    def test_two_clusters_in_one_process_keep_apart(self):
        async def scenario():
            first = AsyncKVCluster(ShardMap(2, num_groups=1), fast())
            second = AsyncKVCluster(ShardMap(2, num_groups=1), fast())
            await asyncio.gather(first.start(), second.start())
            await first.start_proxies(1)
            await second.start_proxies(1)
            stores = [
                KVStore(first, client_id="c1", use_proxy="p1"),
                KVStore(second, client_id="c1"),
            ]
            directories = [_socket_dir(first), _socket_dir(second)]
            try:
                # The same node ids, under two directories.
                assert set(first.replicas) == set(second.replicas)
                assert directories[0] != directories[1]
                assert first.proxy_endpoint("p1") != second.proxy_endpoint("p1")
                for store in stores:
                    await store.connect()
                await stores[0].put("k", "first")
                await stores[1].put("k", "second")
                await first.stop()
                assert await stores[1].get("k") == "second"
                assert not os.path.exists(directories[0])
                assert os.path.isdir(directories[1])
            finally:
                for store in stores:
                    await store.close()
                await first.stop()
                await second.stop()
            assert not any(os.path.exists(d) for d in directories)
            assert not _other_tasks()

        asyncio.run(scenario())


def _bodies(data: bytes):
    """The frame bodies ``data`` holds back to back."""
    bodies = []
    while data:
        length = int.from_bytes(data[:4], "big")
        assert len(data) >= 4 + length
        bodies.append(data[4:4 + length])
        data = data[4 + length:]
    return bodies


class TestCutAcks:
    """``encode_message`` on an over-limit ack: rows cut across frames, and
    the error rows."""

    def _replies(self, sender: str, sizes):
        return [
            Message(sender, "c1", "query-ack", {"value": "x" * size}, f"op{n}", 1)
            for n, size in enumerate(sizes)
        ]

    def test_an_over_limit_batch_ack_is_cut_with_its_grants_first(self, monkeypatch):
        monkeypatch.setattr(codec, "MAX_FRAME_BYTES", 400)
        replies = self._replies("s1", [150, 150, 150, 150]) + [None]
        ack = make_batch_ack(Message("c1", "s1", "batch"), replies, grants=[("k", "n1")])
        bodies = _bodies(encode_message(ack))
        assert len(bodies) > 1 and all(len(body) <= 400 for body in bodies)
        decoded = [decode_message(body) for body in bodies]
        assert all(m.kind == BATCH_ACK_KIND and m.sender == "s1" for m in decoded)
        rows = [reply for m in decoded for reply in m.payload["acks"]]
        assert [(r.op_id, r.payload) if r else None for r in rows] == [
            (r.op_id, r.payload) if r else None for r in replies
        ]
        assert decoded[0].payload["grants"] == [("k", "n1")]
        assert all("grants" not in m.payload for m in decoded[1:])

    def test_a_batch_ack_row_too_large_alone_goes_as_reply_too_large(self, monkeypatch):
        monkeypatch.setattr(codec, "MAX_FRAME_BYTES", 400)
        small, huge = self._replies("s1", [10, 500])
        ack = make_batch_ack(Message("c1", "s1", "batch"), [small, huge])
        first, second = [decode_message(body) for body in _bodies(encode_message(ack))]
        assert first.payload["acks"][0].payload == small.payload
        (row,) = second.payload["acks"]
        assert row.kind == REPLY_TOO_LARGE_KIND
        assert (row.op_id, row.round_trip) == (huge.op_id, huge.round_trip)
        assert row.payload["bytes"] > 500

    def test_a_proxy_ack_row_too_large_alone_goes_as_an_error(self, monkeypatch):
        monkeypatch.setattr(codec, "MAX_FRAME_BYTES", 400)
        subs = [
            ProxySubReply("op1", 1, tuple(self._replies("s1", [10]))),
            ProxySubReply("op2", 2, tuple(self._replies("s1", [300]) + self._replies("s2", [300]))),
        ]
        bodies = _bodies(encode_message(make_proxy_ack("p1", "c1", subs)))
        first, second = [decode_message(body) for body in bodies]
        assert first.kind == second.kind == PROXY_ACK_KIND
        assert first.payload["acks"][0].error is None
        (row,) = second.payload["acks"]
        assert (row.op_id, row.round_trip, row.replies) == ("op2", 2, ())
        assert "exceeds MAX_FRAME_BYTES" in row.error

    def test_other_over_limit_frames_still_raise(self, monkeypatch):
        monkeypatch.setattr(codec, "MAX_FRAME_BYTES", 400)
        with pytest.raises(codec.FrameError, match="exceeds MAX_FRAME_BYTES"):
            encode_message(Message("c1", "s1", "query", {"value": "x" * 500}))
        # An ack whose error row alone is over the limit too.
        monkeypatch.setattr(codec, "MAX_FRAME_BYTES", 60)
        ack = make_batch_ack(Message("c1", "s1", "batch"), self._replies("s1", [500]))
        with pytest.raises(codec.FrameError, match="exceeds MAX_FRAME_BYTES"):
            encode_message(ack)


class TestOverLimitAcksOnTheWire:
    def test_a_direct_multi_get_over_the_limit_completes(self):
        async def scenario():
            cluster = AsyncKVCluster(ShardMap(1), fast())
            await cluster.start()
            store = KVStore(cluster, client_id="c1")
            await store.connect()
            try:
                values = {
                    key: key * (MAX_FRAME_BYTES // 3 + 1000) for key in ("a", "b", "c")
                }
                for key, value in values.items():
                    await store.put(key, value)
                held = dict(store._link.endpoint.peers)
                accepted = {
                    sid: set(replica.endpoint.accepted)
                    for sid, replica in cluster.replicas.items()
                }
                got = await asyncio.wait_for(store.multi_get(list(values)), 30.0)
                assert got == values
                # No connection closed on either side.
                assert store._link.endpoint.peers == held
                assert not any(c.closing for c in held.values())
                assert {
                    sid: set(replica.endpoint.accepted)
                    for sid, replica in cluster.replicas.items()
                } == accepted
            finally:
                await store.close()
                await cluster.stop()

        asyncio.run(scenario())

    def test_a_proxied_get_over_the_limit_fails_explicitly(self):
        async def scenario():
            cluster = AsyncKVCluster(ShardMap(1), fast())
            await cluster.start()
            await cluster.start_proxies(1)
            store = KVStore(cluster, client_id="c1", use_proxy="p1")
            await store.connect()
            try:
                await store.put("a", "x" * (MAX_FRAME_BYTES // 2 + 1000))
                connection = store._link.endpoint.peers["p1"]
                with pytest.raises(ProtocolError, match="exceeds MAX_FRAME_BYTES"):
                    await asyncio.wait_for(store.get("a"), 30.0)
                assert store._link.endpoint.peers["p1"] is connection
                assert not connection.closing and store.proxy_failovers == 0
                await store.put("b", "small")
                assert await store.get("b") == "small"
            finally:
                await store.close()
                await cluster.stop()

        asyncio.run(scenario())

    def test_a_replica_reply_too_large_for_any_frame_fails_its_round(self, monkeypatch):
        async def scenario():
            cluster = AsyncKVCluster(ShardMap(1), fast())
            await cluster.start()
            store = KVStore(cluster, client_id="c1")
            await store.connect()
            try:
                await store.put("a", "x" * 2000)
                held = dict(store._link.endpoint.peers)
                # The query fits; each replica's reply, carrying the value, does not.
                monkeypatch.setattr(codec, "MAX_FRAME_BYTES", 1500)
                with pytest.raises(ProtocolError, match="exceeds the frame limit"):
                    await asyncio.wait_for(store.get("a"), 5.0)
                monkeypatch.undo()
                assert store._link.endpoint.peers == held
                assert not any(c.closing for c in held.values())
                assert await store.get("a") == "x" * 2000
            finally:
                await store.close()
                await cluster.stop()

        asyncio.run(scenario())
