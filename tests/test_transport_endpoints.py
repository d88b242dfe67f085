"""The four hot endpoints over loopback TCP: bad frames, ownership, no tasks.

Every endpoint is a ``FramedConnection`` owner.  A frame that does not parse
must cost exactly one connection and take that endpoint's normal lost path
-- the replica keeps serving its other connections, a group-client link
redials, a proxied store fails over -- and nothing on the per-frame path may
create an ``asyncio.Task``.
"""

from __future__ import annotations

import asyncio
from typing import List

import pytest

from repro.asyncio_net.codec import (
    MAX_FRAME_BYTES,
    FrameError,
    encode_message,
    read_frame,
    write_frame,
)
from repro.asyncio_net.server import ReplicaServer
from repro.core.timestamps import Tag
from repro.kvstore import AsyncKVCluster, KVStore, ShardMap
from repro.kvstore.engine import GroupServerEngine
from repro.kvstore.engine.effects import SendFrame, StartTimer
from repro.protocols.codec import encode_tag
from repro.protocols.server_state import TagValueServer
from repro.messages import Message, SubRequest, make_batch

from test_codec_properties import WRONG_SHAPES
from test_kvstore_failover import FAST_RETRY

GARBAGE = b"\x00\x00\x00\x05{{{{{"
OVERSIZE = (MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"x" * 16
TRUNCATED = encode_message(Message("c9", "s1", "query"))[:-4]

#: Well-framed, valid JSON, wrong shape: the four object-form bodies that
#: used to decode and then raise inside the engine (under asyncio's "Fatal
#: error: protocol.buffer_updated() call failed"), and the same mistakes in
#: the array form.
WRONG_SHAPE_IDS = [
    "v1-ops-not-a-list", "v1-sub-without-sender", "v1-payload-a-list",
    "v1-release-without-keys", "ops-not-a-list", "short-sub-row",
    "proxy-row-short", "payload-a-list", "release-without-keys",
]
WRONG_SHAPE_FRAMES = [
    len(WRONG_SHAPES[name]).to_bytes(4, "big") + WRONG_SHAPES[name]
    for name in WRONG_SHAPE_IDS
]
BAD_FRAMES = pytest.mark.parametrize(
    "bad", [GARBAGE, OVERSIZE, TRUNCATED] + WRONG_SHAPE_FRAMES,
    ids=["garbage", "oversize", "truncated"] + WRONG_SHAPE_IDS,
)
WRONG_SHAPED = pytest.mark.parametrize(
    "bad", WRONG_SHAPE_FRAMES, ids=WRONG_SHAPE_IDS
)


def _spy_on_lost(endpoint) -> List[BaseException]:
    """Record what each connection ``endpoint`` accepts reports as its loss."""
    lost: List[BaseException] = []
    accept = endpoint._accept

    def spying_accept():
        connection = accept()
        report = connection._on_lost

        def on_lost(exc: BaseException) -> None:
            lost.append(exc)
            report(exc)

        connection._on_lost = on_lost
        return connection

    endpoint._accept = spying_accept
    return lost


def _spy_on_loop_errors() -> List[dict]:
    """Record every call of the running loop's exception handler."""
    contexts: List[dict] = []
    asyncio.get_running_loop().set_exception_handler(
        lambda loop, context: contexts.append(context)
    )
    return contexts


async def _closed_by_peer(reader: asyncio.StreamReader) -> bool:
    """True when the peer closes (or resets) the connection within 2 s."""
    try:
        return await asyncio.wait_for(reader.read(), timeout=2.0) == b""
    except ConnectionError:
        return True


async def _send_raw(host: str, port: int, data: bytes, then_eof: bool):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(data)
    await writer.drain()
    if then_eof:
        writer.write_eof()
    return reader, writer


def _other_tasks() -> "set[asyncio.Task]":
    return asyncio.all_tasks() - {asyncio.current_task()}


class TestReplicaServerEndpoint:
    @BAD_FRAMES
    def test_bad_frame_closes_only_that_connection(self, bad):
        async def scenario():
            replica = ReplicaServer(TagValueServer("s1"))
            await replica.start()
            try:
                good_reader, good_writer = await asyncio.open_connection(
                    replica.host, replica.port
                )
                await write_frame(good_writer, Message("r1", "s1", "query"))
                assert (await read_frame(good_reader)).kind == "query-ack"

                bad_reader, bad_writer = await _send_raw(
                    replica.host, replica.port, bad, then_eof=bad is TRUNCATED
                )
                assert await _closed_by_peer(bad_reader)
                bad_writer.close()

                # The replica still serves the connection that behaved.
                await write_frame(
                    good_writer,
                    Message("w1", "s1", "update",
                            {"tag": encode_tag(Tag(1, "w1")), "value": "v"}),
                )
                assert (await read_frame(good_reader)).kind == "update-ack"
                assert len(replica._connections) == 1
                good_writer.close()
                await good_writer.wait_closed()
            finally:
                await replica.stop()
            assert not _other_tasks()  # no handler task, hence no unhandled exception

        asyncio.run(scenario())

    @WRONG_SHAPED
    def test_wrong_shape_never_reaches_the_engine(self, bad):
        async def scenario():
            shard_map = ShardMap(2, num_groups=1)
            group = shard_map.groups["g1"]
            server_id = group.servers[0]
            shard = shard_map.shards_on("g1")[0]
            replica = ReplicaServer(GroupServerEngine(
                server_id, group.protocol,
                {s.shard_id: s.epoch for s in shard_map.shards_on("g1")},
            ))
            lost = _spy_on_lost(replica)
            loop_errors = _spy_on_loop_errors()
            await replica.start()

            def query(op_id: str) -> Message:
                return make_batch("c1", server_id, [SubRequest(
                    "k", Message("c1", server_id, "query", {}, op_id, 1),
                    shard.shard_id, shard.epoch,
                )])

            try:
                good_reader, good_writer = await asyncio.open_connection(
                    replica.host, replica.port
                )
                await write_frame(good_writer, query("op1"))
                assert (await read_frame(good_reader)).kind == "batch-ack"

                bad_reader, bad_writer = await _send_raw(
                    replica.host, replica.port, bad, then_eof=False
                )
                assert await _closed_by_peer(bad_reader)
                bad_writer.close()
                # Refused at decode, as a typed error, on that connection only.
                assert len(lost) == 1 and isinstance(lost[0], FrameError)
                assert loop_errors == []
                assert replica.requests_served == 1

                await write_frame(good_writer, query("op2"))
                assert (await read_frame(good_reader)).kind == "batch-ack"
                assert len(replica._connections) == 1
                good_writer.close()
                await good_writer.wait_closed()
            finally:
                await replica.stop()
            assert loop_errors == []

        asyncio.run(scenario())

    def test_stop_leaves_no_timer_task_or_connection(self):
        class Leasing:
            """Effect-driven logic arming a timer per request."""

            server_id = "s1"

            def __init__(self) -> None:
                self.fired: List[tuple] = []

            def on_frame(self, frame):
                return [
                    StartTimer(("lease", frame.sender), 0.05),
                    SendFrame(frame.sender, frame.reply("pong", {})),
                ]

            def on_timer(self, timer_id):
                self.fired.append(timer_id)
                return []

        async def scenario():
            logic = Leasing()
            # Modelled service time: the second reply is still deferred at stop().
            replica = ReplicaServer(logic, service_overhead=0.03)
            await replica.start()
            reader, writer = await asyncio.open_connection(replica.host, replica.port)
            await write_frame(writer, Message("p1", "s1", "ping"))
            await write_frame(writer, Message("p1", "s1", "ping"))
            assert (await read_frame(reader)).kind == "pong"
            assert replica._timers and replica._connections and replica._peers
            await replica.stop()
            assert not replica._timers
            assert not replica._connections and not replica._peers
            assert not replica.running
            assert not _other_tasks()
            assert await _closed_by_peer(reader)  # severed, second pong never sent
            await asyncio.sleep(0.1)
            assert logic.fired == []  # the armed lease timer died with the server
            writer.close()

        asyncio.run(scenario())

    def test_service_time_defers_replies_in_order_not_reads(self):
        async def scenario():
            replica = ReplicaServer(TagValueServer("s1"), service_overhead=0.04)
            await replica.start()
            try:
                reader, writer = await asyncio.open_connection(replica.host, replica.port)
                loop = asyncio.get_running_loop()
                started = loop.time()
                for n in range(1, 4):
                    writer.write(encode_message(Message(
                        "w1", "s1", "update",
                        {"tag": encode_tag(Tag(n, "w1")), "value": f"v{n}"}, op_id=f"op{n}",
                    )))
                await writer.drain()
                await asyncio.sleep(0.02)
                # All three were read and applied on arrival ...
                assert replica.requests_served == 3
                # ... and each reply waits out its own service time behind
                # the connection's earlier requests.
                replies = [await read_frame(reader) for _ in range(3)]
                assert [r.op_id for r in replies] == ["op1", "op2", "op3"]
                assert loop.time() - started >= 3 * 0.04 - 0.005
                assert not replica._timers
                writer.close()
                await writer.wait_closed()
            finally:
                await replica.stop()

        asyncio.run(scenario())


class TestGroupClientLink:
    @BAD_FRAMES
    def test_bad_frame_from_a_replica_redials_and_ops_complete(self, bad):
        async def scenario():
            shard_map = ShardMap(2, num_groups=1)
            cluster = AsyncKVCluster(shard_map, retry_policy=FAST_RETRY)
            await cluster.start()
            store = KVStore(cluster, client_id="c1")
            await store.connect()
            try:
                await store.put("k", "v0")
                group_client = store._link._group_clients["g1"]
                victim = shard_map.groups["g1"].servers[0]
                link = group_client.connection_for(victim)
                # The replica's side of the link misbehaves.
                server_side = cluster.replicas[victim]._peers[store.engine.link.link_id]
                server_side.send(bad)
                if bad is TRUNCATED:
                    server_side.close()
                for i in range(4):  # quorums of S - t carry these
                    await store.put(f"k{i}", f"v{i}")
                await asyncio.sleep(0.2)  # let the redial land
                fresh = group_client.connection_for(victim)
                assert fresh is not link and not fresh.closing
                assert link.closing
                served = cluster.replicas[victim].requests_served
                for i in range(4):
                    assert await store.get(f"k{i}") == f"v{i}"
                assert cluster.replicas[victim].requests_served > served
                assert store.check().all_atomic
            finally:
                await store.close()
                await cluster.stop()
            assert not _other_tasks()

        asyncio.run(scenario())


class TestProxyEndpoints:
    @BAD_FRAMES
    def test_bad_frame_into_a_proxy_closes_only_that_connection(self, bad):
        async def scenario():
            cluster = AsyncKVCluster(ShardMap(2, num_groups=1), retry_policy=FAST_RETRY)
            await cluster.start()
            await cluster.start_proxies(1)
            store = KVStore(cluster, client_id="c1", use_proxy="p1")
            await store.connect()
            try:
                await store.put("k", "v1")
                host, port = cluster.proxy_endpoint("p1")
                reader, writer = await _send_raw(host, port, bad, then_eof=bad is TRUNCATED)
                assert await _closed_by_peer(reader)
                writer.close()
                await store.put("k", "v2")
                assert await store.get("k") == "v2"
                assert store.proxy_failovers == 0
                assert len(cluster.proxies["p1"]._connections) == 1
            finally:
                await store.close()
                await cluster.stop()
            assert not _other_tasks()

        asyncio.run(scenario())

    @WRONG_SHAPED
    def test_wrong_shape_into_a_proxy_never_reaches_the_engine(self, bad):
        async def scenario():
            cluster = AsyncKVCluster(ShardMap(2, num_groups=1), retry_policy=FAST_RETRY)
            await cluster.start()
            await cluster.start_proxies(1)
            proxy = cluster.proxies["p1"]
            await proxy.stop()  # the listener binds ``_accept`` at start()
            lost = _spy_on_lost(proxy)
            await proxy.start()
            loop_errors = _spy_on_loop_errors()
            store = KVStore(cluster, client_id="c1", use_proxy="p1")
            await store.connect()
            try:
                await store.put("k", "v1")
                host, port = cluster.proxy_endpoint("p1")
                reader, writer = await _send_raw(host, port, bad, then_eof=False)
                assert await _closed_by_peer(reader)
                writer.close()
                # Refused at decode, as a typed error, on that connection only.
                assert len(lost) == 1 and isinstance(lost[0], FrameError)
                assert loop_errors == []
                await store.put("k", "v2")
                assert await store.get("k") == "v2"
                assert store.proxy_failovers == 0
                assert len(proxy._connections) == 1
            finally:
                await store.close()
                await cluster.stop()
            assert loop_errors == []
            assert not _other_tasks()

        asyncio.run(scenario())

    @BAD_FRAMES
    def test_bad_frame_from_a_proxy_fails_the_store_over(self, bad):
        async def scenario():
            cluster = AsyncKVCluster(ShardMap(2, num_groups=1), retry_policy=FAST_RETRY)
            await cluster.start()
            await cluster.start_proxies(2)
            store = KVStore(cluster, client_id="c1", use_proxy="p1")
            await store.connect()
            try:
                await store.put("k", "v1")
                proxy_side = cluster.proxies["p1"]._client_connections["c1"]
                proxy_side.send(bad)
                if bad is TRUNCATED:
                    proxy_side.close()
                await store.put("k", "v2")
                assert await store.get("k") == "v2"
                assert store.proxy_failovers == 1
                assert store._proxy_client.proxy_id == "p2"
                assert store.check().all_atomic
            finally:
                await store.close()
                await cluster.stop()

        asyncio.run(scenario())


class TestNoTaskPerFrame:
    def test_a_direct_run_creates_tasks_per_connection_not_per_frame(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            created: List[asyncio.Task] = []

            def counting_factory(loop, coro, **kwargs):
                task = asyncio.Task(coro, loop=loop, **kwargs)
                created.append(task)
                return task

            shard_map = ShardMap(4, num_groups=2)
            cluster = AsyncKVCluster(shard_map)
            await cluster.start()
            store = KVStore(cluster, client_id="c1")
            loop.set_task_factory(counting_factory)
            try:
                await store.connect()
                connections = sum(len(g.servers) for g in shard_map.groups.values())
                for i in range(100):
                    await store.put(f"k{i % 16}", i)
                    assert await store.get(f"k{i % 16}") == i
                frames = store.frames_total()
                assert frames >= 200 * 2 * 2  # >= 2 round trips x (send + ack) per op
                assert len(created) <= connections
                assert not store._io_tasks
            finally:
                loop.set_task_factory(None)
                await store.close()
                await cluster.stop()
            assert not _other_tasks()

        asyncio.run(scenario())
