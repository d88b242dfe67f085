"""The hot endpoints over real sockets: bad frames, lost connections, no tasks.

A standalone ``ReplicaServer`` listens on loopback TCP; the nodes of an
``AsyncKVCluster`` listen on Unix-domain sockets, and the scenarios dial the
address the cluster gives out.

Every endpoint is a ``FramedConnection`` owner.  A frame that does not parse
must cost exactly one connection and take that endpoint's normal lost path
-- an accepting side (replica, proxy) forgets the connection and unmaps the
peers still routed over it, a dialler of replicas (a store's link, a proxy)
redials, a proxied store fails over -- and nothing on the per-frame path may
create an ``asyncio.Task``.  Each of those behaviours is pinned through both
of its owners.
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
from repro.asyncio_net.codec import decode_message
from repro.asyncio_net.server import ReplicaServer
from repro.core.timestamps import Tag
from repro.kvstore import AsyncKVCluster, KVRunConfig, KVStore, RetryPolicy, ShardMap
from repro.kvstore.engine import GroupServerEngine
from repro.kvstore.engine.effects import SendFrame, StartTimer
from repro.protocols.codec import encode_tag
from repro.protocols.server_state import TagValueServer
from repro.messages import (
    PROXY_ACK_KIND,
    Message,
    ProxySubRequest,
    SubRequest,
    make_batch,
    make_proxy_request,
    unpack_proxy_ack,
)

from test_codec_properties import WRONG_SHAPES
from test_framed_connection import FakeTransport
from test_kvstore_failover import FAST_RETRY, fast

GARBAGE = b"\x00\x00\x00\x05{{{{{"
OVERSIZE = (MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"x" * 16
TRUNCATED = encode_message(Message("c9", "s1", "query"))[:-4]

#: Well-framed, valid JSON, wrong shape: the four object-form bodies that
#: used to decode and then raise inside the engine (under asyncio's "Fatal
#: error: protocol.buffer_updated() call failed"), the same mistakes in the
#: array form, and a mistyped lease field on each batch kind -- the releases
#: a replica reads off a ``batch``, the grants its dialler reads off a
#: ``batch-ack``.
WRONG_SHAPE_IDS = [
    "v1-ops-not-a-list", "v1-sub-without-sender", "v1-payload-a-list",
    "v1-release-without-keys", "ops-not-a-list", "short-sub-row",
    "proxy-row-short", "proxy-client-a-number", "payload-a-list",
    "release-without-keys", "batch-releases-a-number", "batch-ack-grant-unpaired",
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


async def _open(address):
    """A raw stream to ``address``: a socket path, or ``(host, port)``."""
    if isinstance(address, str):
        return await asyncio.open_unix_connection(address)
    return await asyncio.open_connection(*address)


async def _send_raw(address, data: bytes, then_eof: bool):
    reader, writer = await _open(address)
    writer.write(data)
    await writer.drain()
    if then_eof:
        writer.write_eof()
    return reader, writer


def _other_tasks() -> "set[asyncio.Task]":
    return asyncio.all_tasks() - {asyncio.current_task()}


async def _wait_until(condition, timeout: float = 2.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout
    while not condition():
        assert asyncio.get_running_loop().time() < deadline
        await asyncio.sleep(0.005)


def _intercept_dials(path: str, behaviour) -> None:
    """Every dial of the socket at ``path`` on the running loop awaits
    ``behaviour()`` instead of connecting; other dials go through.  The loop
    dies with the scenario, so nothing is restored."""
    loop = asyncio.get_running_loop()
    real = loop.create_unix_connection

    async def create_unix_connection(factory, to_path=None, **kwargs):
        if to_path == path:
            return await behaviour()
        return await real(factory, to_path, **kwargs)

    loop.create_unix_connection = create_unix_connection


def _spy_on_peer_lost(engine) -> List[str]:
    """Record the peers ``engine`` is told it lost for good."""
    lost: List[str] = []
    original = engine.on_peer_lost

    def on_peer_lost(peer_id: str):
        lost.append(peer_id)
        return original(peer_id)

    engine.on_peer_lost = on_peer_lost
    return lost


#: The two owners that dial the replicas and redial them when they die.
DIAL_OWNERS = pytest.mark.parametrize("owner", ["link", "proxy"])


async def _replica_dialler(owner: str, retry=None):
    """A one-group cluster whose replicas ``owner`` has dialled: the replica
    link of a direct store, or proxy ``p1`` with a store behind it."""
    shard_map = ShardMap(2, num_groups=1)
    cluster = AsyncKVCluster(
        shard_map, KVRunConfig(backend="asyncio", retry_policy=retry or FAST_RETRY)
    )
    await cluster.start()
    if owner == "proxy":
        await cluster.start_proxies(1)
    store = KVStore(
        cluster, client_id="c1", use_proxy="p1" if owner == "proxy" else None
    )
    await store.connect()
    engine = cluster.proxies["p1"].engine if owner == "proxy" else store.engine.link
    return cluster, store, engine, list(shard_map.groups["g1"].servers)


class TestReplicaServerEndpoint:
    @BAD_FRAMES
    def test_bad_frame_closes_only_that_connection(self, bad):
        async def scenario():
            replica = ReplicaServer(TagValueServer("s1"))
            await replica.start()
            try:
                good_reader, good_writer = await _open(replica.address)
                await write_frame(good_writer, Message("r1", "s1", "query"))
                assert (await read_frame(good_reader)).kind == "query-ack"

                bad_reader, bad_writer = await _send_raw(
                    replica.address, bad, then_eof=bad is TRUNCATED
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
                assert len(replica.endpoint.accepted) == 1
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
            lost = _spy_on_lost(replica.endpoint)
            loop_errors = _spy_on_loop_errors()
            await replica.start()

            def query(op_id: str) -> Message:
                return make_batch("c1", server_id, [SubRequest(
                    "k", Message("c1", server_id, "query", {}, op_id, 1),
                    shard.shard_id, shard.epoch,
                )])

            try:
                good_reader, good_writer = await _open(replica.address)
                await write_frame(good_writer, query("op1"))
                assert (await read_frame(good_reader)).kind == "batch-ack"

                bad_reader, bad_writer = await _send_raw(
                    replica.address, bad, then_eof=False
                )
                assert await _closed_by_peer(bad_reader)
                bad_writer.close()
                # Refused at decode, as a typed error, on that connection only.
                assert len(lost) == 1 and isinstance(lost[0], FrameError)
                assert loop_errors == []
                assert replica.requests_served == 1

                await write_frame(good_writer, query("op2"))
                assert (await read_frame(good_reader)).kind == "batch-ack"
                assert len(replica.endpoint.accepted) == 1
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
            reader, writer = await _open(replica.address)
            await write_frame(writer, Message("p1", "s1", "ping"))
            await write_frame(writer, Message("p1", "s1", "ping"))
            assert (await read_frame(reader)).kind == "pong"
            assert replica._timers and replica.endpoint.accepted and replica.endpoint.peers
            await replica.stop()
            assert not replica._timers
            assert not replica.endpoint.accepted and not replica.endpoint.peers
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
                reader, writer = await _open(replica.address)
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

    def test_a_timer_frame_waits_behind_a_reply_held_in_service(self):
        class Expiring:
            """Answers a ping and arms a timer whose fire sends ``expired``
            to the same peer -- while the pong is still held in service."""

            server_id = "s1"

            def on_frame(self, frame):
                return [
                    SendFrame(frame.sender, frame.reply("pong", {})),
                    StartTimer(("expiry", frame.sender), 0.1),
                ]

            def on_timer(self, timer_id):
                peer = timer_id[1]
                return [SendFrame(peer, Message("s1", peer, "expired"))]

        async def scenario():
            replica = ReplicaServer(Expiring(), service_overhead=0.3)
            await replica.start()
            try:
                reader, writer = await _open(replica.address)
                await write_frame(writer, Message("p1", "s1", "ping"))
                kinds = [
                    (await asyncio.wait_for(read_frame(reader), 2.0)).kind
                    for _ in range(2)
                ]
                assert kinds == ["pong", "expired"]
                assert not replica._timers
                writer.close()
                await writer.wait_closed()
            finally:
                await replica.stop()

        asyncio.run(scenario())


class TestReplicaDiallers:
    """The dial side towards the replicas: a store's link, and a proxy."""

    @DIAL_OWNERS
    @BAD_FRAMES
    def test_bad_frame_from_a_replica_redials_and_ops_complete(self, bad, owner):
        async def scenario():
            cluster, store, engine, servers = await _replica_dialler(owner)
            try:
                await store.put("k", "v0")
                victim = servers[0]
                dialler = cluster.proxies["p1"] if owner == "proxy" else store._link
                link = dialler.endpoint.peers[victim]
                # The replica's side of the link misbehaves.
                peer_id = "p1" if owner == "proxy" else engine.link_id
                server_side = cluster.replicas[victim].endpoint.peers[peer_id]
                server_side.send(bad)
                if bad is TRUNCATED:
                    server_side.close()
                for i in range(4):  # quorums of S - t carry these
                    await store.put(f"k{i}", f"v{i}")
                await asyncio.sleep(0.2)  # let the redial land
                fresh = dialler.endpoint.peers[victim]
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

    @DIAL_OWNERS
    def test_a_redial_dying_on_a_non_oserror_reports_the_replica_lost(self, owner):
        async def scenario():
            cluster, store, engine, servers = await _replica_dialler(owner)
            lost = _spy_on_peer_lost(engine)
            try:
                await store.put("k", "v0")
                victim = servers[0]

                async def explode():
                    raise RuntimeError("the resolver exploded")

                _intercept_dials(cluster.replicas[victim].address, explode)
                writes = [
                    asyncio.create_task(store.put(f"k{i}", f"v{i}")) for i in range(4)
                ]
                await cluster.kill_server(victim)
                # Rounds that counted on the victim are replayed on the
                # surviving quorum, before and after the engine hears.
                await asyncio.wait_for(asyncio.gather(*writes), 5.0)
                await asyncio.sleep(5 * FAST_RETRY.reconnect_interval)
                assert lost == [victim]
                assert not _other_tasks()  # the redial is over, not retrying
                for i in range(4):
                    assert await store.get(f"k{i}") == f"v{i}"
                assert store.check().all_atomic
            finally:
                await store.close()
                await cluster.stop()

        asyncio.run(scenario())

    @DIAL_OWNERS
    def test_a_dial_cancelled_midway_leaves_no_connection_behind(self, owner):
        async def scenario():
            shard_map = ShardMap(2, num_groups=1)
            cluster = AsyncKVCluster(shard_map, fast())
            await cluster.start()
            loop = asyncio.get_running_loop()
            real_dial = loop.create_unix_connection
            second = shard_map.groups["g1"].servers[1]
            _intercept_dials(cluster.replicas[second].address, asyncio.Event().wait)
            store = KVStore(cluster, client_id="c1")
            try:
                dialling = asyncio.create_task(
                    cluster.start_proxies(1) if owner == "proxy" else store.connect()
                )
                await asyncio.sleep(0.05)  # the first replica is dialled by now
                dialling.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await dialling
                await store.close()
                await asyncio.sleep(0.02)
                assert not cluster.proxies
                for replica in cluster.replicas.values():
                    assert not replica.endpoint.accepted
                assert not _other_tasks()
                # Nothing is wedged: the same dials go through afterwards.
                loop.create_unix_connection = real_dial
                if owner == "proxy":
                    await cluster.start_proxies(1)
                store = KVStore(cluster, client_id="c2", use_proxy=owner == "proxy")
                await store.connect()
                await store.put("k", "v")
                assert await store.get("k") == "v"
            finally:
                await store.close()
                await cluster.stop()
            assert not _other_tasks()

        asyncio.run(scenario())

    @DIAL_OWNERS
    def test_closing_during_a_redial_sleep_leaves_no_task(self, owner):
        async def scenario():
            slow_redial = RetryPolicy(reconnect_interval=5.0, silence_window=0.1)
            cluster, store, _, servers = await _replica_dialler(owner, slow_redial)
            try:
                await store.put("k", "v")
                await cluster.kill_server(servers[0])
                await asyncio.sleep(0.05)
                assert _other_tasks()  # asleep between redials
                await store.close()
                for proxy in cluster.proxies.values():
                    await proxy.stop()
                assert not _other_tasks()
            finally:
                await store.close()
                await cluster.stop()

        asyncio.run(scenario())


class TestProxyEndpoints:
    @BAD_FRAMES
    def test_bad_frame_into_a_proxy_closes_only_that_connection(self, bad):
        async def scenario():
            cluster = AsyncKVCluster(ShardMap(2, num_groups=1), fast())
            await cluster.start()
            await cluster.start_proxies(1)
            store = KVStore(cluster, client_id="c1", use_proxy="p1")
            await store.connect()
            try:
                await store.put("k", "v1")
                reader, writer = await _send_raw(
                    cluster.proxy_endpoint("p1"), bad, then_eof=bad is TRUNCATED
                )
                assert await _closed_by_peer(reader)
                writer.close()
                await store.put("k", "v2")
                assert await store.get("k") == "v2"
                assert store.proxy_failovers == 0
                assert len(cluster.proxies["p1"].endpoint.accepted) == 1
            finally:
                await store.close()
                await cluster.stop()
            assert not _other_tasks()

        asyncio.run(scenario())

    @WRONG_SHAPED
    def test_wrong_shape_into_a_proxy_never_reaches_the_engine(self, bad):
        async def scenario():
            cluster = AsyncKVCluster(ShardMap(2, num_groups=1), fast())
            await cluster.start()
            await cluster.start_proxies(1)
            proxy = cluster.proxies["p1"]
            await proxy.stop()  # the listener binds ``_accept`` at start()
            lost = _spy_on_lost(proxy.endpoint)
            await proxy.start()
            loop_errors = _spy_on_loop_errors()
            store = KVStore(cluster, client_id="c1", use_proxy="p1")
            await store.connect()
            try:
                await store.put("k", "v1")
                reader, writer = await _send_raw(
                    cluster.proxy_endpoint("p1"), bad, then_eof=False
                )
                assert await _closed_by_peer(reader)
                writer.close()
                # Refused at decode, as a typed error, on that connection only.
                assert len(lost) == 1 and isinstance(lost[0], FrameError)
                assert loop_errors == []
                await store.put("k", "v2")
                assert await store.get("k") == "v2"
                assert store.proxy_failovers == 0
                assert len(proxy.endpoint.accepted) == 1
            finally:
                await store.close()
                await cluster.stop()
            assert loop_errors == []
            assert not _other_tasks()

        asyncio.run(scenario())

    def test_a_sub_naming_another_connection_is_answered_on_its_own(self):
        # A round's ``client`` is whom the replicas see; its ack goes back
        # over the connection the round came in on, never to that name.
        async def scenario():
            shard_map = ShardMap(1, num_groups=1, readers=2, writers=2)
            cluster = AsyncKVCluster(shard_map, fast())
            await cluster.start()
            await cluster.start_proxies(1)
            store = KVStore(cluster, client_id="c1", use_proxy="p1")
            await store.connect()
            try:
                await store.put("k", "v1")
                link = store.engine.link
                acks_before = link.proxy_stats.frames_received
                protocol = shard_map.shard_for("k").protocol
                query = next(protocol.make_opportunistic_reader("x9").read_protocol())
                sub = ProxySubRequest(
                    "k", "read", query.kind, query.payload, "x9-read-1", 1,
                    wait_for=query.wait_for, client=link.link_id,
                )
                reader, writer = await _open(cluster.proxy_endpoint("p1"))
                await write_frame(writer, make_proxy_request("x9", "p1", [sub]))
                ack = await asyncio.wait_for(read_frame(reader), timeout=2.0)
                assert ack.kind == PROXY_ACK_KIND and ack.receiver == "x9"
                (reply,) = unpack_proxy_ack(ack)
                assert reply.op_id == "x9-read-1" and reply.error is None
                assert len(reply.replies) == shard_map.shard_for("k").quorum_size
                await asyncio.sleep(0.05)
                # The link the sub named heard nothing of it.
                assert link.proxy_stats.frames_received == acks_before
                writer.close()
                await writer.wait_closed()
                await store.put("k", "v2")
                assert await store.get("k") == "v2"
            finally:
                await store.close()
                await cluster.stop()
            assert not _other_tasks()

        asyncio.run(scenario())

    def test_a_client_that_redialled_keeps_its_new_mapping(self):
        # The proxy's twin of test_reconnect_keeps_peer_routing_to_new_connection:
        # the old connection's loss lands after the new one delivered a frame.
        async def scenario():
            cluster = AsyncKVCluster(ShardMap(2, num_groups=1), fast())
            await cluster.start()
            await cluster.start_proxies(1)
            proxy = cluster.proxies["p1"]
            undeliverable: List[str] = []

            def scripted(frame):
                if frame.kind == "push":
                    dest = frame.payload["to"]
                    return [SendFrame(dest, Message("p1", dest, "oob"))]
                return [SendFrame(frame.sender, frame.reply("pong", {}))]

            proxy.engine.on_frame = scripted
            proxy.engine.on_frame_undeliverable = (
                lambda frame, exc, retryable: undeliverable.append(frame.receiver) or []
            )
            address = cluster.proxy_endpoint("p1")
            try:
                r1, w1 = await _open(address)
                await write_frame(w1, Message("c9", "p1", "hello"))
                assert (await read_frame(r1)).kind == "pong"
                r2, w2 = await _open(address)
                await write_frame(w2, Message("c9", "p1", "hello"))
                assert (await read_frame(r2)).kind == "pong"
                w1.close()
                await w1.wait_closed()
                await asyncio.sleep(0.05)
                r3, w3 = await _open(address)
                await write_frame(w3, Message("q1", "p1", "push", {"to": "c9"}))
                oob = await asyncio.wait_for(read_frame(r2), timeout=2.0)
                assert oob.kind == "oob" and oob.receiver == "c9"
                assert undeliverable == []
                # Once its last connection is gone the client is unmapped,
                # and the engine hears that a frame for it cannot go out.
                w2.close()
                await w2.wait_closed()
                await asyncio.sleep(0.05)
                await write_frame(w3, Message("q1", "p1", "push", {"to": "c9"}))
                await write_frame(w3, Message("q1", "p1", "hello"))
                assert (await read_frame(r3)).kind == "pong"
                assert undeliverable == ["c9"]
                w3.close()
                await w3.wait_closed()
            finally:
                await cluster.stop()
            assert not _other_tasks()

        asyncio.run(scenario())

    def test_a_client_naming_a_replica_does_not_take_its_route(self):
        # An inbound frame whose sender is a peer the proxy dials -- an id
        # collision or hostile input -- is dropped: the proxy's batches keep
        # going to the replica, connected or being redialled.
        async def scenario():
            cluster = AsyncKVCluster(ShardMap(2, num_groups=1), fast())
            await cluster.start()
            await cluster.start_proxies(1)
            proxy = cluster.proxies["p1"]
            victim = next(iter(cluster.replicas))
            seen: List[str] = []
            on_frame = proxy.engine.on_frame
            proxy.engine.on_frame = lambda frame: seen.append(frame.kind) or on_frame(frame)
            store = KVStore(cluster, client_id="c1", use_proxy="p1")
            await store.connect()
            try:
                dialled = proxy.endpoint.peers[victim]
                reader, writer = await _open(cluster.proxy_endpoint("p1"))
                await write_frame(writer, Message(victim, "p1", "hello"))
                await store.put("k", "v1")  # the impostor's frame has been read
                assert proxy.endpoint.peers[victim] is dialled
                assert "hello" not in seen
                # The same while the replica is down and being redialled ...
                await cluster.kill_server(victim)
                await _wait_until(lambda: victim not in proxy.endpoint.peers)
                await write_frame(writer, Message(victim, "p1", "hello"))
                await store.put("k", "v2")
                assert victim not in proxy.endpoint.peers and "hello" not in seen
                # ... so the redial brings back a route to the real one.
                await cluster.restart_server(victim)
                await _wait_until(lambda: victim in proxy.endpoint.peers)
                assert proxy.endpoint.peers[victim] not in proxy.endpoint.accepted
                assert await store.get("k") == "v2"
                writer.close()
                await writer.wait_closed()
            finally:
                await store.close()
                await cluster.stop()
            assert not _other_tasks()

        asyncio.run(scenario())

    @BAD_FRAMES
    def test_bad_frame_from_a_proxy_fails_the_store_over(self, bad):
        async def scenario():
            cluster = AsyncKVCluster(ShardMap(2, num_groups=1), fast())
            await cluster.start()
            await cluster.start_proxies(2)
            store = KVStore(cluster, client_id="c1", use_proxy="p1")
            await store.connect()
            try:
                await store.put("k", "v1")
                proxy_side = cluster.proxies["p1"].endpoint.peers[store.engine.link.link_id]
                proxy_side.send(bad)
                if bad is TRUNCATED:
                    proxy_side.close()
                await store.put("k", "v2")
                assert await store.get("k") == "v2"
                assert store.proxy_failovers == 1
                assert list(store._link.endpoint.peers) == ["p2"]
                assert store.check().all_atomic
            finally:
                await store.close()
                await cluster.stop()

        asyncio.run(scenario())


class TestScriptedEndpoint:
    """The send path with no socket: connections the endpoint built, on a
    scripted transport -- frames fed in, writes recorded."""

    class Forwarder:
        """Forwards each frame's body, ``times`` over, to the peer it names."""

        def __init__(self) -> None:
            self.undeliverable: List[tuple] = []

        def on_frame(self, frame):
            to = frame.payload["to"]
            body = frame.payload["body"] * frame.payload.get("times", 1)
            return [SendFrame(to, Message("o1", to, "out", {"body": body}))]

        def on_frame_undeliverable(self, frame, error, retryable=True):
            self.undeliverable.append((frame.receiver, type(error), retryable))
            return []

    def test_unmapped_closing_and_oversized_sends_report_to_the_engine(self):
        from repro.kvstore.net_backend import _Owner

        engine = self.Forwarder()
        owner = _Owner(engine)

        def dial_in(sender: str) -> FakeTransport:
            connection = owner.endpoint._accept()
            transport = FakeTransport(connection)
            connection.data_received(encode_message(
                Message(sender, "o1", "in", {"to": sender, "body": "hello"})
            ))
            return transport

        def forward(to: str, body: str, times: int = 1) -> None:
            first.protocol.data_received(encode_message(
                Message("c1", "o1", "in", {"to": to, "body": body, "times": times})
            ))

        def written(transport: FakeTransport) -> List[str]:
            return [decode_message(data[4:]).payload["body"] for data in transport.written]

        first, second = dial_in("c1"), dial_in("c2")
        assert set(owner.endpoint.peers) == {"c1", "c2"}
        assert written(first) == ["hello"] and written(second) == ["hello"]
        forward("c2", "across")
        assert written(second) == ["hello", "across"]

        forward("nobody", "lost")
        assert engine.undeliverable == [("nobody", ConnectionResetError, True)]
        # Closing, its loss not yet delivered: still mapped, no longer written to.
        second.closed = "close"
        forward("c2", "late")
        assert engine.undeliverable[1:] == [("c2", ConnectionResetError, True)]
        assert written(second) == ["hello", "across"]
        # Too large to encode: that round's problem, not the connection's.
        forward("c1", "x", times=MAX_FRAME_BYTES + 1)
        assert engine.undeliverable[2:] == [("c1", FrameError, False)]
        forward("c1", "still here")
        assert written(first) == ["hello", "still here"]
        assert first.closed is None and "c1" in owner.endpoint.peers
        # A peer that hangs up is unmapped with its connection.
        first.peer_closes()
        assert set(owner.endpoint.peers) == {"c2"} and len(owner.endpoint.accepted) == 1


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
            finally:
                loop.set_task_factory(None)
                await store.close()
                await cluster.stop()
            assert not _other_tasks()

        asyncio.run(scenario())
