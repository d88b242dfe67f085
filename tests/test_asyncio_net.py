"""Tests for the asyncio transport: codec, replica server, cluster runs."""

from __future__ import annotations

import asyncio

import pytest

from repro.asyncio_net.cluster import LocalCluster, run_closed_loop_workload
from repro.asyncio_net.codec import decode_message, encode_message
from repro.asyncio_net.server import ReplicaServer
from repro.consistency import check_atomicity
from repro.core.errors import ConfigurationError, ProtocolError
from repro.core.timestamps import Tag
from repro.protocols.base import Broadcast
from repro.protocols.codec import encode_tag
from repro.protocols.registry import PROTOCOLS, build_protocol
from repro.protocols.server_state import TagValueServer
from repro.messages import Message
from repro.util.ids import server_ids


class TestCodec:
    def test_message_round_trip(self):
        message = Message(
            "r1", "s1", "read", {"val_queue": {"1|w1": "x"}}, op_id="op-1", round_trip=2
        )
        encoded = encode_message(message)
        decoded = decode_message(encoded[4:])
        assert decoded.sender == "r1" and decoded.receiver == "s1"
        assert decoded.kind == "read"
        assert decoded.payload == {"val_queue": {"1|w1": "x"}}
        assert decoded.op_id == "op-1" and decoded.round_trip == 2

    def test_frame_length_prefix(self):
        message = Message("a", "b", "ping")
        encoded = encode_message(message)
        length = int.from_bytes(encoded[:4], "big")
        assert length == len(encoded) - 4


class TestReplicaServer:
    def test_serves_requests_over_tcp(self):
        async def scenario():
            replica = ReplicaServer(TagValueServer("s1"))
            await replica.start()
            try:
                reader, writer = await asyncio.open_connection(*replica.address)
                from repro.asyncio_net.codec import read_frame, write_frame

                await write_frame(
                    writer,
                    Message("w1", "s1", "update",
                            {"tag": encode_tag(Tag(1, "w1")), "value": "hello"}),
                )
                reply = await read_frame(reader)
                assert reply.kind == "update-ack"
                await write_frame(writer, Message("r1", "s1", "query"))
                reply = await read_frame(reader)
                assert reply.payload["value"] == "hello"
                writer.close()
                await writer.wait_closed()
                assert replica.requests_served == 2
            finally:
                await replica.stop()

        asyncio.run(scenario())

    def test_reconnect_keeps_peer_routing_to_new_connection(self):
        """A peer that redials must keep receiving out-of-band frames.

        The old connection's teardown races the new registration: its
        cleanup must not delete the peer-map entry once it points at the
        new writer, or lease invalidations and deferred batch-acks would
        silently drop until the peer's next inbound frame.
        """

        class EffectStub:
            """Effect-driven logic: 'push' frames ask the server to send
            an out-of-band frame to another peer; everything else pongs."""

            server_id = "s1"

            def on_frame(self, frame):
                from repro.kvstore.engine.effects import SendFrame

                if frame.kind == "push":
                    dest = frame.payload["to"]
                    return [SendFrame(dest, Message("s1", dest, "oob"))]
                return [SendFrame(frame.sender, frame.reply("pong", {}))]

            def on_timer(self, timer_id):
                return []

        async def scenario():
            from repro.asyncio_net.codec import read_frame, write_frame

            replica = ReplicaServer(EffectStub())
            await replica.start()
            try:
                r1, w1 = await asyncio.open_connection(*replica.address)
                await write_frame(w1, Message("p1", "s1", "hello"))
                assert (await read_frame(r1)).kind == "pong"
                # The peer redials: the same sender id now maps to the new
                # connection, while the old one is still open.
                r2, w2 = await asyncio.open_connection(*replica.address)
                await write_frame(w2, Message("p1", "s1", "hello"))
                assert (await read_frame(r2)).kind == "pong"
                # Tear the OLD connection down; its cleanup must leave the
                # remapped peer entry alone.
                w1.close()
                await w1.wait_closed()
                await asyncio.sleep(0.05)
                r3, w3 = await asyncio.open_connection(*replica.address)
                await write_frame(w3, Message("q1", "s1", "push", {"to": "p1"}))
                oob = await asyncio.wait_for(read_frame(r2), timeout=2.0)
                assert oob.kind == "oob" and oob.receiver == "p1"
                for w in (w2, w3):
                    w.close()
                    await w.wait_closed()
            finally:
                await replica.stop()

        asyncio.run(scenario())


def _tcp_protocols():
    """Every registry protocol that takes S = 5, t = 1, R = W = 2, except the
    deliberately non-atomic candidates."""
    keys = []
    for key in PROTOCOLS:
        try:
            build_protocol(key, server_ids(5), 1, readers=2, writers=2)
        except ConfigurationError:
            continue
        if not key.endswith("-attempt"):
            keys.append(key)
    return keys


TCP_PROTOCOLS = _tcp_protocols()


class TestClusterIntegration:
    def test_every_atomic_protocol_runs_over_tcp(self):
        assert sorted(TCP_PROTOCOLS) == [
            "abd-mwmr", "abd-swmr", "byzantine-safe-mwmr", "fast-read-mwmr",
            "fast-swmr", "semifast-swmr",
        ]

    @pytest.mark.parametrize("key", TCP_PROTOCOLS)
    def test_registry_protocol_keeps_its_round_trips_over_tcp(self, key):
        protocol = build_protocol(key, server_ids(5), 1, readers=2, writers=2)
        result = run_closed_loop_workload(protocol, writes_per_writer=3, reads_per_reader=4)
        verdict = check_atomicity(result.history)
        assert verdict.atomic, verdict.report.summary()
        assert max(result.write_round_trips) == protocol.write_round_trips
        # Declared counts are worst cases: a semifast read takes 1 of its 2.
        assert max(result.read_round_trips) <= protocol.read_round_trips
        assert len(result.write_round_trips) == 3 * protocol.writers
        assert len(result.read_round_trips) == 8

    @pytest.mark.parametrize("key,expected_read_rtts", [
        ("abd-mwmr", 2),
        ("fast-read-mwmr", 1),
    ])
    def test_closed_loop_is_atomic(self, key, expected_read_rtts):
        protocol = build_protocol(key, server_ids(5), 1, readers=2, writers=2)
        result = run_closed_loop_workload(protocol, writes_per_writer=3, reads_per_reader=5)
        verdict = check_atomicity(result.history)
        assert verdict.atomic, verdict.report.summary()
        assert max(result.read_round_trips) == expected_read_rtts
        assert len(result.read_latencies) == 10
        assert result.read_stats().p50 > 0

    def test_single_writer_fast_register(self):
        protocol = build_protocol("fast-swmr", server_ids(5), 1, readers=2)
        result = run_closed_loop_workload(protocol, writes_per_writer=3, reads_per_reader=4)
        assert check_atomicity(result.history).atomic
        assert max(result.write_round_trips) == 1
        assert max(result.read_round_trips) == 1

    def test_cluster_start_stop_idempotent(self):
        async def scenario():
            protocol = build_protocol("abd-mwmr", server_ids(3), 1)
            cluster = LocalCluster(protocol)
            await cluster.start()
            assert len(cluster.replicas) == 3
            assert len(cluster.writers) == 2 and len(cluster.readers) == 2
            await cluster.stop()
            assert not cluster.replicas and not cluster.writers

        asyncio.run(scenario())

    def test_client_straggler_replies_ignored(self):
        async def scenario():
            protocol = build_protocol("abd-mwmr", server_ids(3), 1)
            cluster = LocalCluster(protocol)
            await cluster.start()
            try:
                writer_id = next(iter(cluster.writers))
                reader_id = next(iter(cluster.readers))
                for i in range(3):
                    await cluster.write(writer_id, f"v{i}")
                outcome = await cluster.read(reader_id)
                assert outcome.value == "v2"
                last = cluster.history().operations[-1]
                assert last.is_read and last.round_trips == 2
            finally:
                await cluster.stop()

        asyncio.run(scenario())

    def test_one_op_id_per_operation_in_one_history(self):
        async def scenario():
            cluster = LocalCluster(build_protocol("abd-mwmr", server_ids(3), 1))
            await cluster.start()
            try:
                await cluster.write("w1", "x")
                await cluster.read("r1")
            finally:
                await cluster.stop()
            write, read = cluster.history().operations
            # The id the client sent its round-trips under, and the only
            # one drawn: the read's is the next after the write's.
            assert write.op_id.startswith("w1-write-") and read.op_id.startswith("r1-read-")
            assert int(read.op_id.rsplit("-", 1)[1]) == int(write.op_id.rsplit("-", 1)[1]) + 1
            assert read.value == "x" and write.precedes(read)

        asyncio.run(scenario())

    def test_a_client_that_raises_fails_its_waiting_operation(self):
        def broken_read():
            yield Broadcast("query")
            raise ProtocolError("malformed reply")

        async def scenario():
            cluster = LocalCluster(build_protocol("abd-mwmr", server_ids(3), 1))
            await cluster.start()
            try:
                cluster.readers["r1"].logic.read_protocol = broken_read
                with pytest.raises(ProtocolError, match="malformed reply"):
                    await asyncio.wait_for(cluster.read("r1"), timeout=5)
                # The other clients' connections were not torn down by it.
                await cluster.write("w1", "after")
                assert (await cluster.read("r2")).value == "after"
            finally:
                await cluster.stop()

        asyncio.run(scenario())
