"""A reader that stops reading throttles only itself (the accept side).

A replica answers every query over the connection the query came in on.  A
peer that keeps sending queries and never reads the replies would make the
replica's transport buffer every reply it wrote -- unbounded memory for one
misbehaving peer.  An accepted ``FramedConnection`` stops reading from its
peer while its own write buffer is over the transport's high-water mark, so
that peer's queries wait in the socket, not in the replica's memory, and
every other connection of the replica is served as before.  Dialled
connections keep reading: a replica and the link or proxy that dialled it
never wait on each other.
"""

from __future__ import annotations

import asyncio

from repro.asyncio_net.codec import encode_message, read_frame
from repro.core.timestamps import Tag
from repro.kvstore import AsyncKVCluster, KVStore, ShardMap
from repro.messages import BATCH_ACK_KIND, Message, SubRequest, make_batch, unpack_batch_ack
from repro.protocols.codec import encode_tagged

from test_kvstore_failover import fast
from test_transport_endpoints import _wait_until

#: The stored value: every reply to a query of it is a frame this large.
VALUE_BYTES = 200_000
#: Queries the stalled reader sends: far more replies than the high-water
#: mark holds.
QUERIES = 40
#: Queries of the flood: 2 GB of replies, were they all written.
FLOOD = 10_000


async def stalled_reader(cluster: AsyncKVCluster, queries: int):
    """A raw client that stores the large value at a replica, sends it
    ``queries`` queries of it and reads nothing; returns the replica, the
    client's stream pair, the replica's transport to it and the bound on
    that transport's write buffer, once the replica stopped reading it."""
    spec = cluster.shard_map.shards_on("g1")[0]
    server_id = spec.group.servers[0]
    replica = cluster.replicas[server_id]
    reader, writer = await asyncio.open_unix_connection(replica.address)

    def frame(number: int, kind: str, payload) -> bytes:
        message = Message("raw", server_id, kind, payload, f"raw-{number}", 1)
        sub = SubRequest("big", message, spec.shard_id, spec.epoch, None)
        return encode_message(make_batch("raw", server_id, [sub]))

    value = "v" * VALUE_BYTES
    writer.write(frame(0, "update", encode_tagged(Tag(1, "raw"), value)))
    for number in range(1, queries + 1):
        writer.write(frame(number, "query", {}))
    # The raw client never reads: the replica's replies back up until it
    # stops reading the raw connection.
    await _wait_until(lambda: "raw" in replica.endpoint.peers)
    transport = replica.endpoint.peers["raw"].transport
    await _wait_until(lambda: not transport.is_reading())
    _, high = transport.get_write_buffer_limits()
    bound = high + VALUE_BYTES + 1024  # high water plus one frame
    assert transport.get_write_buffer_size() <= bound
    return replica, (reader, writer), transport, bound


async def served_meanwhile(store: KVStore, server_id: str) -> None:
    """The store's put and get complete, and ``server_id`` answered it."""
    acked_by = []
    link = store.engine.link
    on_frame = link.on_frame

    def spy(frame_in):
        if frame_in.kind == BATCH_ACK_KIND and unpack_batch_ack(frame_in):
            acked_by.append(frame_in.sender)
        return on_frame(frame_in)

    link.on_frame = spy
    await asyncio.wait_for(store.put("other", "w"), 5.0)
    assert await asyncio.wait_for(store.get("other"), 5.0) == "w"
    await _wait_until(lambda: server_id in acked_by)


class TestAStalledReaderThrottlesOnlyItself:
    def test_the_replica_stops_reading_it_and_serves_a_second_store(self):
        async def scenario():
            cluster = AsyncKVCluster(ShardMap(1), fast())
            await cluster.start()
            store = KVStore(cluster, client_id="c1")
            await store.connect()
            replica, (reader, writer), transport, bound = await stalled_reader(
                cluster, QUERIES
            )
            try:
                # It stopped long before the queries ran out.
                assert replica.requests_served < QUERIES

                # The second store is served by the same replica meanwhile.
                await served_meanwhile(store, replica.server_id)
                assert transport.get_write_buffer_size() <= bound
                assert not transport.is_reading()

                # Once the raw client reads, every one of its queries is answered.
                replies = [
                    await asyncio.wait_for(read_frame(reader), 5.0)
                    for _ in range(QUERIES + 1)
                ]
                acks = [reply for frame_in in replies for reply in unpack_batch_ack(frame_in)]
                assert [ack.op_id for ack in acks] == [
                    f"raw-{number}" for number in range(QUERIES + 1)
                ]
                assert all(len(ack.payload["value"]) == VALUE_BYTES for ack in acks[1:])
                assert transport.is_reading()
            finally:
                writer.close()
                await writer.wait_closed()
                await store.close()
                await cluster.stop()

        asyncio.run(scenario())

    def test_a_flood_of_unread_queries_waits_in_the_socket(self):
        async def scenario():
            cluster = AsyncKVCluster(ShardMap(1), fast())
            await cluster.start()
            store = KVStore(cluster, client_id="c1")
            await store.connect()
            replica, (_, writer), transport, bound = await stalled_reader(
                cluster, FLOOD
            )
            try:
                assert replica.requests_served < FLOOD // 100
                await served_meanwhile(store, replica.server_id)
                assert transport.get_write_buffer_size() <= bound
                assert replica.requests_served < FLOOD // 100
            finally:
                # The replies are never read: drop the connection with the
                # queries still queued behind it (a close would wait for
                # them to drain).
                writer.transport.abort()
                await store.close()
                await cluster.stop()

        asyncio.run(scenario())
