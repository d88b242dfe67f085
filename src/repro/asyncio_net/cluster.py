"""A local asyncio cluster: replicas plus connected clients in one process.

The wall-clock counterpart of :class:`repro.sim.Simulation`, running the
same client automaton: one TCP replica per server of a
:class:`~repro.protocols.base.RegisterProtocol`, and the protocol's writers
and readers as :class:`~repro.sim.client.ClientProcess` objects on a
:class:`~repro.asyncio_net.client.TcpNetwork`, recording into one
:class:`~repro.consistency.history.HistoryRecorder` on ``time.monotonic()``.
A closed-loop run's latencies and round-trips are read off that history.
:mod:`repro.asyncio_net` does not import this module (nor ``repro.sim``).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..consistency.history import History, HistoryRecorder
from ..protocols.base import ClientLogic, OperationOutcome, RegisterProtocol
from ..sim.client import REGISTER_KEY, ClientProcess
from ..util.ids import client_ids
from ..util.stats import LatencyStats, summarize
from .client import TcpNetwork
from .server import ReplicaServer

__all__ = ["ClusterResult", "LocalCluster", "run_closed_loop_workload"]


@dataclass
class ClusterResult:
    """A cluster workload run's history, and the figures read off it."""

    history: History
    write_latencies: List[float] = field(init=False)
    read_latencies: List[float] = field(init=False)
    write_round_trips: List[int] = field(init=False)
    read_round_trips: List[int] = field(init=False)

    def __post_init__(self) -> None:
        history = self.history
        self.write_round_trips, self.read_round_trips = history.round_trip_counts()
        self.write_latencies = [op.finish - op.start for op in history.writes if op.is_complete]
        self.read_latencies = [op.finish - op.start for op in history.reads if op.is_complete]

    def write_stats(self) -> LatencyStats:
        return summarize(self.write_latencies)

    def read_stats(self) -> LatencyStats:
        return summarize(self.read_latencies)


class LocalCluster:
    """Replica servers and the protocol's client processes, on loopback TCP."""

    def __init__(self, protocol: RegisterProtocol) -> None:
        self.protocol = protocol
        self.replicas: Dict[str, ReplicaServer] = {}
        self.writers: Dict[str, ClientProcess] = {}
        self.readers: Dict[str, ClientProcess] = {}
        self.recorder = HistoryRecorder(time.monotonic)
        self._network: Optional[TcpNetwork] = None
        self._waiting: Set[asyncio.Future] = set()

    async def start(self) -> None:
        for server_id in self.protocol.servers:
            replica = ReplicaServer(self.protocol.make_server(server_id))
            await replica.start()
            self.replicas[server_id] = replica
        addresses = {sid: replica.address for sid, replica in self.replicas.items()}
        self._network = TcpNetwork(addresses, self._fail)
        for writer_id in client_ids("w", self.protocol.writers):
            self.writers[writer_id] = self._attach(writer_id, self.protocol.make_writer(writer_id))
        for reader_id in client_ids("r", self.protocol.readers):
            self.readers[reader_id] = self._attach(reader_id, self.protocol.make_reader(reader_id))
        await self._network.connect()

    def _attach(self, client_id: str, logic: ClientLogic) -> ClientProcess:
        client = ClientProcess(client_id, logic, self.protocol.servers, self.recorder)
        client.attach(self._network)
        return client

    async def stop(self) -> None:
        if self._network is not None:
            await self._network.close()
            self._network = None
        for replica in self.replicas.values():
            await replica.stop()
        self.replicas, self.writers, self.readers = {}, {}, {}

    def write(self, writer_id: str, value) -> "asyncio.Future[OperationOutcome]":
        """Invoke ``write(value)``; the future resolves at its response."""
        return self._invoke(self.writers[writer_id].invoke_write, value)

    def read(self, reader_id: str) -> "asyncio.Future[OperationOutcome]":
        """Invoke ``read()``; the future resolves at its response."""
        return self._invoke(self.readers[reader_id].invoke_read)

    def _invoke(self, invoke, *args) -> "asyncio.Future[OperationOutcome]":
        done = asyncio.get_running_loop().create_future()
        invoke(*args, on_complete=lambda outcome: done.done() or done.set_result(outcome))
        self._waiting.add(done)
        done.add_done_callback(self._waiting.discard)
        return done

    def _fail(self, exc: Exception) -> None:
        """A client automaton raised: as the simulator's run stops there,
        every operation still waiting on the cluster fails with it."""
        for done in list(self._waiting):
            if not done.done():
                done.set_exception(exc)

    def history(self) -> History:
        """Every operation the cluster's clients invoked, in invocation order."""
        return self.recorder.history(REGISTER_KEY)

    async def run_closed_loop(
        self, writes_per_writer: int = 5, reads_per_reader: int = 10
    ) -> ClusterResult:
        """Writers and readers issue operations back-to-back, concurrently."""
        first = len(self.history())

        async def writer_loop(writer_id: str) -> None:
            for index in range(writes_per_writer):
                await self.write(writer_id, f"v-{writer_id}-{index}")

        async def reader_loop(reader_id: str) -> None:
            for _ in range(reads_per_reader):
                await self.read(reader_id)

        await asyncio.gather(*map(writer_loop, self.writers), *map(reader_loop, self.readers))
        return ClusterResult(History(self.history().operations[first:]))


def run_closed_loop_workload(
    protocol: RegisterProtocol, writes_per_writer: int = 5, reads_per_reader: int = 10
) -> ClusterResult:
    """Convenience wrapper: start a cluster, run the workload, tear it down."""

    async def _run() -> ClusterResult:
        cluster = LocalCluster(protocol)
        await cluster.start()
        try:
            return await cluster.run_closed_loop(writes_per_writer, reads_per_reader)
        finally:
            await cluster.stop()

    return asyncio.run(_run())
