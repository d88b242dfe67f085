"""Tests for the kv store on the discrete-event simulator backend."""

from __future__ import annotations

from collections.abc import Sized

import pytest

from repro.core.errors import SimulationError
from repro.kvstore.engine import SendFrame
from repro.kvstore import (
    KVOp,
    KVRunConfig,
    KVWorkload,
    ShardMap,
    SimKVCluster,
    generate_workload,
    run,
)
from repro.sim.delays import ConstantDelay, GeoDelay, UniformDelay


class TestWorkloadGeneration:
    def test_shapes(self):
        workload = generate_workload(num_clients=3, ops_per_client=10, num_keys=8, seed=1)
        assert workload.clients == ["c1", "c2", "c3"]
        assert workload.total_operations() == 30
        assert workload.keys <= {f"k{i}" for i in range(1, 9)}

    def test_first_op_per_client_is_a_put(self):
        workload = generate_workload(num_clients=2, ops_per_client=5, num_keys=4,
                                     read_fraction=1.0, seed=3)
        for ops in workload.sequences.values():
            assert ops[0].kind == "put"

    def test_kvop_validation(self):
        with pytest.raises(ValueError):
            KVOp("put", "k1")
        with pytest.raises(ValueError):
            KVOp("delete", "k1")
        assert KVOp("get", "k1").value is None

    def test_deterministic_for_seed(self):
        a = generate_workload(seed=9)
        b = generate_workload(seed=9)
        assert a.sequences == b.sequences


class TestSimBackend:
    def test_run_completes_and_is_atomic_per_key(self):
        workload = generate_workload(num_clients=3, ops_per_client=12, num_keys=10,
                                     seed=2, pipeline_depth=4)
        result = run(KVRunConfig(num_shards=2, max_batch=8), workload)
        assert result.backend == "sim"
        assert result.completed_ops == workload.total_operations()
        verdict = result.check()
        assert verdict.all_atomic, verdict.summary()
        assert set(result.histories) == workload.keys

    def test_reads_return_latest_written_value(self):
        # One client, one key, sequential ops: the read must see the put.
        workload = KVWorkload(
            sequences={"c1": [KVOp("put", "k1", "v0"), KVOp("put", "k1", "v1"),
                              KVOp("get", "k1")]},
            pipeline_depth=1,
        )
        result = run(KVRunConfig(num_shards=2), workload)
        history = result.histories["k1"]
        read = history.reads[-1]
        assert read.value == "v1"

    def test_per_key_serialization_same_client(self):
        # Pipelined ops on the SAME key by one client must stay sequential,
        # giving a well-formed per-key history.
        ops = [KVOp("put", "hot", f"v{i}") for i in range(5)] + [KVOp("get", "hot")]
        workload = KVWorkload(sequences={"c1": ops}, pipeline_depth=6)
        result = run(KVRunConfig(num_shards=1), workload)
        history = result.histories["hot"]
        assert history.is_well_formed()
        assert result.check().all_atomic

    def test_batching_reduces_messages(self):
        workload = generate_workload(num_clients=4, ops_per_client=15, num_keys=12,
                                     seed=5, pipeline_depth=6)
        unbatched = run(KVRunConfig(num_shards=1, max_batch=1), workload)
        batched = run(KVRunConfig(num_shards=1, max_batch=8), workload)
        assert batched.messages_sent < unbatched.messages_sent
        assert batched.batch_stats.mean_batch_size > 1.0
        assert batched.check().all_atomic and unbatched.check().all_atomic

    def test_throughput_rises_with_shards_under_load(self):
        workload = generate_workload(num_clients=5, ops_per_client=20, num_keys=32,
                                     seed=7, pipeline_depth=5)
        few = run(KVRunConfig(
            num_shards=1, delay_model=ConstantDelay(1.0),
            service_overhead=0.3, service_per_op=0.3,
        ), workload)
        many = run(KVRunConfig(
            num_shards=4, delay_model=ConstantDelay(1.0),
            service_overhead=0.3, service_per_op=0.3,
        ), workload)
        assert many.throughput() > few.throughput()
        assert many.check().all_atomic and few.check().all_atomic

    def test_fast_read_protocol_on_shards(self):
        workload = generate_workload(num_clients=2, ops_per_client=10, num_keys=6,
                                     seed=11, pipeline_depth=3)
        result = run(KVRunConfig(
            num_shards=2,
            protocol_key="fast-read-mwmr",
            servers_per_shard=5,
            delay_model=UniformDelay(0.5, 1.5, seed=11),
        ), workload)
        assert result.check().all_atomic
        # Fast reads: every read finishes in one round-trip.
        for history in result.histories.values():
            for op in history.reads:
                assert op.round_trips == 1

    def test_run_result_row_and_stats(self):
        workload = generate_workload(num_clients=2, ops_per_client=6, num_keys=4, seed=3)
        result = run(KVRunConfig(num_shards=2), workload)
        row = result.as_row()
        assert row["backend"] == "sim" and row["shards"] == 2
        assert row["atomic"] is True
        assert result.read_stats().p50 > 0
        assert result.throughput() > 0


class TestSimKVClusterDirect:
    def test_interactive_puts_and_gets(self):
        shard_map = ShardMap(2, readers=1, writers=1)
        cluster = SimKVCluster(shard_map, ["c1"])
        outcomes = []
        cluster.invoke("c1", "put", "a", "x", on_complete=outcomes.append)
        cluster.invoke("c1", "put", "b", "y", on_complete=outcomes.append)
        cluster.run()
        cluster.invoke("c1", "get", "a", on_complete=outcomes.append)
        cluster.run()
        assert outcomes[-1].value == "x"
        assert cluster.recorder.completed_operations == 3
        assert cluster.batch_stats().rounds > 0

    def test_run_raises_at_its_event_cap(self):
        cluster = SimKVCluster(ShardMap(1, readers=1, writers=1), ["c1"])
        cluster.start_autoscaler()  # the tick rearms itself forever
        with pytest.raises(SimulationError, match="event cap of 50"):
            cluster.run(max_events=50)
        assert not cluster.fabric.running


class TestOneLinkPerSite:
    """The clients of one site are sessions on one ``ClientLink``, the link a
    process of the fabric, as a process's stores share one link on asyncio."""

    def test_clients_on_a_hot_key_share_proxy_frames_and_queries(self):
        # Per-key order keeps each client to one op on the key at a time, so
        # a private link would send one round per proxy frame and coalesce
        # nothing; the shared link merges the clients' rounds into frames
        # and lets concurrent reads ride one query.
        workload = generate_workload(
            num_clients=4, ops_per_client=24, num_keys=1, read_fraction=0.9,
            pipeline_depth=4, seed=3,
        )
        result = run(KVRunConfig(backend="sim", proxies=1, read_cache=0), workload)
        assert result.completed_ops == 96 and result.check().all_atomic
        leg = result.proxy_leg
        assert leg["stores"] == 4 and result.direct_link is None
        assert leg["frames_sent"] < leg["sub_ops"]
        assert leg["rounds_coalesced"] > 0

    def _geo_cluster(self):
        shard_map = ShardMap(1, num_groups=1, readers=3, writers=3)
        servers = shard_map.all_servers
        sites = {servers[0]: "east", servers[1]: "west", servers[2]: "east",
                 "c1": "east", "c2": "west", "c3": "east"}
        model = GeoDelay(sites, local_delay=0.5, wan_delay=8.0, jitter_fraction=0.0)
        config = KVRunConfig(delay_model=model)
        return SimKVCluster(shard_map, ["c1", "c2", "c3"], config), sites, model

    def test_a_geo_run_has_one_link_per_site_in_order_of_first_appearance(self):
        cluster, _, _ = self._geo_cluster()
        assert {
            link_id: [session.client_id for session in link.sessions]
            for link_id, link in cluster.links.items()
        } == {"link-1": ["c1", "c3"], "link-2": ["c2"]}
        assert all(cluster.clients[c].link is cluster.links["link-1"] for c in ("c1", "c3"))

    def test_the_callers_sites_place_links_and_proxies_alike(self):
        # One mapping decides both, whatever the delay model: a site's
        # clients share a link and dial that site's proxy.
        shard_map = ShardMap(1, num_groups=1, readers=3, writers=3)
        sites = {"c1": "us", "c2": "eu", "c3": "us", "p1": "us", "p2": "eu"}
        cluster = SimKVCluster(
            shard_map, ["c1", "c2", "c3"], KVRunConfig(proxies=2), sites=sites
        )
        assert {
            link_id: [session.client_id for session in link.sessions]
            for link_id, link in cluster.links.items()
        } == {"link-1": ["c1", "c3"], "link-2": ["c2"]}
        assert [cluster.clients[c].proxy_id for c in ("c1", "c2", "c3")] == ["p1", "p2", "p1"]

    def test_a_links_frames_take_its_sites_delays(self):
        cluster, sites, model = self._geo_cluster()
        fabric = cluster.fabric
        sent_at, transit = {}, {}
        for link in cluster.links.values():
            def flushing(timer_id, method=link.on_timer):
                effects = method(timer_id)
                for effect in effects:
                    if isinstance(effect, SendFrame):
                        sent_at[id(effect.frame)] = fabric.now
                return effects

            link.on_timer = flushing  # the runtime looks it up per fire
        deliver = fabric.deliver

        def tapped(effect):
            key = (effect.frame.sender, effect.destination)
            if key[0] in cluster.links:
                transit.setdefault(key, fabric.now - sent_at[id(effect.frame)])
            deliver(effect)

        fabric.deliver = tapped
        for client_id in ("c1", "c2"):
            cluster.invoke(client_id, "put", f"k-{client_id}", "v")
        cluster.run()
        assert cluster.recorder.completed_operations == 2
        site_of = {"link-1": "east", "link-2": "west"}
        assert len(transit) == 6  # each link's update asks every replica
        for (link, server), took in transit.items():
            expected = (
                model.local_delay if sites[server] == site_of[link] else model.wan_delay
            )
            assert took == expected, (link, server, took)


class TestFabricFootprint:
    """The simulated world keeps counters, not a per-message or per-op log."""

    @staticmethod
    def run_cluster(ops_per_client):
        workload = generate_workload(num_clients=2, ops_per_client=ops_per_client,
                                     num_keys=8, seed=5)
        config = KVRunConfig(proxies=1, read_cache=16)
        cluster = SimKVCluster(
            config.cluster_map(len(workload.clients)), workload.clients, config
        )

        def chain(client_id, remaining):
            def issue_next(_outcome=None):
                if remaining:
                    op = remaining.pop()
                    cluster.invoke(client_id, op.kind, op.key, op.value, issue_next)

            return issue_next

        for client_id, ops in workload.sequences.items():
            chain(client_id, list(reversed(ops)))()
        cluster.run()
        assert cluster.recorder.completed_operations == workload.total_operations()
        return cluster.fabric

    def test_ten_times_the_ops_leave_every_container_the_same_length(self):
        def lengths(fabric):
            found = {}
            for owner, holder in [("fabric", fabric), *fabric.runtimes.items()]:
                for name, value in vars(holder).items():
                    if isinstance(value, Sized) and not isinstance(value, str):
                        found[owner, name] = len(value)
            return found

        small, large = self.run_cluster(10), self.run_cluster(100)
        assert large.sent > 5 * small.sent
        assert lengths(small) == lengths(large)
        assert small.connections == large.connections == {}  # nothing in flight
