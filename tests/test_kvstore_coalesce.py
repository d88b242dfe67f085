"""One query per key per flush: concurrent reads of a hot key share one round.

At a flush, a first attempt whose kind its protocol answers from register
state alone rides the first round of its key queued ahead of it that asks the
same, and completes from that round's quorum (``engine/rounds.py``).  The
property below runs the simulated store with clients sharing links -- the
only place two sessions' rounds of one key can meet before a proxy -- on
jittered FIFO delays, and asks every key's history to be atomic and the run
to have coalesced at all.  The rows after it pin each way a leader can leave
the normal path, and where nothing may coalesce.

The nightly workflow runs the property on hypothesis seeds 1-10.
"""

from __future__ import annotations

from collections import deque
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operations import OpKind
from repro.kvstore import (
    KVRunConfig,
    ShardMap,
    SimKVCluster,
    check_per_key_atomicity,
    generate_workload,
)
from repro.kvstore.engine import ClientLink, OpFailed
from repro.messages import BATCH_KIND, unpack_batch
from repro.sim.delays import ConstantDelay, GeoDelay, UniformDelay

from test_kvstore_rounds import Rig


class World:
    """A simulated store whose clients share links.

    ``ingresses[i]`` is the first proxy of client ``c<i+1>`` (``None``:
    direct to the replicas; the other proxies follow it on its failover
    list), and ``links[i]`` the id of the link it rides.
    """

    def __init__(self, ingresses, links=None, **settings):
        settings.setdefault("proxies", 2)
        config = KVRunConfig(backend="sim", **settings)
        clients = [f"c{index}" for index in range(1, len(ingresses) + 1)]
        self.cluster = SimKVCluster(config.cluster_map(len(clients)), [], config)
        self.fabric = self.cluster.fabric
        proxies = list(self.cluster.proxy_engines)
        links = links or ["L"] * len(clients)
        self.links = {}
        for link_id in dict.fromkeys(links):
            link = self.links[link_id] = ClientLink(
                link_id, policy=config.setting("retry_policy"),
                observer=self.cluster.hub.scoped("client", link_id),
                clock=self.cluster.clock,
            )
            self.fabric.register(link_id, link)
        self.sessions = {}
        self.link_of = {}
        for client_id, ingress, link_id in zip(clients, ingresses, links):
            candidates = [] if ingress is None else [
                ingress, *(proxy for proxy in proxies if proxy != ingress)
            ]
            self.sessions[client_id] = self.cluster.client_engine(
                client_id, self.cluster.recorder, max_batch=config.max_batch,
                proxy_candidates=candidates, link=self.links[link_id],
            )
            self.link_of[client_id] = link_id
        for link_id, link in self.links.items():
            for proxy_id in proxies:
                self.fabric.execute(link_id, link.on_connected(proxy_id))

    def invoke(self, client_id, kind, key, value=None, then=None):
        op_id, effects = self.sessions[client_id].invoke(
            OpKind.WRITE if kind == "put" else OpKind.READ, key, value
        )
        if then is not None:
            self.fabric.callbacks[op_id] = then
        self.fabric.execute(self.link_of[client_id], effects)
        return op_id

    def close(self, client_id):
        """Close a session; its failed operations are returned, not raised."""
        effects = self.sessions[client_id].close()
        self.fabric.execute(self.link_of[client_id], [
            effect for effect in effects if not isinstance(effect, OpFailed)
        ])
        return [effect for effect in effects if isinstance(effect, OpFailed)]

    def coalesced(self):
        """Rounds that rode another's query, on every link and proxy."""
        return sum(
            link.stats.rounds_coalesced + link.proxy_stats.rounds_coalesced
            for link in self.links.values()
        ) + sum(
            proxy.stats.rounds_coalesced
            for proxy in self.cluster.proxy_engines.values()
        )

    def atomic(self):
        return check_per_key_atomicity(self.cluster.recorder.histories()).all_atomic

    def completed(self):
        return self.cluster.recorder.completed_operations

    def frames_to(self, destination):
        """Tap every frame sent to ``destination`` from now on."""
        seen = []
        deliver = self.fabric.deliver

        def tapped(effect):
            if effect.destination == destination:
                seen.append(effect.frame)
            deliver(effect)

        self.fabric.deliver = tapped
        return seen


# -- the property --------------------------------------------------------------


def _geo(seed, clients):
    shard_map = ShardMap(2, num_groups=2, readers=clients, writers=clients)
    nodes = [*shard_map.all_servers, "p1", "p2", "L1", "L2"]
    sites = {node: ("east", "west")[index % 2] for index, node in enumerate(nodes)}
    return GeoDelay(sites, local_delay=0.5, wan_delay=8.0, seed=seed)


def coalescing_run(delay_model, ingresses, links, workload_seed):
    """Hot keys, a closed loop per client; ``c1`` and ``c2`` go direct on
    ``L1``, so the link's replica side always has two sessions.  Every
    client opens with a read of ``k1`` at time 0, so ``L1``'s first flush
    always has a rider: the run is never vacuous."""
    world = World(
        [None, None, *ingresses], ["L1", "L1", *links[: len(ingresses)]],
        num_shards=2, num_groups=2, read_cache=0, proxy_flush_delay=0.5,
        delay_model=delay_model,
    )
    workload = generate_workload(
        num_clients=len(world.sessions), ops_per_client=40, num_keys=2,
        read_fraction=0.5, key_skew=1.2, seed=workload_seed,
    )
    for index, client_id in enumerate(world.sessions):
        issue_next = _issuer(
            world, client_id, deque(workload.sequences[workload.clients[index]])
        )
        world.fabric.schedule(0.0, partial(world.invoke, client_id, "get", "k1", then=issue_next))
    world.cluster.run()
    return world, workload.total_operations() + len(world.sessions)


def _issuer(world, client_id, remaining):
    """``client_id``'s closed loop: each completion issues its next op."""
    def issue_next(_outcome=None):
        if remaining:
            op = remaining.popleft()
            world.invoke(client_id, op.kind, op.key, op.value, issue_next)

    return issue_next


@settings(max_examples=20, deadline=None)
@given(
    geo=st.booleans(),
    delay_seed=st.integers(0, 2**16),
    workload_seed=st.integers(0, 2**16),
    ingresses=st.lists(st.sampled_from([None, "p1", "p2"]), min_size=2, max_size=4),
    links=st.lists(st.sampled_from(["L1", "L2"]), min_size=4, max_size=4),
)
def test_coalesced_runs_under_jittered_delays_are_atomic_on_every_key(
    geo, delay_seed, workload_seed, ingresses, links,
):
    clients = 2 + len(ingresses)
    delay_model = (
        _geo(delay_seed, clients) if geo else UniformDelay(0.2, 3.0, seed=delay_seed)
    )
    world, operations = coalescing_run(delay_model, ingresses, links, workload_seed)
    assert world.completed() == operations
    assert world.atomic()
    assert world.coalesced() > 0


# -- the rider's paths on a shared link ---------------------------------------------
#
# The rows of ``test_kvstore_rounds`` drive a two-session link and a proxy
# through a leader's every exit; these need more sessions, or proxies.


def test_riders_complete_in_queue_order():
    world = World([None] * 5, proxies=1, delay_model=ConstantDelay(1.0))
    order = ["c4", "c2", "c5", "c1", "c3"]
    done = []
    for client_id in order:
        world.invoke(client_id, "get", "k", then=lambda _o, c=client_id: done.append(c))
    world.cluster.run()
    assert done == order
    assert world.links["L"].stats.rounds_coalesced == 4
    assert world.atomic()


@pytest.mark.parametrize("leader_first", [True, False])
def test_a_proxy_failover_completes_every_rider_once(leader_first):
    world = World(["p1", "p1", "p1"], delay_model=ConstantDelay(1.0))
    link = world.links["L"]
    done = []
    # The sessions fail over in their order: the leader's first, or its riders'.
    order = ["c1", "c2", "c3"] if leader_first else ["c3", "c2", "c1"]
    for client_id in order:
        world.invoke(client_id, "get", "k", then=lambda _o, c=client_id: done.append(c))
    world.fabric.run(until=1.0)  # the one query reached p1
    assert (link.proxy_stats.sub_operations, link.proxy_stats.rounds_coalesced) == (1, 2)
    world.cluster.crash_proxy("p1")
    world.fabric.execute("L", link.on_peer_lost("p1"))
    world.cluster.run()
    assert sorted(done) == ["c1", "c2", "c3"]
    assert all(session.proxy_id == "p2" for session in world.sessions.values())
    assert world.atomic()


def test_a_proxy_failover_of_the_leaders_session_alone_completes_its_riders():
    world = World(["p1", "p1"], delay_model=ConstantDelay(1.0))
    link = world.links["L"]
    done = []
    for client_id in ("c1", "c2"):
        world.invoke(client_id, "get", "k", then=lambda _o, c=client_id: done.append(c))
    world.fabric.run(until=1.0)
    assert link.proxy_stats.rounds_coalesced == 1
    effects = []
    world.sessions["c1"]._failover(effects)  # c1 alone moves to p2
    world.fabric.execute("L", effects)
    world.cluster.run()
    assert sorted(done) == ["c1", "c2"]
    assert (world.sessions["c1"].proxy_id, world.sessions["c2"].proxy_id) == ("p2", "p1")
    assert world.atomic()


def test_closing_the_leaders_session_on_a_proxy_sends_its_riders_on():
    world = World(["p1", "p1", "p1"], delay_model=ConstantDelay(1.0))
    done = []
    for client_id in ("c1", "c2", "c3"):
        world.invoke(client_id, "get", "k", then=lambda _o, c=client_id: done.append(c))
    world.fabric.run(until=1.0)
    assert world.links["L"].proxy_stats.rounds_coalesced == 2
    (failed,) = world.close("c1")
    assert isinstance(failed.error, ConnectionError)
    world.cluster.run()
    assert done == ["c2", "c3"]
    assert world.atomic()


# -- where nothing may coalesce ----------------------------------------------------


def test_fast_read_mwmr_reads_never_share_a_round():
    # Its server records every reader in ``updated``: each must ask itself.
    world = World(
        [None, None], proxies=0, protocol_key="fast-read-mwmr",
        servers_per_shard=5, num_shards=1, delay_model=ConstantDelay(1.0),
    )
    sent = world.frames_to(world.cluster.shard_map.all_servers[0])
    for client_id in ("c1", "c2"):
        world.invoke(client_id, "get", "k")
    world.cluster.run()
    assert world.completed() == 2 and world.atomic()
    assert world.coalesced() == 0
    first = next(frame for frame in sent if frame.kind == BATCH_KIND)
    assert [sub.message.sender for sub in unpack_batch(first)] == ["c1", "c2"]


def test_a_one_session_link_and_a_one_round_queue_skip_the_pass():
    def refuse(*_args):
        raise AssertionError("the pass ran")

    session_rig = Rig("direct")
    session_rig.owner.link._coalesce = refuse
    session_rig.start("k1")
    session_rig.start("k2")
    session_rig.run()
    assert len(session_rig.outcomes()) == 2
    link_rig = Rig("link")
    link_rig.owner._coalesce = refuse
    link_rig.start("k", client="c1")  # alone in its flush
    link_rig.run()
    link_rig.feed("close", to=link_rig.sessions["c2"])  # one session left
    link_rig.start("k1", client="c1")
    link_rig.start("k2", client="c1")
    link_rig.run()
    assert [kind for kind, _ in link_rig.outcomes()] == ["ok", "ok", "ok"]
