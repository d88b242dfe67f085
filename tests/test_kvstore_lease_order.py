"""Lease releases ride the data frames: the ordering that keeps them safe.

A proxy hands a read lease back by putting the release in the queue of the
replica's group: it leaves in the next ``batch`` frame to that replica, which
applies it before the frame's subs, or -- when the flush has no frame for that
replica -- alone, in the same input.  The safety argument is one invariant: a
release reaches its replica no later than any sub framed after it, so an
evicted entry's release can never clear the lease a later fill registered.

This file checks that on the engine fabric
(:class:`repro.kvstore.engine.fabric.Fabric`), driven through its adversary
surface (``actions()`` / ``take()``) so the *schedule* is the adversary: every
step delivers the oldest frame of any connection (each connection stays FIFO,
as TCP and the simulated network are), fires any armed timer early, or invokes
a client's next operation.  Two proxies with a one- or two-entry cache (so
capacity evictions are constant), clients behind each and a direct writer
hammer a write-heavy hot key; after every step, every entry a proxy would
serve from must be backed by its lease at ``wait_for`` replicas of the key's
group, and the finished history must be atomic per key.  Lease timers never
fire: expiry is the clock assumption the protocol rests on, not an ordering
the adversary controls.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.operations import OpKind
from repro.kvstore import RetryPolicy, ShardMap, check_per_key_atomicity
from repro.kvstore.engine import (
    CachedShardView,
    ClientSessionEngine,
    GroupServerEngine,
    ProxyEngine,
)
from repro.kvstore.engine.fabric import Fabric
from repro.kvstore.perkey import KVHistoryRecorder

#: No watchdog (the adversary would only fail ops with it), and a silence
#: window the fabric never reaches on its own: the adversary fires the
#: silence timer -- a widening -- whenever it likes.
POLICY = RetryPolicy(
    failover_timeout=None, silence_window=1e6,
    max_round_timeouts=1000,
)
LEASE_TTL = 1e9
KEYS = ("a", "a", "a", "b", "c")


def runnable(fabric):
    """What a step may do on the fabric: every action but a lease timer's."""
    return [
        action for action in fabric.actions()
        if action[0] == "deliver" or action[1][1][0] != "lease"
    ]


def build(read_cache, flush_delay):
    shard_map = ShardMap(1, num_groups=1, readers=5, writers=5)
    fabric = Fabric()
    ticks = itertools.count()
    recorder = KVHistoryRecorder(lambda: float(next(ticks)))
    replicas = {}
    for group in shard_map.groups.values():
        hosted = {s.shard_id: s.epoch for s in shard_map.shards_on(group.group_id)}
        for server_id in group.servers:
            replicas[server_id] = GroupServerEngine(
                server_id, group.protocol, dict(hosted), lease_ttl=LEASE_TTL
            )
            fabric.register(server_id, replicas[server_id])
    proxies = {}
    for proxy_id in ("p1", "p2"):
        proxies[proxy_id] = ProxyEngine(
            proxy_id, CachedShardView(shard_map), policy=POLICY,
            read_cache=read_cache, lease_ttl=LEASE_TTL, flush_delay=flush_delay,
        )
        fabric.register(proxy_id, proxies[proxy_id])
    clients = {}
    for client_id, proxy_id in (("c1", "p1"), ("c2", "p1"), ("c3", "p2"), ("d1", None)):
        clients[client_id] = ClientSessionEngine(
            client_id, shard_map, recorder, policy=POLICY,
            proxy_candidates=[proxy_id] if proxy_id else [],
        )
        fabric.register(client_id, clients[client_id])
        if proxy_id:
            fabric.execute(client_id, clients[client_id].on_connected(proxy_id))
    return shard_map, fabric, recorder, replicas, proxies, clients


def assert_servable_entries_hold_their_leases(shard_map, replicas, proxies) -> None:
    for proxy in proxies.values():
        for entry in proxy._cache.entries():
            if not entry.granted:
                continue  # not servable: the proxy would go to the replicas
            servers = shard_map.shard_for(entry.key).group.servers
            holding = [s for s in servers if proxy.proxy_id in replicas[s].lease_holders(entry.key)]
            assert len(holding) >= entry.wait_for, (
                f"{proxy.proxy_id} serves {entry.key!r} from cache, but only "
                f"{holding} hold its lease"
            )


_scripts = st.fixed_dictionaries({
    client_id: st.lists(
        st.tuples(st.booleans(), st.sampled_from(KEYS)), min_size=2, max_size=7
    )
    for client_id in ("c1", "c2", "c3")
} | {"d1": st.lists(st.just((True, "a")), min_size=1, max_size=4)})


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(
    read_cache=st.integers(1, 2),
    flush_delay=st.sampled_from([0.0, 1.0]),
    scripts=_scripts,
    data=st.data(),
)
def test_no_schedule_serves_a_cached_read_without_its_lease_quorum(
    read_cache, flush_delay, scripts, data
):
    shard_map, fabric, recorder, replicas, proxies, clients = build(read_cache, flush_delay)
    pending = {client_id: deque(script) for client_id, script in scripts.items()}
    owner = {}
    in_flight = Counter()
    completed = []

    def invoke(client_id):
        write, key = pending[client_id].popleft()
        kind = OpKind.WRITE if write else OpKind.READ
        value = f"{client_id}-{len(owner)}" if write else None
        op_id, effects = clients[client_id].invoke(kind, key, value)
        owner[op_id] = client_id
        in_flight[client_id] += 1
        def done(_outcome):
            completed.append(op_id)
            in_flight.subtract([client_id])

        fabric.callbacks[op_id] = done
        fabric.execute(client_id, effects)

    for _ in range(160):
        actions = runnable(fabric) + [
            ("invoke", client_id) for client_id in sorted(pending)
            if pending[client_id] and in_flight[client_id] < 2
        ]
        if not actions:
            break
        action = actions[data.draw(st.integers(0, len(actions) - 1), label="step")]
        if action[0] == "invoke":
            invoke(action[1])
        else:
            fabric.take(action)
        assert_servable_entries_hold_their_leases(shard_map, replicas, proxies)
    # The adversary goes quiet: the rest of the scripts run, oldest first.
    for _ in range(20_000):
        actions = runnable(fabric)
        if not actions:
            waiting = [c for c in sorted(pending) if pending[c]]
            if not waiting:
                break
            invoke(waiting[0])
            continue
        fabric.take(actions[0])
        assert_servable_entries_hold_their_leases(shard_map, replicas, proxies)
    assert not fabric.failures
    assert sorted(completed) == sorted(owner)
    assert len(owner) == sum(len(script) for script in scripts.values())
    assert check_per_key_atomicity(recorder.histories()).all_atomic
