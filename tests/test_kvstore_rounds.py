"""Characterisation of the replica-round machinery, through its owners.

A quorum round against a replica group -- queue, batch, collect ``wait_for``
replies, replay on a stale bounce, retry or fail when replicas are lost -- is
run by two engines: :class:`ClientSessionEngine` (direct ingress, through the
:class:`ClientLink` it holds) and :class:`ProxyEngine` (every forwarded
round).  This file pins what that
machinery does from the outside, with one scenario table run against *both*
owners through nothing but their public inputs (``invoke`` / ``on_frame`` /
``on_timer`` / ``on_peer_lost`` / ``on_frame_undeliverable``) on the
default, earliest-due-first schedule of the engine fabric
(:class:`repro.kvstore.engine.fabric.Fabric`): the emitted effects, the
counters and the ``BatchStats`` frame totals.  The loss and give-up paths in
particular had never run under test.

Rounds go *quorum-first*: a first attempt that mutates nothing asks
``S - t`` replicas, the pick rotating per group per flush, and is widened to
the rest of the group when one of the asked is lost or stays silent for a
window.  The first rows pin that; the loss, bounce and give-up rows after
them start from a narrow read too, and their replays ask everyone.

What legitimately differs between the owners is spelled out by :class:`Rig`:
how a round enters (an invocation vs a forwarded ``proxy`` frame), the retry
timer's id (``("retry", op_id)`` vs ``("pretry", scoped_id, round_trip)``),
and the outcome (``OpCompleted`` / ``OpFailed`` vs a ``proxy-ack`` with
replies or an error string).  No owner arms a timer of its own per round: the
one silence timer bounds every attempt on both, and the rows say so.  The
proxy-only rows cover what only a proxy has: explicit read policies, cache
fills and ``sever()``; the link-only rows (mode ``"link"``: one
:class:`ClientLink` fed by the sessions ``c1`` and ``c2``) cover what only a
shared link has: frames merged across sessions, and one of them going away.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.operations import OpKind
from repro.core.timestamps import Tag
from repro.kvstore import RetryPolicy, ShardMap
from repro.kvstore.engine import (
    MAX_STALE_RETRIES,
    BroadcastReads,
    CachedShardView,
    CancelTimer,
    ClientLink,
    ClientSessionEngine,
    GroupServerEngine,
    NearestQuorum,
    OpCompleted,
    OpFailed,
    ProxyEngine,
    ReadRoutingPolicy,
    SIM_RETRY_POLICY,
    SendFrame,
    StartTimer,
    make_stale_reply,
    parse_attempt_scoped_id,
)
from repro.kvstore import check_per_key_atomicity
from repro.kvstore.engine.fabric import Fabric
from repro.kvstore.perkey import KVHistoryRecorder
from repro.observe import MetricsObserver, MetricsRegistry, ObserverHub
from repro.observe.events import (
    FRAME_RECEIVED,
    FRAME_SENT,
    ROUND_REPLAYED,
    ROUND_WIDENED,
    TIMER_ARMED,
)
from repro.protocols.base import Broadcast
from repro.protocols.codec import encode_tag
from repro.messages import (
    BATCH_KIND,
    LEASE_RELEASE_KIND,
    PROXY_ACK_KIND,
    PROXY_KIND,
    REPLY_TOO_LARGE_KIND,
    ProxySubRequest,
    make_batch_ack,
    make_lease_release,
    make_proxy_request,
    unpack_batch,
    unpack_proxy_ack,
    unpack_proxy_request,
)

from test_kvstore_engine import SCRIPT, build_memory_stack, run_script

#: Distinct windows, so a test can tell a reconnect retry from a drain backoff
#: from a silence window (the longest: a round trip on the fabric takes 2).
POLICY = RetryPolicy(
    reconnect_interval=5.0,
    max_transient_retries=2,
    drain_backoff=7.0,
    silence_window=40.0,
)
SILENCE = ("silence",)

_INPUTS = (
    "invoke", "on_frame", "on_timer", "on_peer_lost", "on_frame_undeliverable", "close",
)


class _ProxyAckSink:
    """Stands in for the client behind the proxy under test."""

    def on_frame(self, message):
        return []


class Rig:
    """One owner of replica rounds over real replicas on a :class:`Fabric`.

    ``mode`` is ``"direct"`` (a :class:`ClientSessionEngine` with no proxy),
    ``"proxy"`` (a :class:`ProxyEngine` fed forwarded rounds by hand) or
    ``"link"`` (a :class:`ClientLink` shared by the sessions ``c1`` and
    ``c2``, whose invocations are logged with the link's own inputs and
    executed as the link's effects).
    Every effect list the owner returns is logged as ``(input, effects)``
    before the fabric executes it.
    """

    def __init__(self, mode, policy=POLICY, num_groups=1, max_batch=8,
                 shard_map=None, hub=None, lease_ttl=1000.0, **proxy_kwargs):
        self.mode = mode
        clients = 2 if mode == "link" else 1
        self.shard_map = shard_map or ShardMap(
            1, num_groups=num_groups, readers=clients, writers=clients
        )
        self.shard_id = next(iter(self.shard_map.shards))
        self.fabric = Fabric()
        self.replicas = {}
        for group in self.shard_map.groups.values():
            hosted = {
                spec.shard_id: spec.epoch
                for spec in self.shard_map.shards_on(group.group_id)
            }
            for server_id in group.servers:
                self.replicas[server_id] = GroupServerEngine(
                    server_id, group.protocol, dict(hosted), lease_ttl=lease_ttl
                )
                self.fabric.register(server_id, self.replicas[server_id])
        self.owner_id = {"direct": "c1", "proxy": "p1", "link": "L"}[mode]
        observer = None
        if hub is not None:
            hub.clock = lambda: self.fabric.now
            observer = hub.scoped(
                "proxy" if mode == "proxy" else "client", self.owner_id
            )
        ticks = itertools.count()
        recorder = KVHistoryRecorder(lambda: float(next(ticks)))
        self.sessions = {}
        if mode == "direct":
            assert not proxy_kwargs
            self.owner = ClientSessionEngine(
                "c1", self.shard_map, recorder,
                policy=policy, max_batch=max_batch, observer=observer,
                lease_ttl=lease_ttl,
            )
        elif mode == "link":
            assert not proxy_kwargs
            self.owner = ClientLink(
                "L", policy=policy, observer=observer, lease_ttl=lease_ttl,
                clock=lambda: self.fabric.now,
            )
            for client_id in ("c1", "c2"):
                self.sessions[client_id] = ClientSessionEngine(
                    client_id, self.shard_map, recorder, policy=policy,
                    max_batch=max_batch, link=self.owner,
                    observer=hub.scoped("client", client_id) if hub else None,
                )
        else:
            self.view = CachedShardView(self.shard_map)
            self.owner = ProxyEngine(
                "p1", self.view, policy=policy, max_batch=max_batch,
                lease_ttl=lease_ttl, observer=observer, **proxy_kwargs,
            )
            self.fabric.register("c1", _ProxyAckSink())
        self.fabric.register(self.owner_id, self.owner)
        self.log = []
        for engine in (self.owner, *self.sessions.values()):
            for name in _INPUTS:
                original = getattr(engine, name, None)
                if original is not None:
                    setattr(engine, name, self._logged(name, original))
        self._ops = itertools.count(1)

    def _logged(self, name, original):
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            effects = result[1] if isinstance(result, tuple) else result
            self.log.append((name, list(effects)))
            return result

        return wrapper

    # -- topology ---------------------------------------------------------------

    @property
    def spec(self):
        return self.shard_map.shards[self.shard_id]

    @property
    def servers(self):
        return list(self.spec.group.servers)

    def kill(self, *server_ids):
        self.fabric.down.update(server_ids or self.replicas)

    def revive(self):
        self.fabric.down.clear()

    def fence(self, ahead=1):
        """Fence the shard on its replicas without touching the map: what a
        key looks like mid-drain (``ahead=0`` lifts the fence)."""
        for server_id in self.spec.group.servers:
            self.replicas[server_id].set_epoch(self.shard_id, self.spec.epoch + ahead)

    def move_shard(self):
        """Re-home the shard on the other group: map, hosting and epoch."""
        old = self.spec.group
        new = next(g for g in self.shard_map.groups.values() if g is not old)
        self.shard_map.move_shard(self.shard_id, new.group_id)
        for server_id in old.servers:
            self.replicas[server_id].evict_shard(self.shard_id)
        for server_id in new.servers:
            self.replicas[server_id].host_shard(self.shard_id, self.spec.epoch)

    # -- driving the owner ------------------------------------------------------

    def feed(self, name, *args, to=None, **kwargs):
        """One public input (of the owner, or of the session ``to``): returns
        its effects, after the fabric ran them -- as the owner's, always."""
        result = getattr(to or self.owner, name)(*args, **kwargs)
        effects = result[1] if isinstance(result, tuple) else result
        self.fabric.execute(self.owner_id, effects)
        return effects

    def start(self, key="k", write=False, client="c1"):
        """Open one read round for ``key``; returns the effects.

        ``write=True`` opens a write instead.  The direct owner runs it from
        its query round; the proxy is handed the round that mutates (the
        query round of a write is a read's, but for ``op_kind``).  On a shared
        link ``client`` says which session invokes.
        """
        if self.mode != "proxy":
            kind = OpKind.WRITE if write else OpKind.READ
            return self.feed(
                "invoke", kind, key, "v" if write else None,
                to=self.sessions.get(client),
            )
        protocol = self.shard_map.shard_for(key).protocol
        request = next(protocol.make_opportunistic_reader("c1").read_protocol())
        if write:
            request = Broadcast(
                "update", {"tag": encode_tag(Tag(1, "c1")), "value": "v"}
            )
        op_id = f"c1-{'write' if write else 'read'}-{next(self._ops)}"
        sub = ProxySubRequest(
            key=key, op_kind="write" if write else "read", kind=request.kind,
            payload=request.payload, op_id=op_id, round_trip=2 if write else 1,
            wait_for=request.wait_for,
            per_server=request.per_server_payload or None, trace=op_id,
        )
        return self.feed("on_frame", make_proxy_request("c1", "p1", [sub]))

    def run_until(self, done):
        while not done():
            assert self.fabric.step(), "the fabric went quiet first"

    def run(self):
        self.fabric.run()

    def idle(self, delay):
        """Let ``delay`` pass on the fabric, running whatever is due before."""
        passed = []
        self.fabric.schedule(delay, lambda: passed.append(True))
        self.run_until(lambda: passed)

    def await_timer(self):
        """Run the fabric until the next timer fires into the owner (frames
        sent to killed replicas before then are gone for good)."""
        mark = len(self.log)
        self.run_until(lambda: any(name == "on_timer" for name, _ in self.log[mark:]))
        return self.log[-1][1]

    def batches(self):
        """Every ``batch`` frame the owner has emitted so far, in order."""
        return [
            effect
            for _name, effects in self.log
            for effect in effects
            if isinstance(effect, SendFrame) and effect.frame.kind == BATCH_KIND
        ]

    def flush(self):
        """Run the fabric until the owner's next batch goes out; returns it."""
        before = len(self.batches())
        self.run_until(lambda: len(self.batches()) > before)
        return self.batches()[before:]

    def last(self, name):
        """The effects of the most recent ``name`` input."""
        return next(effects for logged, effects in reversed(self.log) if logged == name)

    # -- what differs between the owners ----------------------------------------

    @staticmethod
    def ident(sent):
        """The wire identity of the (single-round) attempt a frame carries."""
        message = unpack_batch(sent.frame)[0].message
        return message.op_id, message.round_trip

    def retry_timer(self, sent):
        """The retry timer id of the attempt ``sent`` belongs to."""
        op_id, round_trip = self.ident(sent)
        if self.mode == "direct":
            return ("retry", op_id)
        return ("pretry", op_id, round_trip)

    def outcomes(self):
        """``("ok", n_replies | None)`` or ``("failed", text)`` per finished round."""
        found = []
        for _name, effects in self.log:
            for effect in effects:
                if isinstance(effect, OpCompleted):
                    found.append(("ok", None))
                elif isinstance(effect, OpFailed):
                    found.append(("failed", f"{type(effect.error).__name__}: {effect.error}"))
                elif isinstance(effect, SendFrame) and effect.frame.kind == PROXY_ACK_KIND:
                    assert effect.destination == "c1"
                    for reply in unpack_proxy_ack(effect.frame):
                        if reply.error is not None:
                            assert reply.replies == ()
                            found.append(("failed", reply.error))
                        else:
                            found.append(("ok", len(reply.replies)))
        return found

    def outcome(self):
        found = self.outcomes()
        assert len(found) <= 1
        return found[0][0] if found else None

    def widened(self, effects, to):
        """Assert ``effects`` starts with one batch frame per replica of ``to``
        and returns what follows them."""
        frames, rest = effects[: len(to)], effects[len(to):]
        assert [(f.destination, f.frame.kind) for f in frames] == [
            (server_id, BATCH_KIND) for server_id in to
        ]
        return rest

    def failure_effects(self, effects, error=None):
        """Assert ``effects`` is exactly the owner's one failure report."""
        assert len(effects) == 1, effects
        (effect,) = effects
        if self.mode == "direct":
            assert isinstance(effect, OpFailed)
            if error is not None:
                assert effect.error is error
        else:
            assert isinstance(effect, SendFrame) and effect.destination == "c1"
            (reply,) = unpack_proxy_ack(effect.frame)
            assert reply.error is not None and reply.replies == ()
            if error is not None:
                assert str(error) in reply.error

    def replica_ack(self, sent, stale=False, empty=False):
        """The ``batch-ack`` a replica would send for ``sent`` (or a crafted
        stale / reply-less one), without going through the fabric."""
        if stale or empty:
            replica = self.replicas[sent.destination]
            return make_batch_ack(sent.frame, [
                None if empty else make_stale_reply(replica, sub, None)
                for sub in unpack_batch(sent.frame)
            ])
        effects = self.replicas[sent.destination].on_frame(sent.frame)
        (ack,) = [e.frame for e in effects if e.frame.kind == "batch-ack"]
        return ack


def timer_kinds(effects):
    return [e.timer_id[0] for e in effects if isinstance(e, StartTimer)]


def sent_to(effects):
    return [e.destination for e in effects if isinstance(e, SendFrame)]


# -- the scenario table: rows every owner must pass -------------------------------


def first_attempts_ask_one_quorum_and_the_pick_rotates(make_rig):
    rig = make_rig()
    s1, s2, s3 = rig.servers
    assert timer_kinds(rig.start()) == ["flush"]
    # The first narrow round out arms the engine's one silence timer ...
    assert rig.await_timer()[-1] == StartTimer(SILENCE, POLICY.silence_window)
    frames = rig.batches()
    assert [f.destination for f in frames] == [s1, s2]
    assert all(len(unpack_batch(f.frame)) == 1 for f in frames)
    rig.run_until(rig.outcome)
    # ... and later ones inside the window ride it.  Every replica is asked
    # within S flushes.
    asked = [[s1, s2]]
    for _ in range(2):
        rig.start()
        assert timer_kinds(rig.await_timer()) == []
        asked.append([f.destination for f in rig.batches()[-2:]])
        rig.run_until(lambda: len(rig.outcomes()) == len(asked))
    assert asked == [[s1, s2], [s2, s3], [s3, s1]]
    stats = rig.owner.stats
    assert (stats.rounds_narrow, stats.rounds_widened) == (3, 0)
    assert (stats.frames_sent, stats.frames_received) == (6, 6)
    # Nothing is out when the window ends: the timer lapses.
    rig.run()
    assert rig.last("on_timer") == []
    assert [kind for kind, _ in rig.outcomes()] == ["ok"] * 3


def a_lost_target_widens_the_round_at_once_under_the_same_identity(make_rig):
    rig = make_rig()
    rig.start()
    frames = rig.flush()
    assert [f.destination for f in frames] == rig.servers[:2]
    lost, _, spare = rig.servers
    rig.kill(lost)
    (widening,) = rig.feed("on_peer_lost", lost)
    assert widening.destination == spare
    assert rig.ident(widening) == rig.ident(frames[0])
    asked, again = unpack_batch(frames[1].frame)[0], unpack_batch(widening.frame)[0]
    assert again.message.payload == asked.message.payload
    assert again[0:1] + again[2:] == asked[0:1] + asked[2:]
    # The same loss reported by the send path: nothing more to do, but the
    # frame that never reached the wire is uncounted.
    assert rig.owner.stats.frames_sent == 3
    assert rig.feed(
        "on_frame_undeliverable", frames[0].frame, ConnectionResetError("down"), True
    ) == []
    assert rig.owner.stats.frames_sent == 2
    # A replica the round no longer waits on is not its loss a second time.
    assert rig.feed("on_peer_lost", lost) == []
    # A frame that carries no round is nobody's loss, and was never counted.
    release = make_lease_release(rig.owner_id, lost, ["k"])
    assert rig.feed("on_frame_undeliverable", release, ConnectionResetError("down")) == []
    assert rig.owner.stats.frames_sent == 2
    rig.run()
    assert rig.outcome() == "ok"
    assert rig.owner.stats.frames_received == 2
    assert (rig.owner.stats.rounds_narrow, rig.owner.stats.rounds_widened) == (1, 1)
    assert (rig.owner.stale_replays, rig.owner.drain_backoffs) == (0, 0)


def a_silent_target_widens_after_a_window_and_is_asked_last_from_then_on(make_rig):
    rig = make_rig()
    s1, s2, s3 = rig.servers
    rig.kill(s2)  # silently: nobody tells the owner
    rig.start("k1")
    first = rig.flush()
    assert [f.destination for f in first] == [s1, s2]
    rig.idle(10.0)
    # A round that joins the window in progress is given the next one whole.
    rig.start("k2")
    second = rig.flush()
    assert [f.destination for f in second] == [s2, s3]
    assert rig.outcomes() == []
    # The window ends: k1 sat through all of it and asks the rest of the
    # group, k2 did not and is watched for another.
    tick = rig.await_timer()
    assert rig.fabric.now == POLICY.silence_window
    (widening,) = tick[:-1]
    assert widening.destination == s3 and rig.ident(widening) == rig.ident(first[0])
    assert tick[-1] == StartTimer(SILENCE, POLICY.silence_window)
    rig.run_until(rig.outcomes)
    tick = rig.await_timer()
    (widening,) = tick[:-1]
    assert widening.destination == s1 and rig.ident(widening) == rig.ident(second[0])
    rig.run_until(lambda: len(rig.outcomes()) == 2)
    assert rig.owner.stats.rounds_widened == 2
    # The replica that left both short goes to the back of every pick ...
    for done in (3, 4, 5):
        rig.start("k3")
        assert {f.destination for f in rig.flush()} == {s1, s3}
        rig.run_until(lambda: len(rig.outcomes()) == done)
    rig.run()
    assert rig.owner.stats.rounds_widened == 2
    # ... until it is heard from again (here: its answer to k1, very late).
    rig.revive()
    assert rig.feed("on_frame", rig.replica_ack(first[1])) == []
    picks = set()
    for _ in range(3):
        rig.start("k4")
        picks.update(f.destination for f in rig.flush())
        rig.run()
    assert picks == {s1, s2, s3}
    assert [kind for kind, _ in rig.outcomes()] == ["ok"] * 8


def replies_after_a_widening_count_each_replica_once(make_rig):
    rig = make_rig()
    s1, s2, s3 = rig.servers
    rig.kill(s2)
    rig.start()
    first = rig.flush()
    (widening,) = rig.await_timer()[:-1]
    # Each replica holds the attempt's sub-request exactly once, so whichever
    # two answers arrive first are from two replicas: here the late one from
    # the first quorum beats the widened replica's.
    assert sent_to(first + [widening]) == [s1, s2, s3]
    rig.revive()
    done = rig.feed("on_frame", rig.replica_ack(first[1]))
    assert rig.outcome() == "ok"
    log_mark = len(rig.log)
    rig.run()
    # The widened replica's answer is a straggler now, and the timer lapses.
    assert [effects for _name, effects in rig.log[log_mark:]] == [[], []]
    assert rig.owner.stats.frames_received == 3
    if rig.mode == "proxy":
        (reply,) = unpack_proxy_ack(done[-1].frame)
        assert sorted(r.sender for r in reply.replies) == [s1, s2]


class _PerServerReader:
    """A reader that spells its query's payload out per server."""

    def __init__(self, reader, servers):
        self._reader, self._servers = reader, servers

    def read_protocol(self):
        rounds = self._reader.read_protocol()
        request = next(rounds)
        try:
            while True:
                replies = yield Broadcast(
                    request.kind, request.payload, request.wait_for,
                    {server_id: request.payload for server_id in self._servers},
                )
                request = rounds.send(replies)
        except StopIteration as stop:
            return stop.value


def mutating_and_per_server_rounds_ask_the_whole_group(make_rig):
    rig = make_rig()
    rig.start(write=True)
    rig.run()
    by_kind = {}
    for sent in rig.batches():
        by_kind.setdefault(unpack_batch(sent.frame)[0].message.kind, []).append(
            sent.destination
        )
    assert by_kind["update"] == rig.servers
    if rig.mode == "direct":
        assert by_kind["query"] == rig.servers[:2]  # a write's query narrows too
    protocol = rig.spec.protocol
    plain = protocol.make_opportunistic_reader
    protocol.make_opportunistic_reader = lambda client_id: _PerServerReader(
        plain(client_id), rig.servers
    )
    before = len(rig.batches())
    rig.start("per-server")
    rig.run()
    assert [f.destination for f in rig.batches()[before:]] == rig.servers
    assert [kind for kind, _ in rig.outcomes()] == ["ok", "ok"]
    assert rig.owner.stats.rounds_narrow == (1 if rig.mode == "direct" else 0)


def a_widened_round_the_whole_group_leaves_short_fails(make_rig):
    policy = RetryPolicy(reconnect_interval=5.0, max_round_timeouts=2,
                         silence_window=40.0)
    rig = make_rig(policy=policy)
    rig.kill(*rig.servers[1:])  # silently, and one more than the fault budget
    rig.start()
    rig.flush()
    rig.widened(rig.await_timer(), to=rig.servers[2:])
    assert rig.await_timer() == [StartTimer(SILENCE, 40.0)]
    rig.failure_effects(rig.await_timer())  # and the timer lapses
    assert rig.fabric.now == 3 * 40.0
    assert "no quorum" in rig.outcomes()[0][1]
    assert rig.owner.stats.frames_received == 1
    rig.run()
    assert rig.outcome() == "failed"


def silence_timer_ignores_a_round_in_drain_backoff(make_rig):
    policy = RetryPolicy(reconnect_interval=5.0, drain_backoff=7.0,
                         silence_window=3.0)
    rig = make_rig(policy=policy)
    rig.start()
    rig.flush()
    rig.fence()
    rig.run_until(lambda: rig.owner.drain_backoffs)
    rig.fence(ahead=0)
    log_mark = len(rig.log)
    replay = rig.flush()
    timers = [e for name, e in rig.log[log_mark:] if name == "on_timer"]
    # The window ended inside the backoff: nothing to widen, nothing to watch.
    assert timers[0] == []
    assert [f.destination for f in replay] == rig.servers
    rig.run()
    assert rig.outcome() == "ok"
    assert rig.owner.stats.rounds_widened == 0


def lost_quorum_retries_once_then_replays_under_a_fresh_identity(make_rig):
    rig = make_rig()
    rig.start()
    frames = rig.flush()
    rig.kill()
    s1, s2, s3 = rig.servers
    (widening,) = rig.feed("on_peer_lost", s1)
    assert widening.destination == s3
    frames.append(widening)
    assert rig.feed("on_peer_lost", s2) == [
        StartTimer(rig.retry_timer(frames[0]), POLICY.reconnect_interval)
    ]
    assert rig.feed("on_peer_lost", s3) == []  # already awaiting the retry
    assert timer_kinds(rig.await_timer()) == ["flush"]
    rig.revive()
    replay = rig.flush()
    # A replay asks everyone: something was already lost.
    assert [f.destination for f in replay] == rig.servers
    assert rig.ident(replay[0]) != rig.ident(frames[0])
    assert rig.last("on_timer") == replay  # the flush: frames, nothing else
    # Stragglers of the abandoned attempt are not counted into the new one --
    # two of them would otherwise make a quorum -- and neither is an entry a
    # replica chose not to answer.
    assert rig.feed("on_frame", rig.replica_ack(frames[0])) == []
    assert rig.feed("on_frame", rig.replica_ack(frames[2])) == []
    assert rig.feed("on_frame", rig.replica_ack(replay[2], empty=True)) == []
    assert rig.outcome() is None
    rig.run()
    assert rig.outcome() == "ok"
    assert rig.owner.stats.frames_sent == 6
    assert rig.owner.stats.frames_received == 6
    assert rig.owner.stats.rounds == 2 and rig.owner.stats.sub_operations == 2
    assert (rig.owner.stats.rounds_narrow, rig.owner.stats.rounds_widened) == (1, 1)


def undelivered_frames_are_uncounted_across_the_replay(make_rig):
    rig = make_rig()
    rig.start()
    frames = rig.flush()
    s1, s2, s3 = rig.servers
    rig.kill(s1, s2)
    down = ConnectionResetError("connection is down")
    (widening,) = rig.feed("on_frame_undeliverable", frames[0].frame, down, True)
    assert widening.destination == s3
    assert rig.feed("on_frame_undeliverable", frames[1].frame, down, True) == [
        StartTimer(rig.retry_timer(frames[0]), POLICY.reconnect_interval)
    ]
    assert rig.owner.stats.frames_sent == 1
    rig.await_timer()
    rig.revive()
    replay = rig.flush()
    # Each frame counted once: the one that went out, plus the replay's three.
    assert rig.owner.stats.frames_sent == 4
    # A late report about the abandoned attempt changes no round (the frame
    # itself is still uncounted).
    assert rig.feed("on_frame_undeliverable", widening.frame, down, True) == []
    assert rig.owner.stats.frames_sent == 3
    rig.run()
    assert rig.outcome() == "ok"
    assert rig.ident(replay[0]) != rig.ident(frames[0])


def non_retryable_loss_fails_the_round_at_once(make_rig):
    rig = make_rig()
    rig.start()
    frames = rig.flush()
    rig.kill()
    oversized = ValueError("frame exceeds the 16 MiB limit")
    rig.widened(
        rig.feed("on_frame_undeliverable", frames[0].frame, oversized, False),
        to=rig.servers[2:],
    )
    rig.failure_effects(
        rig.feed("on_frame_undeliverable", frames[1].frame, oversized, False),
        error=oversized,
    )
    assert rig.outcome() == "failed"
    assert rig.owner.stats.frames_sent == 1
    rig.run()  # only the silence window is left, and it lapses
    assert rig.last("on_timer") == []
    assert timer_kinds(rig.last("on_frame_undeliverable")) == []


def a_reply_too_large_for_any_frame_fails_the_round_at_once(make_rig):
    rig = make_rig()
    rig.start()
    frames = rig.flush()
    # What a replica's codec sends in place of a reply no frame can carry.
    replica = rig.replicas[frames[0].destination]
    too_large = make_batch_ack(frames[0].frame, [
        replica.reply(sub.message, REPLY_TOO_LARGE_KIND, {"bytes": 17_000_000})
        for sub in unpack_batch(frames[0].frame)
    ])
    rig.failure_effects(rig.feed("on_frame", too_large))
    assert rig.outcome() == "failed"
    assert "17000000 bytes) exceeds the frame limit" in rig.outcomes()[0][1]
    # The other replica's reply falls on a round that is gone.
    assert rig.feed("on_frame", rig.replica_ack(frames[1])) == []
    rig.run()
    assert rig.outcome() == "failed"


def transient_retries_run_out(make_rig):
    policy = RetryPolicy(reconnect_interval=5.0, max_transient_retries=1,
                         silence_window=40.0)
    rig = make_rig(policy=policy)
    rig.start()
    frames = rig.flush()
    rig.kill()
    s1, s2, _ = rig.servers
    rig.feed("on_peer_lost", s1)
    assert timer_kinds(rig.feed("on_peer_lost", s2)) == [rig.retry_timer(frames[0])[0]]
    rig.flush()  # the one allowed replay
    assert rig.feed("on_peer_lost", s1) == []
    rig.failure_effects(rig.feed("on_peer_lost", s2))
    assert rig.outcome() == "failed"
    assert "unreachable" in rig.outcomes()[0][1]


def same_route_bounce_backs_off_on_the_drain_window(make_rig):
    rig = make_rig()
    rig.start()
    frames = rig.flush()
    rig.fence()
    rig.run_until(lambda: rig.owner.drain_backoffs)
    assert rig.last("on_frame") == [
        StartTimer(rig.retry_timer(frames[0]), POLICY.drain_backoff_interval)
    ]
    assert (rig.owner.drain_backoffs, rig.owner.stale_replays) == (1, 0)
    rig.fence(ahead=0)
    log_mark = len(rig.log)
    replay = rig.flush()
    # The quorum's other, equally stale reply fell on a round in backoff.
    assert [e for name, e in rig.log[log_mark:] if name == "on_frame"] == [[]]
    assert rig.ident(replay[0]) != rig.ident(frames[0])
    assert [f.destination for f in replay] == rig.servers
    rig.run()
    assert rig.outcome() == "ok"
    assert (rig.owner.drain_backoffs, rig.owner.stale_replays) == (1, 0)


def drain_backoffs_run_out(make_rig):
    policy = RetryPolicy(reconnect_interval=5.0, max_transient_retries=1,
                         drain_backoff=7.0, silence_window=40.0)
    rig = make_rig(policy=policy)
    rig.start()
    rig.flush()
    rig.fence()
    rig.run_until(rig.outcome)
    rig.failure_effects(rig.last("on_frame"))
    assert rig.outcome() == "failed"
    assert "draining range" in rig.outcomes()[0][1]
    assert (rig.owner.drain_backoffs, rig.owner.stale_replays) == (2, 0)
    rig.run()


def changed_route_bounce_replays_to_the_new_group(make_rig):
    rig = make_rig(num_groups=2)
    rig.start()
    frames = rig.flush()
    old_servers = rig.servers
    assert [f.destination for f in frames] == old_servers[:2]
    rig.move_shard()
    rig.run_until(lambda: rig.owner.stale_replays)
    new_group = rig.spec.group.group_id
    assert rig.last("on_frame") == [StartTimer(("flush", new_group), 0.0)]
    assert (rig.owner.stale_replays, rig.owner.drain_backoffs) == (1, 0)
    replay = rig.flush()
    assert [f.destination for f in replay] == rig.servers != old_servers
    sub = unpack_batch(replay[0].frame)[0]
    assert (sub.shard, sub.epoch) == (rig.shard_id, rig.spec.epoch)
    assert rig.ident(replay[0]) != rig.ident(frames[0])
    rig.run()
    assert rig.outcome() == "ok"
    assert rig.owner.stale_replays == 1


def stale_replays_run_out(make_rig):
    rig = make_rig(num_groups=2)
    rig.start()
    for bounce in range(1, MAX_STALE_RETRIES + 2):
        rig.move_shard()  # the map never stops moving under the round
        rig.run_until(lambda: rig.owner.stale_replays == bounce)
    rig.failure_effects(rig.last("on_frame"))
    assert rig.outcome() == "failed"
    assert "never converged" in rig.outcomes()[0][1]
    assert rig.owner.stale_replays == MAX_STALE_RETRIES + 1
    rig.run()
    assert rig.outcome() == "failed"  # and nothing replays after the give-up


def a_full_queue_waits_for_its_flush_and_is_cut_at_the_cap(make_rig):
    rig = make_rig(max_batch=2)
    s1, s2, s3 = rig.servers
    assert timer_kinds(rig.start("k1")) == ["flush"]
    # Full at two, and still only the flush timer sends it: a third round of
    # the window joins the queue instead of finding it gone.
    assert rig.start("k2") == [] and rig.start("k3") == []
    assert rig.batches() == []
    frames = rig.flush()
    assert rig.last("on_timer") == (
        frames[:2] + [StartTimer(SILENCE, POLICY.silence_window)] + frames[2:]
    )
    # Cut at the cap, and each chunk asks a quorum of its own: the pick
    # rotates per chunk.
    assert [(f.destination, [sub.key for sub in unpack_batch(f.frame)]) for f in frames] == [
        (s1, ["k1", "k2"]), (s2, ["k1", "k2"]), (s2, ["k3"]), (s3, ["k3"]),
    ]
    stats = rig.owner.stats
    assert (stats.rounds, stats.sub_operations, stats.largest) == (2, 3, 2)
    assert stats.rounds_narrow == 3
    rig.run()
    assert [kind for kind, _ in rig.outcomes()] == ["ok", "ok", "ok"]
    assert (stats.frames_sent, stats.frames_received) == (4, 4)


def _updates_out(rig):
    """Whether a round that mutates has been sent."""
    return any(
        unpack_batch(sent.frame)[0].message.kind == "update" for sent in rig.batches()
    )


def no_owner_arms_a_timer_of_its_own_for_a_round(make_rig):
    # The one silence timer bounds every attempt: a read, a write and a
    # replay arm nothing per round, and a quorum cancels nothing.
    rig = make_rig()
    assert timer_kinds(rig.start("k1")) == ["flush"]
    assert rig.start("k2", write=True) == []
    rig.run()
    rig.start("k3")
    frames = rig.flush()
    rig.kill()
    for sent in frames:
        rig.feed("on_peer_lost", sent.destination)
    rig.revive()
    rig.run()
    assert [kind for kind, _ in rig.outcomes()] == ["ok"] * 3
    timers = [
        effect for _name, effects in rig.log for effect in effects
        if isinstance(effect, (StartTimer, CancelTimer))
    ]
    assert {type(e).__name__ for e in timers} == {"StartTimer"}
    assert {e.timer_id[0] for e in timers} == {
        "flush", "silence", rig.retry_timer(frames[0])[0]
    }


def an_attempt_sent_to_all_it_may_ask_fails_after_its_windows(make_rig):
    # An update asks the whole group, so nothing widens it: with more
    # replicas gone than the fault budget it fails at its due tick, after
    # max_round_timeouts windows or -- mutating, it may be deferred behind a
    # read lease -- ceil(lease_ttl / silence_window) + 1 = 4 if that is more.
    policy = RetryPolicy(reconnect_interval=5.0, max_round_timeouts=2,
                         silence_window=40.0)
    rig = make_rig(policy=policy, lease_ttl=100.0)
    rig.start(write=True)
    rig.run_until(lambda: _updates_out(rig))
    sent_at = rig.fabric.now
    rig.kill(*rig.servers[1:])  # silently, just after the update left
    rig.run_until(rig.outcome)
    assert 4 * 40.0 <= rig.fabric.now - sent_at <= 5 * 40.0
    rig.failure_effects(rig.last("on_timer"))  # and the timer lapses
    assert "no quorum" in rig.outcomes()[0][1]
    assert rig.owner.stats.rounds_widened == 0
    rig.run()
    assert rig.outcome() == "failed"


def a_tick_ignores_an_update_in_drain_backoff(make_rig):
    # Due two windows after it leaves (ceil(1 / 3) + 1), bounced after one
    # round trip, and backing off for more than two windows: the ticks in the
    # backoff neither fail it nor keep watching it, and its replay is due
    # afresh.
    policy = RetryPolicy(reconnect_interval=5.0, drain_backoff=7.0,
                         max_round_timeouts=1, silence_window=3.0)
    rig = make_rig(policy=policy, lease_ttl=1.0)
    rig.start(write=True)
    rig.run_until(lambda: _updates_out(rig))
    rig.fence()
    rig.run_until(lambda: rig.owner.drain_backoffs)
    rig.fence(ahead=0)
    log_mark = len(rig.log)
    replay = rig.flush()
    timers = [e for name, e in rig.log[log_mark:] if name == "on_timer"]
    assert timers[0] == []
    assert [f.destination for f in replay] == rig.servers
    assert unpack_batch(replay[0].frame)[0].message.kind == "update"
    rig.run()
    assert rig.outcome() == "ok"
    assert rig.owner.drain_backoffs == 1


class _Recorded:
    """A plain hub sink: ``(timestamp, kind, attrs)`` of every event."""

    def __init__(self):
        self.events = []

    def handle(self, event):
        self.events.append((event.ts, event.kind, event.attrs))

    def attrs(self, kind):
        return [attrs for _ts, seen, attrs in self.events if seen == kind]


def _quiet_or_loud(scenario):
    """The row ``scenario`` run twice: under a hub whose only sink is the
    metrics, so frames, timers, cache and lease events are counted inline,
    and under one a whole-event sink makes loud.  Both registries agree, and
    the loud run's event stream holds every frame the metrics counted."""

    def row(make_rig):
        snapshots = []
        for loud in (False, True):
            hub = ObserverHub()
            registry = MetricsRegistry()
            hub.add_sink(MetricsObserver(registry))
            recorded = hub.add_sink(_Recorded()) if loud else None
            scenario(lambda **kwargs: make_rig(hub=hub, **kwargs))
            snapshots.append(registry.snapshot())
        (tier,) = snapshots[1]
        counters = snapshots[1][tier]["counters"]
        kinds = [kind for _ts, kind, _attrs in recorded.events]
        assert counters["frames_sent"] == kinds.count(FRAME_SENT) > 0
        assert counters["frames_received"] == kinds.count(FRAME_RECEIVED) > 0
        assert snapshots[0] == snapshots[1]

    row.__name__ = f"{scenario.__name__}__quiet_or_loud"
    return row


COMMON = [
    first_attempts_ask_one_quorum_and_the_pick_rotates,
    a_lost_target_widens_the_round_at_once_under_the_same_identity,
    a_silent_target_widens_after_a_window_and_is_asked_last_from_then_on,
    replies_after_a_widening_count_each_replica_once,
    mutating_and_per_server_rounds_ask_the_whole_group,
    a_widened_round_the_whole_group_leaves_short_fails,
    silence_timer_ignores_a_round_in_drain_backoff,
    lost_quorum_retries_once_then_replays_under_a_fresh_identity,
    undelivered_frames_are_uncounted_across_the_replay,
    non_retryable_loss_fails_the_round_at_once,
    a_reply_too_large_for_any_frame_fails_the_round_at_once,
    transient_retries_run_out,
    same_route_bounce_backs_off_on_the_drain_window,
    drain_backoffs_run_out,
    changed_route_bounce_replays_to_the_new_group,
    stale_replays_run_out,
    a_full_queue_waits_for_its_flush_and_is_cut_at_the_cap,
    no_owner_arms_a_timer_of_its_own_for_a_round,
    an_attempt_sent_to_all_it_may_ask_fails_after_its_windows,
    a_tick_ignores_an_update_in_drain_backoff,
    _quiet_or_loud(lost_quorum_retries_once_then_replays_under_a_fresh_identity),
]


# -- rows only a proxy has --------------------------------------------------------


def restrictive_read_policy_targets_only_a_quorum(make_rig):
    rig = make_rig(read_policy=NearestQuorum(lambda origin, server: 0.0))
    rig.start()
    frames = rig.flush()
    assert len(frames) == 2 and {f.destination for f in frames} < set(rig.servers)
    rig.kill()
    # No spare target, and a policy's pick is never widened: losing one of the
    # two already loses the quorum.
    assert rig.feed("on_peer_lost", frames[0].destination) == [
        StartTimer(rig.retry_timer(frames[0]), POLICY.reconnect_interval)
    ]
    # A replica the round never targeted is not its loss.
    (other,) = set(rig.servers) - {f.destination for f in frames}
    assert rig.feed("on_peer_lost", other) == []
    rig.await_timer()
    rig.revive()
    rig.run()
    assert rig.outcome() == "ok"
    assert rig.owner.read_subs_sent == 4
    assert rig.owner.stats.rounds_narrow == 0


def broadcast_read_policy_opts_out_of_quorum_first(make_rig):
    rig = make_rig(read_policy=BroadcastReads())
    for key in ("k1", "k2"):
        assert timer_kinds(rig.start(key)) == ["flush"]
        frames = rig.flush()
        assert [f.destination for f in frames] == rig.servers
    rig.start("k3", write=True)
    rig.run()
    # Every frame went to every replica, and nothing was ever widened.
    assert sent_to(rig.batches()) == rig.servers * 3
    stats = rig.owner.stats
    assert (stats.rounds_narrow, stats.rounds_widened, rig.owner.read_subs_sent) == (0, 0, 6)


class _OneReplicaReads(ReadRoutingPolicy):
    """A policy that under-targets: one replica, whatever the quorum."""

    def read_targets(self, origin, servers, wait_for, key=None):
        return list(servers[:1])


def an_under_targeting_read_policy_falls_back_to_the_whole_group(make_rig):
    rig = make_rig(read_policy=_OneReplicaReads())
    rig.start()
    # One target could never collect a quorum of two: the round asks everyone.
    assert [f.destination for f in rig.flush()] == rig.servers
    rig.run()
    assert rig.outcome() == "ok"
    assert rig.owner.read_subs_sent == 3


def bounced_cache_fill_evicts_its_entry_and_completes_leaseless(make_rig):
    rig = make_rig(read_cache=8)
    assert ("lease", "k") in [
        e.timer_id for e in rig.start() if isinstance(e, StartTimer)
    ]
    frames = rig.flush()
    nonces = {unpack_batch(f.frame)[0].lease for f in frames}
    assert len(nonces) == 1 and None not in nonces
    rig.fence()
    rig.run_until(lambda: rig.owner.drain_backoffs)
    bounce = rig.last("on_frame")
    # The lease goes back to the group's queue, and the round backs off.
    assert bounce == [
        CancelTimer(("lease", "k")),
        StartTimer(("flush", rig.spec.group.group_id), 0.0),
        StartTimer(rig.retry_timer(frames[0]), POLICY.drain_backoff_interval),
    ]
    assert rig.owner.cache_invalidations == 1
    # Nothing else is queued, so at the flush the releases leave on their
    # own -- where the fill asked for the lease, and only there.
    released = rig.await_timer()
    assert [(e.destination, e.frame.kind) for e in released] == [
        (server_id, LEASE_RELEASE_KIND) for server_id in rig.servers[:2]
    ]
    assert (rig.owner.releases_carried, rig.owner.releases_alone) == (0, 2)
    rig.fence(ahead=0)
    replay = rig.flush()
    assert {unpack_batch(f.frame)[0].lease for f in replay} == {None}
    assert not any("releases" in f.frame.payload for f in replay)
    rig.run()
    assert rig.outcome() == "ok"
    # Nothing was cached: the next read of the key is a miss again.
    rig.start()
    assert (rig.owner.cache_hits, rig.owner.cache_misses) == (0, 2)
    rig.run()


def lease_releases_ride_the_next_frame_to_their_replica(make_rig):
    rig = make_rig(read_cache=8)
    s1, s2, s3 = rig.servers
    for done, key in enumerate(("k1", "k2"), start=1):
        rig.start(key)
        rig.run_until(lambda: len(rig.outcomes()) == done)
    # The two fills asked {s1, s2} and {s2, s3}, and were granted there.
    assert [sorted(rig.replicas[s].lease_holders(k) for k in ("k1", "k2"))
            for s in (s1, s2, s3)] == [[set(), {"p1"}], [{"p1"}, {"p1"}], [set(), {"p1"}]]
    # Two local writes in one window: each drops its key's entry, and the
    # releases wait in the group's queue with the updates.
    assert timer_kinds(rig.start("k1", write=True)) == ["flush"]
    assert timer_kinds(rig.start("k2", write=True)) == []
    frames = rig.flush()
    # Every replica's frame carries what it held, applied ahead of the
    # updates: no release frame of its own, and no write defers.
    assert [(f.destination, f.frame.payload.get("releases")) for f in frames] == [
        (s1, ["k1"]), (s2, ["k1", "k2"]), (s3, ["k2"]),
    ]
    assert (rig.owner.releases_carried, rig.owner.releases_alone) == (3, 0)
    rig.run()
    assert [kind for kind, _ in rig.outcomes()] == ["ok"] * 4
    assert not any(r.lease_holders(k) for r in rig.replicas.values() for k in ("k1", "k2"))
    assert sum(r.write_deferrals for r in rig.replicas.values()) == 0


def sever_drops_every_round(make_rig):
    rig = make_rig()
    rig.start("k1")
    rig.start("k2")
    rig.flush()              # sent
    rig.start("k3")          # still queued
    rig.owner.sever()
    log_mark = len(rig.log)
    rig.run()
    # The acks of the sent batch, the flush armed for k3 and the silence
    # window all find nothing.
    assert [name for name, _ in rig.log[log_mark:]].count("on_frame") == 2
    assert [name for name, _ in rig.log[log_mark:]].count("on_timer") == 2
    assert all(effects == [] for _name, effects in rig.log[log_mark:])
    assert rig.outcomes() == []
    assert rig.owner.stats.frames_received == 2
    # A proxy that comes back arms its silence timer afresh.
    rig.start("k4")
    assert rig.await_timer()[-1] == StartTimer(SILENCE, POLICY.silence_window)
    rig.run()


PROXY_ONLY = [
    restrictive_read_policy_targets_only_a_quorum,
    broadcast_read_policy_opts_out_of_quorum_first,
    an_under_targeting_read_policy_falls_back_to_the_whole_group,
    bounced_cache_fill_evicts_its_entry_and_completes_leaseless,
    lease_releases_ride_the_next_frame_to_their_replica,
    sever_drops_every_round,
    _quiet_or_loud(bounced_cache_fill_evicts_its_entry_and_completes_leaseless),
]


# -- rows only a shared link has ----------------------------------------------------


def _subs(sent):
    """``(key, sender, ident)`` of every sub-request a batch frame carries."""
    return [
        (sub.key, sub.message.sender, (sub.message.op_id, sub.message.round_trip))
        for sub in unpack_batch(sent.frame)
    ]


def a_merged_frame_keeps_each_subs_own_sender_and_identity(make_rig):
    rig = make_rig()
    s1, s2, _ = rig.servers
    assert timer_kinds(rig.start("k1", client="c1")) == ["flush"]
    assert rig.start("k2", client="c2") == []  # rides the flush c1 armed
    frames = rig.flush()
    # One frame per replica asked, not one per session: the link is whom the
    # replicas answer, and each sub still names its own client and attempt.
    assert [(f.destination, f.frame.sender) for f in frames] == [(s1, "L"), (s2, "L")]
    assert _subs(frames[0]) == _subs(frames[1])
    (key1, sender1, ident1), (key2, sender2, ident2) = _subs(frames[0])
    assert (key1, sender1, key2, sender2) == ("k1", "c1", "k2", "c2")
    assert ident1[0].startswith("c1-read-") and ident2[0].startswith("c2-read-")
    rig.run()
    assert [kind for kind, _ in rig.outcomes()] == ["ok", "ok"]
    # Both came back in one ack per replica; every frame is the link's.
    stats = rig.owner.stats
    assert (stats.rounds, stats.sub_operations, stats.largest) == (1, 2, 2)
    assert (stats.frames_sent, stats.frames_received, stats.rounds_narrow) == (2, 2, 2)
    for session in rig.sessions.values():
        assert session.stats == type(stats)()
        assert session.completed_operations == 1


def a_straggler_for_one_session_is_never_counted_into_anothers_quorum(make_rig):
    rig = make_rig()
    s1, s2, s3 = rig.servers
    rig.kill(s2)  # silently: both rounds sit one reply short
    rig.start("k", client="c1")
    first = rig.flush()
    # The same key: nothing but the identity differs.  c1's query is on the
    # wire, so c2's never joins it and goes in a frame of its own.
    rig.start("k", client="c2")
    second = rig.flush()
    assert [frame.destination for frame in first + second] == [s1, s2, s2, s3]
    rig.run_until(lambda: rig.owner.stats.frames_received == 2)
    assert rig.outcomes() == []
    assert rig.owner.stats.rounds_coalesced == 0
    rig.revive()
    only_c1 = rig.replica_ack(first[1])
    assert [type(e).__name__ for e in rig.feed("on_frame", only_c1)] == ["OpCompleted"]
    # Delivered again, c1's answer is a straggler of a finished attempt, and
    # c2's round -- same key, asking the same replica -- still waits for its own.
    assert rig.feed("on_frame", only_c1) == []
    assert [kind for kind, _ in rig.outcomes()] == ["ok"]
    assert rig.sessions["c2"].completed_operations == 0
    rig.feed("on_frame", rig.replica_ack(second[0]))
    assert [kind for kind, _ in rig.outcomes()] == ["ok", "ok"]
    rig.run()


def one_lost_replica_widens_every_sessions_round_in_one_frame(make_rig):
    rig = make_rig()
    s1, _, s3 = rig.servers
    rig.start("k1", client="c1")
    rig.start("k2", client="c2")
    frames = rig.flush()
    rig.kill(s1)
    (widening,) = rig.feed("on_peer_lost", s1)
    assert widening.destination == s3 and _subs(widening) == _subs(frames[0])
    rig.run()
    assert [kind for kind, _ in rig.outcomes()] == ["ok", "ok"]
    stats = rig.owner.stats
    assert (stats.rounds_narrow, stats.rounds_widened, stats.frames_sent) == (2, 2, 3)


def dropping_a_session_leaves_the_others_rounds_and_timers_alone(make_rig):
    rig = make_rig()
    s1, s2, s3 = rig.servers
    rig.kill(s2)
    rig.start("k1", client="c1")
    rig.start("k2", client="c2")
    rig.start("k2", client="c2")  # backlogged behind the first on its key
    rig.flush()
    closing = rig.feed("close", to=rig.sessions["c2"])
    # Its two operations fail; nothing of the link's is cancelled or re-armed.
    assert [type(e).__name__ for e in closing] == ["OpFailed", "OpFailed"]
    assert all(isinstance(e.error, ConnectionError) for e in closing)
    assert closing[0].key == closing[1].key == "k2"
    # The silence window still ends for c1's round, and widens it alone.
    (widening, rearm) = rig.await_timer()
    assert widening.destination == s3
    assert [(key, sender) for key, sender, _ in _subs(widening)] == [("k1", "c1")]
    assert rearm == StartTimer(SILENCE, POLICY.silence_window)
    rig.run()
    assert [kind for kind, _ in rig.outcomes()] == ["failed", "failed", "ok"]
    assert rig.sessions["c1"].completed_operations == 1
    # The answers to c2's sub arrived with c1's and found no round.
    assert rig.sessions["c2"].completed_operations == 0
    # A session in retry backoff when it goes takes its retry timer with it.
    rig.kill()
    rig.start("k3", client="c1")
    rig.start("k4", client="c2")
    sent = rig.flush()
    rig.feed("on_peer_lost", s1)
    timers = [e.timer_id for e in rig.feed("on_peer_lost", s3)]
    retry_c2 = next(t for t in timers if t[1].startswith("c2-"))
    assert len(timers) == 2 and rig.ident(sent[0])[0] in {t[1] for t in timers}
    closing = rig.feed("close", to=rig.sessions["c2"])
    assert closing[0] == CancelTimer(retry_c2)
    assert [type(e).__name__ for e in closing[1:]] == ["OpFailed"]
    rig.revive()
    rig.run()
    assert [kind for kind, _ in rig.outcomes()][3:] == ["failed", "ok"]
    assert rig.owner._pending == {} and rig.owner._retrying == {}


def max_batch_cuts_across_sessions(make_rig):
    rig = make_rig(max_batch=2)
    assert rig.owner.max_batch == 2  # the largest an attached session asked for
    assert timer_kinds(rig.start("k1", client="c1")) == ["flush"]
    # One queue for both sessions: full, it still waits for its flush.
    assert rig.start("k2", client="c2") == [] and rig.start("k3", client="c1") == []
    frames = rig.flush()
    assert [[sender for _, sender, _ in _subs(f)] for f in frames] == [
        ["c1", "c2"], ["c1", "c2"], ["c1"], ["c1"],
    ]
    rig.run()
    assert [kind for kind, _ in rig.outcomes()] == ["ok", "ok", "ok"]
    # A session that asks for more raises the cap for everybody.
    ClientSessionEngine(
        "c3", rig.shard_map, rig.sessions["c1"].recorder, max_batch=5, link=rig.owner
    )
    assert rig.owner.max_batch == 5


# -- one query per key per flush: rows of a link's sessions or a proxy's clients --


def _one_query_for_two(rig):
    """Two reads of ``k`` in one flush -- two sessions of a link, or two
    forwarded rounds at a proxy: one query goes out, the second riding it."""
    rig.start("k", client="c1")
    rig.start("k", client="c2")
    frames = rig.flush()
    assert [len(unpack_batch(frame.frame)) for frame in frames] == [1, 1]
    assert rig.owner.stats.rounds_coalesced == 1
    return frames


def _kinds(rig):
    return [kind for kind, _ in rig.outcomes()]


def two_reads_of_a_key_in_one_flush_complete_from_one_query(make_rig):
    rig = make_rig()
    _one_query_for_two(rig)
    rig.run()
    assert _kinds(rig) == ["ok", "ok"]
    stats = rig.owner.stats
    assert (stats.sub_operations, stats.frames_sent, stats.frames_received) == (1, 2, 2)


def a_stale_bounced_leaders_riders_replay_on_their_own(make_rig):
    rig = make_rig(num_groups=2)
    _one_query_for_two(rig)
    before = len(rig.batches())
    rig.move_shard()  # the replicas asked answer stale
    rig.run()
    assert _kinds(rig) == ["ok", "ok"]
    # Each went on in a sub of its own: a replay never rides.
    replayed = [sub for frame in rig.batches()[before:] for sub in unpack_batch(frame.frame)]
    assert len({sub.message.op_id for sub in replayed}) == 2
    assert rig.owner.stats.rounds_coalesced == 1


def widening_a_silent_leader_keeps_its_riders(make_rig):
    rig = make_rig()
    _, s2, _ = rig.servers
    rig.kill(s2)  # silently: the narrow quorum sits one reply short
    _one_query_for_two(rig)
    rig.run()
    assert _kinds(rig) == ["ok", "ok"]
    stats = rig.owner.stats
    assert (stats.rounds_narrow, stats.rounds_widened, stats.sub_operations) == (1, 1, 1)


def a_leader_put_off_to_a_retry_sends_its_riders_on_alone(make_rig):
    rig = make_rig()
    s1, s2, _ = rig.servers
    _one_query_for_two(rig)
    rig.kill(s1, s2)  # the query to both is lost
    rig.feed("on_peer_lost", s1)  # widened to s3
    rig.revive()
    rig.feed("on_peer_lost", s2)  # no quorum left: the leader waits to retry
    rig.run()
    assert _kinds(rig) == ["ok", "ok"]


def a_failed_leaders_riders_go_on_alone(make_rig):
    rig = make_rig()
    frames = _one_query_for_two(rig)
    error = ValueError("frame too large")
    for sent in frames:
        rig.feed("on_frame_undeliverable", sent.frame, error, retryable=False)
    rig.run()
    assert _kinds(rig) == ["failed", "ok"]


def riders_complete_in_queue_order(make_rig):
    rig = make_rig()
    for key in ("k", "k", "k", "k2"):
        rig.start(key)
    frames = rig.flush()
    assert [len(unpack_batch(frame.frame)) for frame in frames] == [2, 2]
    rig.run()
    acked = [
        reply.op_id for _, effects in rig.log for effect in effects
        if isinstance(effect, SendFrame) and effect.frame.kind == PROXY_ACK_KIND
        for reply in unpack_proxy_ack(effect.frame)
    ]
    assert acked == [f"c1-read-{n}" for n in (1, 2, 3, 4)]
    assert rig.owner.stats.rounds_coalesced == 2


def a_lease_fill_neither_leads_nor_rides(make_rig):
    rig = make_rig(read_cache=8)
    query = ProxySubRequest(
        key="k", op_kind="write", kind="query", payload={},
        op_id="c1-write-9", round_trip=1, trace="c1-write-9",
    )
    rig.start("k")  # a miss: the fill, lease-marked
    rig.feed("on_frame", make_proxy_request("c1", "p1", [query]))  # a write's query
    frames = rig.flush()
    assert [(sub.message.kind, sub.lease is not None) for sub in unpack_batch(frames[0].frame)] == [
        ("query", True), ("query", False),
    ]
    rig.run()
    assert _kinds(rig) == ["ok", "ok"]
    assert rig.owner.stats.rounds_coalesced == 0


def closing_the_leaders_session_sends_its_riders_on_alone(make_rig):
    rig = make_rig()
    _one_query_for_two(rig)
    rig.feed("close", to=rig.sessions["c1"])
    rig.run()
    assert _kinds(rig) == ["failed", "ok"]
    assert [s.completed_operations for s in rig.sessions.values()] == [0, 1]


def closing_a_riders_session_leaves_its_leader_to_finish_alone(make_rig):
    rig = make_rig()
    _one_query_for_two(rig)
    rig.feed("close", to=rig.sessions["c2"])
    rig.run()
    assert _kinds(rig) == ["failed", "ok"]
    assert [s.completed_operations for s in rig.sessions.values()] == [1, 0]


COALESCING = [
    two_reads_of_a_key_in_one_flush_complete_from_one_query,
    a_stale_bounced_leaders_riders_replay_on_their_own,
    widening_a_silent_leader_keeps_its_riders,
    a_leader_put_off_to_a_retry_sends_its_riders_on_alone,
    a_failed_leaders_riders_go_on_alone,
]

PROXY_ONLY += [riders_complete_in_queue_order, a_lease_fill_neither_leads_nor_rides]

LINK_ONLY = [
    a_merged_frame_keeps_each_subs_own_sender_and_identity,
    a_straggler_for_one_session_is_never_counted_into_anothers_quorum,
    one_lost_replica_widens_every_sessions_round_in_one_frame,
    dropping_a_session_leaves_the_others_rounds_and_timers_alone,
    max_batch_cuts_across_sessions,
    closing_the_leaders_session_sends_its_riders_on_alone,
    closing_a_riders_session_leaves_its_leader_to_finish_alone,
]

TABLE = [(mode, row) for row in COMMON for mode in ("direct", "proxy")] + [
    ("proxy", row) for row in PROXY_ONLY
] + [("link", row) for row in LINK_ONLY] + [
    (mode, row) for row in COALESCING for mode in ("link", "proxy")
]


def run_row(mode, row):
    row(lambda **kwargs: Rig(mode, **kwargs))


@pytest.mark.parametrize(
    "mode,row", TABLE, ids=[f"{row.__name__}[{mode}]" for mode, row in TABLE]
)
def test_replica_round_scenario(mode, row):
    run_row(mode, row)


# -- what an operator sees of it ---------------------------------------------------


@pytest.mark.parametrize("mode", ["direct", "proxy"])
def test_widenings_and_loss_replays_show_in_the_event_stream(mode):
    hub = ObserverHub()
    registry = MetricsRegistry()
    hub.add_sink(MetricsObserver(registry))
    recorded = hub.add_sink(_Recorded())
    rig = Rig(mode, hub=hub)
    s1, s2, s3 = rig.servers
    rig.kill(s2)
    # Six windows with a round out in each: one widened by silence ...
    rig.start("silent")
    rig.run()
    # ... one by a reported loss (the next pick puts the silent replica last) ...
    rig.start("lost")
    (asked, _) = rig.flush()
    rig.feed("on_peer_lost", asked.destination)
    rig.run()
    # ... and one that loses its quorum outright and is replayed.
    rig.kill()
    rig.start("replayed")
    for sent in rig.flush():
        rig.feed("on_peer_lost", sent.destination)
    rig.await_timer()
    rig.revive()
    rig.run()
    assert [kind for kind, _ in rig.outcomes()] == ["ok"] * 3
    assert [a["reason"] for a in recorded.attrs(ROUND_WIDENED)] == [
        "silent", "replica-lost", "replica-lost"
    ]
    assert [a["reason"] for a in recorded.attrs(ROUND_REPLAYED)] == ["replica-lost"]
    tier = "client" if mode == "direct" else "proxy"
    counters = registry.snapshot()[tier]["counters"]
    assert counters["rounds_widened"] == rig.owner.stats.rounds_widened == 3
    # One silence timer per engine: armed at most once per window, however
    # many rounds went out in it.
    arms = [
        ts for ts, kind, attrs in recorded.events
        if kind == TIMER_ARMED and attrs["timer"] == "silence"
    ]
    assert arms and all(
        later - earlier >= POLICY.silence_window
        for earlier, later in zip(arms, arms[1:])
    )
    assert len(arms) <= rig.fabric.now / POLICY.silence_window


@pytest.mark.parametrize("mode", ["direct", "proxy"])
def test_a_silent_group_shows_one_widening_and_no_replay_in_the_event_stream(mode):
    hub = ObserverHub()
    recorded = hub.add_sink(_Recorded())
    policy = RetryPolicy(reconnect_interval=5.0, max_round_timeouts=1,
                         silence_window=20.0)
    rig = Rig(mode, policy=policy, hub=hub)
    rig.kill()
    rig.start()
    rig.run_until(rig.outcome)
    assert rig.outcome() == "failed"
    # The attempt is widened after its window and given up on one later:
    # nothing is replayed in between.
    assert rig.fabric.now == 2 * policy.silence_window
    rig.run()
    assert recorded.attrs(ROUND_REPLAYED) == []
    assert [a["reason"] for a in recorded.attrs(ROUND_WIDENED)] == ["silent"]


# -- any group shape, any batch mix: a narrow pick is a quorum of its own group ---


@settings(max_examples=60, deadline=None)
@given(
    mode=st.sampled_from(["direct", "proxy"]),
    shape=st.integers(3, 7).flatmap(
        lambda servers: st.tuples(
            st.just(servers), st.integers(1, (servers - 1) // 2)
        )
    ),
    flushes=st.lists(
        st.lists(
            st.tuples(st.integers(0, 5), st.booleans()), min_size=1, max_size=6,
            unique_by=lambda op: op[0],
        ),
        min_size=1, max_size=5,
    ),
)
def test_every_narrow_pick_is_a_quorum_of_the_rounds_own_group(mode, shape, flushes):
    servers, faults = shape
    shard_map = ShardMap(
        4, servers_per_shard=servers, max_faults=faults, num_groups=2,
        readers=1, writers=1,
    )
    rig = Rig(mode, shard_map=shard_map, max_batch=64)
    seen = set()
    for batch in flushes:
        before = len(rig.batches())
        for key_index, write in batch:
            rig.start(f"key-{key_index}", write=write)
        rig.run()
        asked = {}
        for sent in rig.batches()[before:]:
            for sub in unpack_batch(sent.frame):
                ident = (sub.message.op_id, sub.message.round_trip)
                asked.setdefault((ident, sub.key, sub.message.kind), []).append(
                    sent.destination
                )
        for (_ident, key, kind), destinations in asked.items():
            group = shard_map.shard_for(key).group.servers
            assert len(set(destinations)) == len(destinations)
            assert set(destinations) <= set(group)
            narrow = kind == "query"
            assert len(destinations) == (servers - faults if narrow else servers)
            seen.add(narrow)
    assert rig.owner.stats.rounds_widened == 0
    assert all(kind == "ok" for kind, _ in rig.outcomes())
    assert True in seen or all(write for batch in flushes for _, write in batch)


# -- one queue rule: any sessions, groups and proxies, any cap ---------------------


_WINDOW = st.lists(
    st.one_of(
        st.tuples(st.just("invoke"), st.integers(0, 3), st.integers(0, 5), st.booleans()),
        st.tuples(st.just("close"), st.integers(0, 3)),
        st.just(("lose", "p1")),
    ),
    max_size=30,
)


def _chunks(sent, group_of):
    """Destination -> the op ids of each chunk its flush sent.  A proxy's
    chunk is one frame; a group's is one frame per replica it asks, the same
    subs in each."""
    chunks, asked = {}, {}
    for effect in sent:
        frame = effect.frame
        if frame.kind == PROXY_KIND:
            chunks.setdefault(effect.destination, []).append(tuple(
                parse_attempt_scoped_id(sub.op_id)[0] for sub in unpack_proxy_request(frame)
            ))
            continue
        ops = tuple(sub.message.op_id for sub in unpack_batch(frame))
        asked.setdefault((group_of[effect.destination], ops), []).append(effect.destination)
    for (group_id, ops), replicas in asked.items():
        # Every first round is a query, so each chunk asks one narrow quorum.
        assert len(set(replicas)) == len(replicas) == 2
        chunks.setdefault(group_id, []).append(ops)
    return chunks


@settings(max_examples=150, deadline=None)
@given(
    cap=st.integers(1, 8),
    ingresses=st.lists(st.sampled_from([None, "p1", "p2"]), min_size=1, max_size=4),
    window=_WINDOW,
)
@example(  # withdrawn from the lost proxy before its flush
    cap=2, ingresses=["p1", None],
    window=[("invoke", 0, 0, False), ("invoke", 1, 1, False), ("lose", "p1")],
)
@example(  # released before its flush
    cap=1, ingresses=[None, "p2"],
    window=[("invoke", 0, 0, False), ("invoke", 1, 0, True), ("close", 1)],
)
def test_every_queue_leaves_once_at_its_flush_cut_at_the_cap(cap, ingresses, window):
    shard_map = ShardMap(4, num_groups=2, readers=4, writers=4)
    fabric = Fabric()
    group_of = {}
    for group in shard_map.groups.values():
        hosted = {spec.shard_id: spec.epoch for spec in shard_map.shards_on(group.group_id)}
        for server_id in group.servers:
            group_of[server_id] = group.group_id
            fabric.register(server_id, GroupServerEngine(server_id, group.protocol, dict(hosted)))
    for proxy_id in ("p1", "p2"):
        fabric.register(
            proxy_id, ProxyEngine(proxy_id, CachedShardView(shard_map), policy=SIM_RETRY_POLICY)
        )
    link = ClientLink("L", policy=SIM_RETRY_POLICY, clock=lambda: fabric.now)
    fabric.register("L", link)
    flushed = []
    coalesced = [0]
    on_timer = link.on_timer

    def recording(timer_id):
        effects = on_timer(timer_id)
        if timer_id[0] == "flush" and fabric.now == 0:  # the window's flushes
            flushed.extend(e for e in effects if isinstance(e, SendFrame))
            # ... and the rounds that rode another's query at them.
            coalesced[0] = link.stats.rounds_coalesced + link.proxy_stats.rounds_coalesced
        return effects

    link.on_timer = recording
    recorder = KVHistoryRecorder(lambda: fabric.now)
    candidates = {None: [], "p1": ["p1", "p2"], "p2": ["p2"]}
    sessions = [
        ClientSessionEngine(
            f"c{index + 1}", shard_map, recorder, policy=SIM_RETRY_POLICY,
            max_batch=cap, proxy_candidates=candidates[ingress], link=link,
        )
        for index, ingress in enumerate(ingresses)
    ]
    for proxy_id in ("p1", "p2"):
        fabric.execute("L", link.on_connected(proxy_id))
    # One window: nothing runs on the fabric until every input is in.
    owner, active, queued, closed, lost = {}, set(), set(), set(), False
    invoked = Counter()
    for action in window:
        if action[0] == "lose":
            if not lost:
                lost = True
                fabric.down.add("p1")
                fabric.execute("L", link.on_peer_lost("p1"))
            continue
        index = action[1]
        if index >= len(sessions) or index in closed:
            continue
        if action[0] == "close":
            closed.add(index)
            queued = {op_id for op_id in queued if owner[op_id] != index}
            fabric.execute("L", sessions[index].close())
            continue
        _, _, key_index, write = action
        key = f"k{key_index}"
        op_id, effects = sessions[index].invoke(
            OpKind.WRITE if write else OpKind.READ, key, "v" if write else None
        )
        fabric.execute("L", effects)
        invoked[index] += 1
        if (index, key) not in active:  # else backlogged behind the first
            active.add((index, key))
            owner[op_id] = index
            queued.add(op_id)
    fabric.run()
    chunks = _chunks(flushed, group_of)
    for destination, cut in chunks.items():
        rounds = sum(len(ops) for ops in cut)
        assert len(cut) == math.ceil(rounds / cap)
        assert max(len(ops) for ops in cut) <= cap
    # Every round queued in the window left exactly once or rode one that
    # did; one released before the flush never did, nor one withdrawn from
    # the lost proxy there.
    left = Counter(op_id for cut in chunks.values() for ops in cut for op_id in ops)
    assert set(left.values()) <= {1} and set(left) <= queued
    assert len(queued) - len(left) == coalesced[0]
    if lost:
        assert "p1" not in chunks
    assert recorder.completed_operations == sum(
        count for index, count in invoked.items() if index not in closed
    )
    assert all(isinstance(failed.error, ConnectionError) for failed in fabric.failures)
    assert check_per_key_atomicity(recorder.histories()).all_atomic


# -- direct vs proxied: one machinery, seen from the replicas --------------------


def _sub_requests_by_replica(use_proxy):
    """What each replica is asked, in order, over the shared script."""
    _, fabric, client, _, _ = build_memory_stack(use_proxy=use_proxy)
    seen = {}
    for server_id, engine in fabric.engines.items():
        if not isinstance(engine, GroupServerEngine):
            continue
        original = engine.on_frame

        def on_frame(frame, _original=original, _seen=seen.setdefault(server_id, [])):
            if frame.kind == BATCH_KIND:
                _seen.extend(
                    (sub.key, sub.message.kind, sub.message.payload, sub.shard, sub.epoch)
                    for sub in unpack_batch(frame)
                )
            return _original(frame)

        engine.on_frame = on_frame
    run_script(fabric, client, SCRIPT)
    return seen


def test_replicas_see_the_same_sub_requests_direct_and_proxied():
    # One sequential client, cache off, broadcast reads: modulo who sent the
    # frame and how the op id is scoped, a replica cannot tell the ingress.
    direct = _sub_requests_by_replica(use_proxy=False)
    proxied = _sub_requests_by_replica(use_proxy=True)
    assert direct == proxied
    assert len(direct) == 3 and all(direct.values())
