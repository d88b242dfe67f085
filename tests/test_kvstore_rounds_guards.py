"""Guards on the one copy of the replica-round machinery.

**Executed lines.**  The machinery used to exist twice, and a line trace of
the whole suite showed that the loss and give-up paths of both copies had
never executed.  With one copy left, the first test keeps it honest using the
standard library only: it runs the table of ``test_kvstore_rounds`` under
``sys.settrace`` and asserts that every executable line of every function in
``engine/rounds.py`` was reached.  Lines are enumerated with
``dis.findlinestarts`` over the module's code objects; module- and
class-level code ran at import.

**Resolved divergences.**  Where the two copies disagreed, the merge took the
documented behaviour; the remaining tests pin it (they fail on the direct
client of the commit before the merge, which is why they are not rows of the
characterisation table).
"""

from __future__ import annotations

import dis
import inspect
import itertools
import sys
from pathlib import Path

import pytest

import repro.kvstore.engine.rounds as rounds_module
from repro.core.operations import OpKind
from repro.kvstore import RetryPolicy, ShardMap
from repro.kvstore.engine import ClientSessionEngine, Connect
from repro.kvstore.perkey import KVHistoryRecorder
from repro.messages import unpack_batch

from test_kvstore_rounds import POLICY, TABLE, Rig, run_row

SOURCE = Path(rounds_module.__file__)


def _function_lines(code):
    """Line numbers with bytecode in every function nested under ``code``."""
    lines = set()
    for const in code.co_consts:
        if inspect.iscode(const):
            lines |= _function_lines(const)
    if code.co_flags & inspect.CO_OPTIMIZED:  # a function, not a module/class body
        lines |= {line for _, line in dis.findlinestarts(code) if line is not None}
    return lines


def _executed_lines():
    filename = str(SOURCE)
    executed = set()

    def local_trace(frame, event, arg):
        if event == "line":
            executed.add(frame.f_lineno)
        return local_trace

    def global_trace(frame, event, arg):
        if frame.f_code.co_filename != filename:
            return None
        executed.add(frame.f_lineno)
        return local_trace

    previous = sys.gettrace()
    sys.settrace(global_trace)
    try:
        for mode, row in TABLE:
            run_row(mode, row)
    finally:
        sys.settrace(previous)
    return executed


def test_the_scenario_table_executes_every_line_of_the_multiplexer():
    source = SOURCE.read_text(encoding="utf-8")
    expected = _function_lines(compile(source, str(SOURCE), "exec"))
    assert len(expected) > 100  # the enumeration really saw the module
    text = source.splitlines()
    missing = [
        f"{SOURCE.name}:{line}: {text[line - 1].strip()}"
        for line in sorted(expected - _executed_lines())
    ]
    # Nothing is allow-listed: the module has no unreachable invariant checks.
    assert not missing, "never executed:\n" + "\n".join(missing)


# -- divergences between the two copies, resolved ---------------------------------


@pytest.mark.parametrize("mode", ["direct", "proxy"])
def test_a_queued_round_goes_to_the_group_it_was_resolved_for(mode):
    # A sub-request carries the (shard, epoch) its owner resolved, so it goes
    # to the group resolved with them -- even when the shard moves between
    # queueing and the flush.  The old owner's fence then bounces it to the
    # new one.  (The direct client used to read the group through the live,
    # mutable ShardSpec at flush time: new group, old epoch.)
    rig = Rig(mode, num_groups=2)
    planned_servers, planned_epoch = rig.servers, rig.spec.epoch
    rig.start()
    rig.move_shard()
    frames = rig.flush()
    assert [f.destination for f in frames] == planned_servers[:2]  # a quorum of it
    assert not set(planned_servers) & set(rig.servers)
    assert unpack_batch(frames[0].frame)[0].epoch == planned_epoch
    rig.run()
    assert rig.outcome() == "ok"
    assert rig.owner.stale_replays == 1


def test_a_round_queued_from_inside_a_silence_tick_starts_its_own_window():
    # The tick that fails an op starts its key's backlogged successor, whose
    # round is queued while the tick is being handled and goes out at its
    # flush.  It must not be left watched by a timer nobody armed.
    policy = RetryPolicy(reconnect_interval=5.0, max_round_timeouts=1,
                         silence_window=40.0)
    rig = Rig("direct", policy=policy)
    rig.kill(*rig.servers[1:])
    rig.start("k")
    rig.start("k")  # queued behind the first on its key
    rig.run()
    assert [kind for kind, _ in rig.outcomes()] == ["failed", "failed"]
    assert rig.fabric.now == 4 * policy.silence_window


def test_replica_loss_does_not_touch_rounds_stashed_for_a_proxy_failover():
    # Rounds waiting for the next proxy are no replica's business.  (The
    # client's own copy of the loss scan walked every active operation and
    # armed a retry timer for them.)
    shard_map = ShardMap(1, num_groups=1, readers=1, writers=1)
    ticks = itertools.count()
    client = ClientSessionEngine(
        "c1", shard_map, KVHistoryRecorder(lambda: float(next(ticks))),
        policy=POLICY, proxy_candidates=["p1", "p2"],
    )
    client.on_connected("p1")
    client.invoke(OpKind.READ, "k")
    (sent,) = client.on_timer(("flush", "p1"))
    assert sent.destination == "p1"
    assert client.on_peer_lost("p1") == [Connect("p2")]
    for server_id in shard_map.groups["g1"].servers:
        assert client.on_peer_lost(server_id) == []
