"""The engine fabric itself: its default schedule is pinned by a golden.

:class:`repro.kvstore.engine.fabric.Fabric` runs the engines of
``test_kvstore_engine``'s memory stack.  Its default schedule (earliest due
first, ties in scheduling order, one time unit per frame) decides every
trace those tests compare across backends, so the schedule itself is pinned:
``tests/golden/fabric_traces.json`` holds the normalized ``memory_trace`` of
``SCRIPT`` direct and proxied and of ``CACHED_SCRIPT`` behind a read-cache
proxy (as lists, so a diff shows where an order moved), and the armed, fired
and cancelled timer counts per tier of the two memory timer-lifecycle scripts.

The golden was captured at commit ed418a3 with :func:`capture`, on the
test-local ``MemoryFabric`` this fabric replaced (it had its own effect
dispatch and timer table); the fabric reproduces it exactly.
``python tests/test_engine_fabric.py`` prints the golden for the checkout on
``PYTHONPATH``.

The rest pins the surface the tests drive -- the adversary's ``actions()`` /
``take()``, ``schedule``, ``hold`` and the ``Connect`` hook -- and the rules
the simulated store relies on: ``run(until=t)`` runs what is due at ``t``, a
cancelled action moves no clock, ``max_events`` caps a livelock, ``running``
is set only inside ``run``, a ``down`` process's frames vanish, and a serving
replica holds its replies and queues its requests.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

from repro.core.errors import SimulationError
from repro.kvstore.engine import CancelTimer, Connect, SendFrame, StartTimer
from repro.kvstore.engine.fabric import Fabric
from repro.messages import Message
from repro.observe import MetricsObserver, ObserverHub

from test_kvstore_engine import CACHED_SCRIPT, memory_trace

GOLDEN = Path(__file__).parent / "golden" / "fabric_traces.json"


def _traces(**kwargs):
    client, proxy = memory_trace(**kwargs)
    return {"client": [list(e) for e in client], "proxy": [list(e) for e in proxy]}


def _timer_counts(use_proxy):
    hub = ObserverHub()
    metrics = hub.add_sink(MetricsObserver())
    memory_trace(use_proxy=use_proxy, hub=hub)
    snapshot = metrics.registry.snapshot()
    return {
        tier: {what: snapshot[tier]["counters"].get(f"timers_{what}", 0)
               for what in ("armed", "fired", "cancelled")}
        for tier in snapshot
    }


def capture():
    return {
        "traces": {
            "script_direct": _traces(use_proxy=False),
            "script_proxied": _traces(use_proxy=True),
            "cached_script_proxied_read_cache_8": _traces(
                use_proxy=True, script=CACHED_SCRIPT, read_cache=8
            ),
        },
        "timer_counts": {"direct": _timer_counts(False), "proxied": _timer_counts(True)},
    }


def render(golden) -> str:
    """Indented JSON with every trace entry on one line."""
    text = json.dumps(golden, indent=2, sort_keys=True)
    return re.sub(
        r"\[\n\s+([^\[\]{}]*?)\n\s+\]",
        lambda m: "[" + re.sub(r",\n\s+", ", ", m.group(1)) + "]",
        text,
    ) + "\n"


def test_default_schedule_reproduces_the_golden_traces_and_timer_counts():
    assert capture() == json.loads(GOLDEN.read_text(encoding="utf-8"))


# -- the surface the tests drive -------------------------------------------------


class Stub:
    """Answers every input from a script keyed by the input; logs the inputs."""

    def __init__(self):
        self.script = {}
        self.log = []

    def _answer(self, name, arg):
        self.log.append((name, arg))
        return self.script.get((name, arg), [])

    def on_frame(self, frame):
        return self._answer("frame", frame.kind)

    def on_timer(self, timer_id):
        return self._answer("timer", timer_id)

    def on_connected(self, target):
        return self._answer("connected", target)


def send(source, destination, kind):
    return SendFrame(destination, Message(source, destination, kind))


def stubs(fabric, *ids):
    for process_id in ids:
        fabric.register(process_id, Stub())
    return [fabric.engines[process_id] for process_id in ids]


def test_frames_take_one_unit_and_ties_run_in_scheduling_order():
    fabric = Fabric()
    a, b = stubs(fabric, "a", "b")
    fabric.execute("a", [send("a", "b", "x"), StartTimer(("t",), 1.0),
                         send("a", "b", "y")])
    fabric.schedule(1.0, lambda: b.log.append(("callback", fabric.now)))
    fabric.run()
    assert b.log == [("frame", "x"), ("frame", "y"), ("callback", 1.0)]
    assert a.log == [("timer", ("t",))] and fabric.now == 1.0


def test_run_until_runs_what_is_due_at_the_deadline_and_keeps_the_clock_there():
    fabric = Fabric()
    (a,) = stubs(fabric, "a")
    fabric.execute("a", [StartTimer(("early",), 2.0), StartTimer(("on time",), 5.0),
                         StartTimer(("late",), 6.0)])
    fabric.run(until=5.0)
    assert a.log == [("timer", ("early",)), ("timer", ("on time",))]
    assert fabric.now == 5.0
    fabric.run(until=5.5)  # nothing due: the clock stays at the last action
    assert fabric.now == 5.0
    fabric.run(until=fabric.now + 10.0)
    assert a.log[-1] == ("timer", ("late",)) and fabric.now == 6.0


def test_a_cancelled_action_due_last_does_not_move_the_clock():
    # A run's duration is the clock at quiescence: an armed timer cancelled
    # before it fell due (a lease released early, a silence window closed)
    # must not stretch it, or every rate over the run shrinks.
    fabric = Fabric()
    (a,) = stubs(fabric, "a")
    fabric.execute("a", [StartTimer(("fires",), 2.0), StartTimer(("cancelled",), 9.0)])
    dropped = fabric.schedule(12.0, lambda: None)
    fabric.execute("a", [CancelTimer(("cancelled",))])
    dropped.cancel()
    fabric.run()
    assert a.log == [("timer", ("fires",))] and fabric.now == 2.0
    assert not fabric.step() and fabric.now == 2.0


def test_the_event_cap_raises_and_running_is_true_only_inside_run():
    fabric = Fabric()
    seen = []

    def tick():
        seen.append(fabric.running)
        fabric.schedule(1.0, tick)  # rearms forever: a livelock

    fabric.schedule(0.0, tick)
    assert not fabric.running
    with pytest.raises(SimulationError, match="event cap of 5"):
        fabric.run(max_events=5)
    assert seen == [True] * 5 and not fabric.running
    fabric.schedule(0.0, lambda: None)
    fabric.run(until=7.0, max_events=10)  # within the cap: no error
    assert fabric.now == 7.0


def test_a_down_process_loses_its_frames_without_a_trace_on_the_clock():
    fabric = Fabric()
    a, b = stubs(fabric, "a", "b")
    fabric.down.add("b")
    fabric.execute("a", [send("a", "b", "lost")])  # dropped at send
    fabric.execute("b", [send("b", "a", "lost too")])
    assert fabric.sent == 2 and fabric.connections == {} and not fabric.step()
    fabric.down.clear()
    fabric.execute("a", [send("a", "b", "in flight")])
    fabric.down.add("b")
    fabric.run()  # dropped on arrival: the receiver went down meanwhile
    assert a.log == [] and b.log == [] and fabric.now == 1.0
    fabric.down.clear()
    fabric.execute("a", [send("a", "b", "x")])
    fabric.run()
    assert b.log == [("frame", "x")] and fabric.sent == 4


def test_a_serving_process_holds_its_replies_and_queues_its_requests():
    fabric = Fabric()
    (a,) = stubs(fabric, "a")
    replica = Stub()
    fabric.register("r", replica, service=(0.5, 0.25))
    replica.script[("frame", "batch")] = [send("r", "a", "ack")]
    replica.script[("timer", ("lease",))] = [send("r", "a", "expired")]
    ops = {"ops": [1, 2, 3]}  # three sub-operations: 0.5 + 3 * 0.25
    fabric.execute("a", [SendFrame("r", Message("a", "r", "batch", ops)),
                         SendFrame("r", Message("a", "r", "batch", ops))])
    fabric.execute("r", [StartTimer(("lease",), 1.5)])
    arrivals = []
    a.on_frame = lambda frame: arrivals.append((frame.kind, fabric.now)) or []
    fabric.run()
    # Both requests land at 1: the first is served by 2.25, the second
    # queues behind it until 3.5.  The timer fires at 1.5, but its frame
    # waits for the service queue too: it leaves at 3.5, behind the second
    # reply, so the connection stays first-in first-out.
    assert arrivals == [("ack", 3.25), ("ack", 4.5), ("expired", 4.5)]


def test_actions_list_connections_sorted_then_timers_oldest_armed_first():
    fabric = Fabric()
    a, b = stubs(fabric, "a", "b")
    fabric.execute("b", [StartTimer(("one",), 9.0), send("b", "a", "m")])
    fabric.execute("a", [StartTimer(("two",), 1.0), send("a", "b", "x"),
                         send("a", "b", "y"), StartTimer(("one",), 1.0)])
    fabric.execute("b", [StartTimer(("one",), 9.0)])  # re-armed: goes last
    assert fabric.actions() == [
        ("deliver", ("a", "b")), ("deliver", ("b", "a")),
        ("fire", ("a", ("two",))), ("fire", ("a", ("one",))),
        ("fire", ("b", ("one",))),
    ]
    fabric.take(("fire", ("b", ("one",))))
    fabric.take(("deliver", ("a", "b")))
    assert b.log == [("timer", ("one",)), ("frame", "x")]
    fabric.execute("a", [CancelTimer(("two",))])
    assert [action for action, _ in fabric.actions()] == ["deliver", "deliver", "fire"]
    fabric.run()  # the default schedule skips what the adversary already ran
    assert b.log == [("timer", ("one",)), ("frame", "x"), ("frame", "y")]
    assert a.log == [("frame", "m"), ("timer", ("one",))]


def test_hold_parks_matching_frames_until_release():
    fabric = Fabric()
    _, b = stubs(fabric, "a", "b")
    release = fabric.hold(lambda effect: effect.frame.kind == "x")
    fabric.execute("a", [send("a", "b", "x"), send("a", "b", "y")])
    fabric.run()
    assert b.log == [("frame", "y")]
    release()
    assert b.log == [("frame", "y"), ("frame", "x")]


def test_connect_effects_join_the_tail_of_the_batch():
    fabric = Fabric()
    a, _ = stubs(fabric, "a", "b")
    a.script[("connected", "b")] = [send("a", "b", "hello")]
    fabric.execute("a", [Connect("b"), send("a", "b", "first")])
    fabric.run()
    assert fabric.engines["b"].log == [("frame", "first"), ("frame", "hello")]


if __name__ == "__main__":
    sys.stdout.write(render(capture()))
