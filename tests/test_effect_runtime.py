"""Tests for the effect interpreter (`repro.kvstore.engine.runtime`).

The runtime is driven with a scripted ``schedule`` that records the handles
it gives out, a ``send`` that records frames, and a stub engine -- no
transport, no clock.  What is pinned here is what every adapter relies on:
the timer table's re-arm / cancel / fire / shutdown rules and their
``timer.*`` events, per-call lookup of the engine's methods, and the order
in which nested and handed-back effects execute.
"""

from __future__ import annotations

import pytest

from repro.kvstore.engine import (
    CancelTimer,
    Connect,
    EffectRuntime,
    OpCompleted,
    SendFrame,
    StartTimer,
)
from repro.messages import Message
from repro.observe import (
    TIMER_ARMED,
    TIMER_CANCELLED,
    TIMER_FIRED,
    MetricsObserver,
    ObserverHub,
)


class Handle:
    def __init__(self, delay, callback):
        self.delay = delay
        self.callback = callback
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class EventLog:
    """A plain hub sink: keeps every event whole, in emission order."""

    def __init__(self):
        self.events = []

    def handle(self, event):
        self.events.append(event)


class StubEngine:
    """Answers ``on_timer`` from a script and ``on_connected`` with a frame."""

    def __init__(self, observer=None):
        if observer is not None:
            self.observer = observer
        self.timer_script = {}

    def on_timer(self, timer_id):
        return self.timer_script.get(timer_id, [])

    def on_connected(self, target):
        return [frame(f"hello-{target}")]


def frame(kind):
    return SendFrame("s1", Message("c1", "s1", kind))


class Harness:
    def __init__(self, **hooks):
        self.hub = ObserverHub()
        self.metrics = self.hub.add_sink(MetricsObserver())
        self.trace = self.hub.add_sink(EventLog())
        self.engine = StubEngine(self.hub.scoped("client", "c1"))
        self.handles = []
        self.sent = []
        self.runtime = EffectRuntime(self.engine, self.schedule, self.send, **hooks)

    def schedule(self, delay, callback):
        self.handles.append(Handle(delay, callback))
        return self.handles[-1]

    def send(self, effect):
        self.sent.append(effect.frame.kind)

    def timer_events(self):
        return [
            (event.kind, event.attrs.get("timer"), event.attrs.get("reason"))
            for event in self.trace.events
            if event.kind in (TIMER_ARMED, TIMER_CANCELLED, TIMER_FIRED)
        ]

    def counters(self):
        counters = self.metrics.registry.snapshot()["client"]["counters"]
        return tuple(counters[f"timers_{what}"] for what in ("armed", "fired", "cancelled"))


class TestTimerTable:
    def test_rearm_cancels_the_old_handle_then_arms(self):
        h = Harness()
        h.runtime.run([StartTimer(("flush", "g1"), 1.0)])
        h.runtime.run([StartTimer(("flush", "g1"), 2.0)])
        old, new = h.handles
        assert old.cancelled and not new.cancelled
        assert h.runtime.timers == {("flush", "g1"): new}
        assert (old.delay, new.delay) == (1.0, 2.0)
        assert h.timer_events() == [
            (TIMER_ARMED, "flush", None),
            (TIMER_CANCELLED, "flush", "rearm"),
            (TIMER_ARMED, "flush", None),
        ]

    def test_cancel_emits_once_and_an_unknown_id_is_silent(self):
        h = Harness()
        h.runtime.run([CancelTimer(("never", 1))])
        assert h.timer_events() == [] and h.handles == []
        h.runtime.run([StartTimer(("t", 1), 1.0), CancelTimer(("t", 1)),
                       CancelTimer(("t", 1))])
        assert h.handles[0].cancelled and h.runtime.timers == {}
        assert h.timer_events() == [(TIMER_ARMED, "t", None),
                                    (TIMER_CANCELLED, "t", "cancel")]

    def test_a_fired_id_is_gone_before_on_timer_and_may_be_rearmed_inside_it(self):
        h = Harness()
        seen_by_engine = []
        original = h.engine.on_timer

        def on_timer(timer_id):
            seen_by_engine.append(dict(h.runtime.timers))
            return original(timer_id)

        h.engine.on_timer = on_timer
        h.engine.timer_script[("tick",)] = [StartTimer(("tick",), 5.0), frame("tock")]
        h.runtime.run([StartTimer(("tick",), 5.0)])
        h.handles[0].callback()
        assert seen_by_engine == [{}]
        assert h.runtime.timers == {("tick",): h.handles[1]}
        assert not h.handles[0].cancelled  # it fired: nothing to cancel, no "rearm"
        assert h.sent == ["tock"]
        assert h.timer_events() == [(TIMER_ARMED, "tick", None),
                                    (TIMER_FIRED, "tick", None),
                                    (TIMER_ARMED, "tick", None)]

    def test_shutdown_cancels_everything_and_the_counters_balance(self):
        h = Harness()
        h.runtime.run([StartTimer(("a",), 1.0), StartTimer(("b",), 1.0),
                       StartTimer(("c",), 1.0), StartTimer(("a",), 2.0),
                       CancelTimer(("b",))])
        h.handles[2].callback()  # c fires
        h.runtime.shutdown()
        assert h.runtime.timers == {}
        assert all(handle.cancelled for i, handle in enumerate(h.handles) if i != 2)
        assert h.timer_events()[-1] == (TIMER_CANCELLED, "a", "shutdown")
        armed, fired, cancelled = h.counters()
        assert (armed, fired, cancelled) == (4, 1, 3)
        h.runtime.shutdown()  # idempotent: nothing left to cancel or emit
        assert h.counters() == (4, 1, 3)

    def test_an_engine_without_an_observer_still_runs(self):
        sent = []
        runtime = EffectRuntime(StubEngine(), Handle, lambda effect: sent.append(effect))
        runtime.run([StartTimer(("t",), 1.0), frame("x")])
        runtime.shutdown()
        assert len(sent) == 1 and runtime.timers == {}


class TestDispatch:
    def test_an_unknown_effect_raises_type_error(self):
        h = Harness()
        with pytest.raises(TypeError):
            h.runtime.run([object()])

    def test_client_only_effects_need_the_client_hooks(self):
        h = Harness()
        with pytest.raises(TypeError):
            h.runtime.run([Connect("p1")])
        with pytest.raises(TypeError):
            h.runtime.run([OpCompleted("op1", "k", None, 1)])

    def test_engine_methods_wrapped_after_construction_are_the_ones_called(self):
        h = Harness(connect=lambda target: h.engine.on_connected(target))
        wrapped = []
        for name in ("on_timer", "on_connected"):
            original = getattr(h.engine, name)

            def wrapper(arg, _original=original, _name=name):
                wrapped.append(_name)
                return _original(arg)

            setattr(h.engine, name, wrapper)  # what tap() and Tracer.attach do
        h.runtime.run([StartTimer(("t",), 1.0), Connect("p1")])
        h.handles[0].callback()
        assert wrapped == ["on_connected", "on_timer"]


class TestOrdering:
    def test_handed_back_effects_join_the_tail_of_the_current_batch(self):
        h = Harness(connect=lambda target: h.engine.on_connected(target))
        h.runtime.run([frame("a"), Connect("p1"), frame("b")])
        assert h.sent == ["a", "b", "hello-p1"]

    def test_what_send_hands_back_joins_the_tail_too(self):
        sent = []

        def send(effect):
            sent.append(effect.frame.kind)
            if effect.frame.kind == "lost":
                return [frame("report")]  # e.g. on_frame_undeliverable's effects

        runtime = EffectRuntime(StubEngine(), Handle, send)
        runtime.run([frame("lost"), frame("next")])
        assert sent == ["lost", "next", "report"]

    def test_a_run_from_inside_a_completion_executes_depth_first(self):
        # on_complete -> client.put -> invoke -> run(): the next operation's
        # frames go out before the rest of the batch that completed this one.
        def complete(effect):
            h.sent.append(f"done-{effect.op_id}")
            if effect.op_id == "op1":
                h.runtime.run([frame("op2-first"), frame("op2-second")])

        h = Harness(complete=complete)
        h.runtime.run([frame("a"), OpCompleted("op1", "k", None, 1), frame("b"),
                       OpCompleted("op2", "k", None, 1)])
        assert h.sent == ["a", "done-op1", "op2-first", "op2-second", "b", "done-op2"]
