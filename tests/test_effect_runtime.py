"""Tests for the effect interpreter (`repro.kvstore.engine.runtime`).

The runtime is driven with a scripted ``schedule`` that records the handles
it gives out, a ``send`` that records frames, and a stub engine -- no
transport, no clock.  What is pinned here is what every adapter relies on:
the timer table's re-arm / cancel / fire / shutdown rules and their
``timer.*`` events, per-call lookup of the engine's methods, the order
in which nested and handed-back effects execute, and the effect records
themselves: immutable, compared by type and value.
"""

from __future__ import annotations

import pytest

from repro.kvstore.engine import (
    CancelTimer,
    Connect,
    EffectRuntime,
    OpCompleted,
    OpFailed,
    SendFrame,
    StartTimer,
)
from repro.core.operations import OpKind
from repro.messages import Message
from repro.protocols.base import OperationOutcome
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


class TestTimersDueAtOnce:
    """A ``schedule`` that answers ``None``: the timer is due at once, and
    the runtime fires it after the batch that armed it."""

    @staticmethod
    def harness(**hooks):
        h = Harness(**hooks)
        h.runtime._schedule = lambda delay, callback: None
        return h

    def test_it_fires_after_the_batch_and_its_tail(self):
        h = self.harness(connect=lambda target: h.engine.on_connected(target))
        h.engine.timer_script[("flush", "g1")] = [frame("batch")]
        h.runtime.run([StartTimer(("flush", "g1"), 0.0), frame("a"), Connect("p1")])
        assert h.sent == ["a", "hello-p1", "batch"]
        assert h.runtime.timers == {}
        assert h.timer_events() == [(TIMER_ARMED, "flush", None),
                                    (TIMER_FIRED, "flush", None)]
        assert h.counters() == (1, 1, 0)

    def test_a_cancel_in_the_same_batch_still_cancels_it(self):
        h = self.harness()
        h.engine.timer_script[("flush", "g1")] = [frame("batch")]
        h.runtime.run([StartTimer(("flush", "g1"), 0.0), CancelTimer(("flush", "g1"))])
        assert h.sent == [] and h.runtime.timers == {}
        assert h.counters() == (1, 0, 1)

    def test_rearmed_in_the_same_batch_it_fires_once(self):
        h = self.harness()
        h.engine.timer_script[("flush", "g1")] = [frame("batch")]
        h.runtime.run([StartTimer(("flush", "g1"), 0.0), StartTimer(("flush", "g1"), 0.0)])
        assert h.sent == ["batch"]
        assert h.counters() == (2, 1, 1)

    def test_one_rearmed_inside_its_own_fire_fires_in_that_nested_batch(self):
        h = self.harness()
        h.engine.timer_script[("flush", "g1")] = [frame("first"), StartTimer(("tick",), 0.0)]
        h.engine.timer_script[("tick",)] = [frame("second")]
        h.runtime.run([StartTimer(("flush", "g1"), 0.0), frame("a")])
        assert h.sent == ["a", "first", "second"]
        assert h.runtime.timers == {} and h.counters() == (2, 2, 0)

    def test_shutdown_cancels_one_that_has_not_fired(self):
        h = self.harness()
        h.runtime.timers[("flush", "g1")] = None  # armed due at once, mid-batch
        h.runtime.shutdown()
        assert h.runtime.timers == {}
        assert h.timer_events() == [(TIMER_CANCELLED, "flush", "shutdown")]


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


#: One of each effect, and the repr the frozen dataclasses they replaced gave.
EFFECTS = [
    (SendFrame("s1", Message("c1", "s1", "ping")),
     "SendFrame(destination='s1', frame=Message(c1->s1 ping op=None rt=0))"),
    (StartTimer(("flush", "r1"), 0.5), "StartTimer(timer_id=('flush', 'r1'), delay=0.5)"),
    (CancelTimer(("flush", "r1")), "CancelTimer(timer_id=('flush', 'r1'))"),
    (Connect("p2"), "Connect(target='p2')"),
    (OpCompleted("op1", "k", OperationOutcome(OpKind.WRITE), 2),
     "OpCompleted(op_id='op1', key='k', outcome=OperationOutcome(kind=<OpKind.WRITE: "
     "'write'>, value=None, tag=None, metadata={}), round_trips=2)"),
    (OpFailed("op1", "k", TimeoutError("late")),
     "OpFailed(op_id='op1', key='k', error=TimeoutError('late'))"),
]


class TestEffectRecords:
    @pytest.mark.parametrize("effect", [e for e, _ in EFFECTS], ids=lambda e: type(e).__name__)
    def test_an_effect_is_immutable(self, effect):
        with pytest.raises(AttributeError):
            setattr(effect, effect._fields[0], "other")
        with pytest.raises(AttributeError):
            effect.extra = 1

    @pytest.mark.parametrize("effect", [e for e, _ in EFFECTS], ids=lambda e: type(e).__name__)
    def test_equal_only_to_the_same_type_with_equal_fields(self, effect):
        same = type(effect)(*effect)
        assert effect == same and not effect != same
        bare = tuple(effect)
        assert effect != bare and bare != effect
        assert not effect == bare and not bare == effect
        for other, _ in EFFECTS:
            if type(other) is not type(effect) and len(other) == len(effect):
                twin = type(other)(*effect)  # another type, the same items
                assert effect != twin and not effect == twin
        changed = effect._replace(**{effect._fields[0]: "other"})
        assert effect != changed and not effect == changed

    def test_same_fields_under_another_type_are_not_equal(self):
        assert Connect("p2") != CancelTimer("p2")
        assert not Connect("p2") == CancelTimer("p2")
        assert Connect("p2") != ("p2",) and ("p2",) != Connect("p2")
        assert len({Connect("p2"), CancelTimer("p2"), ("p2",)}) == 3
        assert [Connect("p2"), StartTimer(("t",), 1.0)] == [Connect("p2"), StartTimer(("t",), 1.0)]

    def test_hashable_when_its_fields_are(self):
        assert hash(Connect("p2")) == hash(Connect("p2"))
        assert hash(StartTimer(("t", 1), 1.0)) == hash(StartTimer(("t", 1), 1.0))
        error = TimeoutError("late")
        assert {OpFailed("op1", "k", error), OpFailed("op1", "k", error)} == {
            OpFailed("op1", "k", error)
        }
        with pytest.raises(TypeError):  # a Message carries a payload dict
            hash(SendFrame("s1", Message("c1", "s1", "ping")))
        with pytest.raises(TypeError):  # an OperationOutcome is a mutable dataclass
            hash(OpCompleted("op1", "k", OperationOutcome(OpKind.WRITE), 1))

    @pytest.mark.parametrize("effect,expected", EFFECTS, ids=lambda e: type(e).__name__)
    def test_the_repr_is_the_dataclass_one(self, effect, expected):
        assert repr(effect) == expected
