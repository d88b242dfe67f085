"""Tests for the discrete-event clock, event queue and simulated network."""

from __future__ import annotations

import pytest

from repro.core.errors import SimulationError
from repro.sim.clock import EventQueue, SimClock
from repro.sim.delays import (
    ConstantDelay,
    ExponentialDelay,
    GeoDelay,
    PerLinkDelay,
    UniformDelay,
)
from repro.messages import Message
from repro.sim.network import Network, SkipRule


class TestEventQueue:
    def test_events_fire_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.schedule(3.0, lambda: fired.append("c"))
        queue.schedule(1.0, lambda: fired.append("a"))
        queue.schedule(2.0, lambda: fired.append("b"))
        queue.run()
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fifo(self):
        queue = EventQueue()
        fired = []
        for name in "abc":
            queue.schedule(1.0, lambda n=name: fired.append(n))
        queue.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances(self):
        queue = EventQueue()
        seen = []
        queue.schedule(2.5, lambda: seen.append(queue.clock.now))
        queue.run()
        assert seen == [2.5]

    def test_cancelled_events_do_not_fire(self):
        queue = EventQueue()
        fired = []
        event = queue.schedule(1.0, lambda: fired.append("x"))
        event.cancel()
        queue.run()
        assert fired == []
        assert len(queue) == 0

    def test_len_counts_live_events_only(self):
        queue = EventQueue()
        first = queue.schedule(1.0, lambda: None)
        queue.schedule(1.0, lambda: None)
        queue.schedule(2.0, lambda: None)
        assert len(queue) == 3 and not queue.empty
        first.cancel()
        assert len(queue) == 2
        queue.run()
        assert len(queue) == 0 and queue.empty

    def test_run_until_looks_past_a_cancelled_head(self):
        queue = EventQueue()
        fired = []
        queue.schedule(1.0, lambda: fired.append(1)).cancel()
        queue.schedule(2.0, lambda: fired.append(2))
        queue.schedule(9.0, lambda: fired.append(9))
        assert queue.run(until=5.0) == 1
        assert fired == [2] and queue.clock.now == 2.0

    def test_negative_delay_rejected(self):
        queue = EventQueue()
        with pytest.raises(SimulationError):
            queue.schedule(-1.0, lambda: None)

    def test_schedule_at_absolute_time(self):
        queue = EventQueue()
        queue.schedule(1.0, lambda: None)
        queue.run()
        seen = []
        queue.schedule_at(5.0, lambda: seen.append(queue.clock.now))
        queue.run()
        assert seen == [5.0]

    def test_run_until_deadline(self):
        queue = EventQueue()
        fired = []
        queue.schedule(1.0, lambda: fired.append(1))
        queue.schedule(10.0, lambda: fired.append(10))
        queue.run(until=5.0)
        assert fired == [1]

    def test_event_cap_detects_livelock(self):
        queue = EventQueue()

        def reschedule():
            queue.schedule(0.1, reschedule)

        queue.schedule(0.1, reschedule)
        with pytest.raises(SimulationError):
            queue.run(max_events=100)

    def test_clock_cannot_go_backwards(self):
        clock = SimClock()
        clock._advance(5.0)
        with pytest.raises(SimulationError):
            clock._advance(1.0)


class TestDelayModels:
    def test_constant(self):
        assert ConstantDelay(2.0).delay("a", "b") == 2.0

    def test_uniform_within_bounds_and_deterministic(self):
        a, b = UniformDelay(1.0, 3.0, seed=9), UniformDelay(1.0, 3.0, seed=9)
        xs = [a.delay("x", "y") for _ in range(20)]
        ys = [b.delay("x", "y") for _ in range(20)]
        assert xs == ys
        assert all(1.0 <= v <= 3.0 for v in xs)

    def test_uniform_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            UniformDelay(3.0, 1.0)

    def test_exponential_floor(self):
        model = ExponentialDelay(mean=1.0, floor=0.5, seed=1)
        assert all(model.delay("a", "b") >= 0.5 for _ in range(50))

    def test_per_link(self):
        model = PerLinkDelay({("c", "s1"): 10.0}, default=1.0)
        assert model.delay("c", "s1") == 10.0
        assert model.delay("c", "s2") == 1.0

    def test_geo_delay_local_vs_wan(self):
        sites = {"c1": "us", "s1": "us", "s2": "eu"}
        model = GeoDelay(sites, local_delay=1.0, wan_delay=50.0, jitter_fraction=0.0)
        assert model.delay("c1", "s1") == 1.0
        assert model.delay("c1", "s2") == 50.0


def _make_network():
    queue = EventQueue()
    network = Network(queue, ConstantDelay(1.0))
    inbox = {"a": [], "b": []}
    network.register("a", lambda m: inbox["a"].append(m))
    network.register("b", lambda m: inbox["b"].append(m))
    return queue, network, inbox


class TestNetwork:
    def test_basic_delivery(self):
        queue, network, inbox = _make_network()
        network.send(Message("a", "b", "ping"))
        queue.run()
        assert len(inbox["b"]) == 1
        assert network.delivered_count == 1

    def test_duplicate_registration_rejected(self):
        queue, network, _ = _make_network()
        with pytest.raises(SimulationError):
            network.register("a", lambda m: None)

    def test_unknown_receiver_raises(self):
        queue, network, _ = _make_network()
        network.send(Message("a", "zzz", "ping"))
        with pytest.raises(SimulationError):
            queue.run()

    def test_crash_drops_traffic(self):
        queue, network, inbox = _make_network()
        network.crash("b")
        network.send(Message("a", "b", "ping"))
        queue.run()
        assert inbox["b"] == []
        assert "b" in network.crashed

    def test_crash_after_send_drops_delivery(self):
        queue, network, inbox = _make_network()
        network.send(Message("a", "b", "ping"))
        network.crash("b")
        queue.run()
        assert inbox["b"] == []

    def test_skip_rule_delays_past_everything(self):
        queue, network, inbox = _make_network()
        network.add_skip_rule(SkipRule(sender="a", receiver="b", kind="ping"))
        network.send(Message("a", "b", "ping"))
        network.send(Message("a", "b", "pong"))
        queue.run(until=100.0)
        kinds = [m.kind for m in inbox["b"]]
        assert kinds == ["pong"]

    def test_skip_rule_matches_both_directions(self):
        rule = SkipRule(sender="a", receiver="b")
        assert rule.matches(Message("a", "b", "x"))
        assert rule.matches(Message("b", "a", "x"))
        one_way = SkipRule(sender="a", receiver="b", both_directions=False)
        assert not one_way.matches(Message("b", "a", "x"))

    def test_skip_rule_op_and_round_trip(self):
        rule = SkipRule(receiver="b", op_id="op-1", round_trip=2)
        assert rule.matches(Message("a", "b", "x", op_id="op-1", round_trip=2))
        assert not rule.matches(Message("a", "b", "x", op_id="op-1", round_trip=1))
        assert not rule.matches(Message("a", "b", "x", op_id="op-2", round_trip=2))

    def test_remove_and_clear_skip_rules(self):
        queue, network, inbox = _make_network()
        rule = network.add_skip_rule(SkipRule(sender="a"))
        network.remove_skip_rule(rule)
        network.send(Message("a", "b", "ping"))
        queue.run()
        assert len(inbox["b"]) == 1

    def test_interceptor_overrides_delay(self):
        queue, network, inbox = _make_network()
        times = []
        network.register("c", lambda m: times.append(queue.clock.now))
        network.set_interceptor(lambda m: 7.0 if m.kind == "slow" else None)
        network.send(Message("a", "c", "slow"))
        network.send(Message("a", "c", "fast"))
        queue.run()
        assert times == [1.0, 7.0]

    def test_interceptor_can_skip(self):
        queue, network, inbox = _make_network()
        network.set_interceptor(lambda m: float("inf"))
        network.send(Message("a", "b", "ping"))
        queue.run(until=100.0)
        assert inbox["b"] == []
        assert network.pending_messages() == 1

    @pytest.mark.parametrize(
        "case, pending",
        [("dropped at send", 0), ("receiver crashed in flight", 1), ("skipped", 1),
         ("delivered", 0)],
    )
    def test_pending_messages(self, case, pending):
        queue, network, inbox = _make_network()
        if case == "dropped at send":
            network.crash("b")
        if case == "skipped":
            network.add_skip_rule(SkipRule(receiver="b"))
        network.send(Message("a", "b", "ping"))
        if case == "receiver crashed in flight":
            network.crash("b")
        queue.run(until=100.0)
        assert network.pending_messages() == pending
        assert len(inbox["b"]) == (case == "delivered")

    def test_message_reply_addressing(self):
        msg = Message("r1", "s1", "read", op_id="op-9", round_trip=2)
        reply = msg.reply("READACK", {"x": 1})
        assert reply.sender == "s1" and reply.receiver == "r1"
        assert reply.op_id == "op-9" and reply.round_trip == 2
        assert reply.payload == {"x": 1}
