"""Tests for the virtual clock and the simulated network."""

from __future__ import annotations

import pytest

from repro.core.clock import Clock
from repro.core.errors import SimulationError
from repro.sim.delays import (
    ConstantDelay,
    ExponentialDelay,
    GeoDelay,
    PerLinkDelay,
    UniformDelay,
)
from repro.messages import Message
from repro.sim.network import Network, SkipRule


class TestClock:
    def test_events_fire_in_time_order(self):
        clock = Clock()
        fired = []
        for name, delay in (("c", 3.0), ("a", 1.0), ("b", 2.5)):
            clock.schedule(delay, lambda n=name: fired.append((n, clock.now)))
        assert clock.run() == 3
        assert fired == [("a", 1.0), ("b", 2.5), ("c", 3.0)]

    def test_simultaneous_events_fifo(self):
        clock = Clock()
        fired = []
        for name in "abc":
            clock.schedule(1.0, lambda n=name: fired.append(n))
        clock.run()
        assert fired == ["a", "b", "c"]

    def test_cancelled_events_do_not_fire(self):
        clock = Clock()
        fired = []
        clock.schedule(1.0, lambda: fired.append("x")).cancel()
        assert clock.run() == 0
        assert fired == [] and clock.now == 0.0

    def test_run_until_looks_past_a_cancelled_head(self):
        clock = Clock()
        fired = []
        clock.schedule(1.0, lambda: fired.append(1)).cancel()
        clock.schedule(2.0, lambda: fired.append(2))
        clock.schedule(9.0, lambda: fired.append(9))
        assert clock.run(until=5.0) == 1
        assert fired == [2] and clock.now == 2.0

    def test_scheduling_in_the_past_rejected(self):
        clock = Clock()
        clock.schedule(2.0, lambda: None)
        clock.run()
        with pytest.raises(SimulationError):
            clock.schedule(-1.0, lambda: None)
        with pytest.raises(SimulationError):
            clock.schedule_at(1.0, lambda: None)

    def test_schedule_at_fires_at_the_time_itself(self):
        # now + (at - now) is 3.4112143857273836 here, an ulp early.
        now, at = 1.2358744663346217, 3.411214385727384
        clock = Clock()
        seen = []
        clock.schedule_at(now, lambda: clock.schedule_at(at, lambda: seen.append(clock.now)))
        clock.run()
        assert seen == [at]

    def test_event_cap_detects_livelock(self):
        clock = Clock()

        def reschedule():
            clock.schedule(0.1, reschedule)

        clock.schedule(0.1, reschedule)
        with pytest.raises(SimulationError):
            clock.run(max_events=100)
        assert not clock.running


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
    queue = Clock()
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
        network.register("c", lambda m: times.append(queue.now))
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
