"""Tests for the simulation runtime, client driver and failure injector."""

from __future__ import annotations

import pytest

from repro.consistency import check_atomicity
from repro.core.errors import ConfigurationError
from repro.core.operations import OpKind
from repro.protocols.registry import build_protocol
from repro.sim.delays import ConstantDelay
from repro.sim.failures import FailureInjector
from repro.sim.network import SkipRule
from repro.sim.runtime import Simulation
from repro.util.ids import server_ids
from repro.util.rng import SeededRng


def make_sim(protocol_key="abd-mwmr", servers=5, max_faults=1, **kwargs):
    protocol = build_protocol(
        protocol_key, server_ids(servers), max_faults, readers=2, writers=2, **kwargs
    )
    return Simulation(protocol, delay_model=ConstantDelay(1.0))


class TestBasicRuns:
    def test_single_write_and_read(self):
        sim = make_sim()
        sim.schedule_write("w1", "hello", at=1.0)
        sim.schedule_read("r1", at=10.0)
        result = sim.run()
        assert len(result.history) == 2
        read = result.history.reads[0]
        assert read.value == "hello"
        assert read.is_complete

    def test_round_trip_counts_recorded(self):
        sim = make_sim("abd-mwmr")
        sim.schedule_write("w1", "x", at=1.0)
        sim.schedule_read("r1", at=10.0)
        history = sim.run().history
        writes, reads = history.round_trip_counts()
        assert writes == [2] and reads == [2]

    def test_fast_read_uses_one_round_trip(self):
        sim = make_sim("fast-read-mwmr")
        sim.schedule_write("w1", "x", at=1.0)
        sim.schedule_read("r1", at=10.0)
        history = sim.run().history
        _, reads = history.round_trip_counts()
        assert reads == [1]

    def test_outcomes_captured(self):
        sim = make_sim()
        sim.schedule_write("w1", "x", at=1.0)
        result = sim.run()
        assert len(result.outcomes) == 1
        outcome = next(iter(result.outcomes.values()))
        assert outcome.kind is OpKind.WRITE

    def test_message_accounting(self):
        sim = make_sim(servers=5)
        sim.schedule_write("w1", "x", at=1.0)
        result = sim.run()
        # Two round-trips to 5 servers: 10 requests + 10 replies.
        assert result.messages_sent == 20

    def test_closed_loop_sequences(self):
        sim = make_sim("abd-mwmr")
        sim.schedule_closed_loop("w1", [("write", "a"), ("write", "b")], start_at=0.0)
        sim.schedule_closed_loop("r1", [("read",), ("read",)], start_at=1.0)
        history = sim.run().history
        assert len(history.by_client("w1")) == 2
        assert len(history.by_client("r1")) == 2
        assert history.is_well_formed()

    def test_closed_loop_rejects_unknown_spec(self):
        sim = make_sim()
        sim.schedule_closed_loop("w1", [("nonsense",)])
        with pytest.raises(Exception):
            sim.run()

    def test_unknown_client_rejected(self):
        sim = make_sim()
        with pytest.raises(KeyError):
            sim.client("nobody")


class TestBackPressure:
    def test_dense_invocations_stay_well_formed(self):
        # Two reads scheduled closer together than a read takes complete in
        # order thanks to the client's backlog queue.
        sim = make_sim("abd-mwmr")
        sim.schedule_write("w1", "x", at=0.0)
        sim.schedule_read("r1", at=10.0)
        sim.schedule_read("r1", at=10.1)
        history = sim.run().history
        assert history.is_well_formed()
        assert len(history.by_client("r1")) == 2
        assert all(op.is_complete for op in history.by_client("r1"))


class TestFaultInjection:
    def test_crash_within_budget_still_completes(self):
        sim = make_sim(servers=5, max_faults=1)
        sim.crash_server("s5", at=0.5)
        sim.schedule_write("w1", "x", at=1.0)
        sim.schedule_read("r1", at=10.0)
        result = sim.run()
        assert all(op.is_complete for op in result.history)
        assert result.crashed_servers == ["s5"]
        assert check_atomicity(result.history).atomic

    def test_crash_beyond_budget_rejected(self):
        sim = make_sim(servers=5, max_faults=1)
        sim.crash_server("s5", at=0.5)
        with pytest.raises(ConfigurationError):
            sim.crash_server("s4", at=0.6)

    def test_injector_random_crashes(self):
        sim = make_sim(servers=7, max_faults=2)
        plans = sim.failures.schedule_random_server_crashes(2, 10.0, SeededRng(1))
        assert len(plans) == 2
        sim.schedule_write("w1", "x", at=20.0)
        result = sim.run()
        assert len(result.crashed_servers) == 2
        assert result.history.writes[0].is_complete

    def test_injector_rejects_too_many_random_crashes(self):
        sim = make_sim(servers=5, max_faults=1)
        with pytest.raises(ConfigurationError):
            sim.failures.schedule_random_server_crashes(2, 10.0, SeededRng(1))

    def test_injector_validates_parameters(self):
        sim = make_sim(servers=5, max_faults=1)
        with pytest.raises(ConfigurationError):
            FailureInjector(sim.clock, sim.network.crash, server_ids(5), 5)

    def test_remaining_budget(self):
        sim = make_sim(servers=5, max_faults=1)
        assert sim.failures.remaining_fault_budget == 1
        sim.crash_server("s1", at=0.1)
        sim.schedule_write("w1", "x", at=1.0)
        sim.run()
        assert sim.failures.remaining_fault_budget == 0


class TestAdversaryControls:
    def test_skip_rule_on_operation(self):
        sim = make_sim("abd-mwmr", servers=5, max_faults=1)
        # The write's update round-trip never reaches s1; the protocol still
        # completes with the remaining four servers.
        sim.add_skip_rule(SkipRule(sender="w1", receiver="s1", kind="update"))
        sim.schedule_write("w1", "x", at=1.0)
        sim.schedule_read("r1", at=20.0)
        result = sim.run()
        read = result.history.reads[0]
        assert read.value == "x"
        assert check_atomicity(result.history).atomic

    def test_interceptor_reorders_messages(self):
        sim = make_sim("abd-mwmr")
        seen = []
        sim.set_interceptor(lambda m: seen.append(m.kind) or None)
        sim.schedule_write("w1", "x", at=1.0)
        sim.run()
        assert "query" in seen and "update" in seen

    def test_configuration_mismatch_detected(self):
        protocol = build_protocol("abd-mwmr", server_ids(5), 1)
        from repro.core.conditions import SystemParameters

        with pytest.raises(ConfigurationError):
            Simulation(protocol, params=SystemParameters(4, 2, 2, 1))
