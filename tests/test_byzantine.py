"""Tests for Byzantine fault injection and the Byzantine-tolerant register."""

from __future__ import annotations

import pytest

from repro.consistency import check_atomicity
from repro.consistency.anomalies import AnomalyKind
from repro.core.errors import ConfigurationError
from repro.core.timestamps import Tag
from repro.protocols.byzantine_safe import ByzantineSafeMwmrProtocol, vouched_pairs
from repro.protocols.codec import encode_tag
from repro.protocols.registry import PROTOCOLS, build_protocol
from repro.protocols.server_state import TagValueServer
from repro.sim.byzantine import (
    FABRICATED_VALUE,
    ByzantineInjector,
    Equivocation,
    SilentDrop,
    TagInflation,
    ValueCorruption,
    make_byzantine,
)
from repro.sim.delays import UniformDelay
from repro.messages import Message
from repro.sim.runtime import Simulation
from repro.util.ids import client_ids, server_ids
from repro.workloads.generators import apply_open_loop, uniform_open_loop


class TestBehaviours:
    def _honest_reply(self):
        server = TagValueServer("s1")
        server.handle(
            Message("w1", "s1", "update", {"tag": encode_tag(Tag(1, "w1")), "value": "real"})
        )
        return server

    def test_value_corruption(self):
        wrapped = make_byzantine(self._honest_reply(), ValueCorruption())
        reply = wrapped.handle(Message("r1", "s1", "query"))
        assert reply.payload["value"] == FABRICATED_VALUE

    def test_tag_inflation(self):
        wrapped = make_byzantine(self._honest_reply(), TagInflation())
        reply = wrapped.handle(Message("r1", "s1", "query"))
        assert reply.payload["value"] == FABRICATED_VALUE
        assert reply.payload["tag"].startswith("1000000000")

    def test_equivocation_alternates(self):
        wrapped = make_byzantine(self._honest_reply(), Equivocation())
        first = wrapped.handle(Message("r1", "s1", "query"))
        second = wrapped.handle(Message("r1", "s1", "query"))
        assert first.payload["value"] == FABRICATED_VALUE
        assert second.payload["value"] == "real"

    def test_silent_drop(self):
        wrapped = make_byzantine(self._honest_reply(), SilentDrop())
        assert wrapped.handle(Message("r1", "s1", "query")) is None

    def test_injector_budget(self):
        injector = ByzantineInjector(server_ids(5), 1)
        injector.corrupt("s1", ValueCorruption())
        with pytest.raises(ConfigurationError):
            injector.corrupt("s2", ValueCorruption())
        with pytest.raises(ConfigurationError):
            injector.corrupt("s9", ValueCorruption())
        assert injector.corrupted == {"s1"}

    def test_injector_wrap_only_corrupted(self):
        injector = ByzantineInjector(server_ids(3), 1)
        injector.corrupt("s2", ValueCorruption())
        honest = TagValueServer("s1")
        assert injector.wrap("s1", honest) is honest
        assert injector.wrap("s2", TagValueServer("s2")) is not None


class TestVouching:
    def _ack(self, server, tag, value):
        return Message(server, "r1", "query-ack", {"tag": encode_tag(tag), "value": value})

    def test_vouched_pairs_threshold(self):
        acks = [
            self._ack("s1", Tag(1, "w1"), "real"),
            self._ack("s2", Tag(1, "w1"), "real"),
            self._ack("s3", Tag(9, "byz"), "fake"),
        ]
        vouched = vouched_pairs(acks, min_vouchers=2)
        assert (encode_tag(Tag(1, "w1")), "real") in vouched
        assert (encode_tag(Tag(9, "byz")), "fake") not in vouched

    def test_bottom_always_considered(self):
        vouched = vouched_pairs([], min_vouchers=2)
        assert any(key[0].startswith("0|") for key in vouched)


class TestByzantineSafeProtocol:
    def test_requires_enough_servers(self):
        with pytest.raises(ConfigurationError):
            ByzantineSafeMwmrProtocol(server_ids(4), 1)
        protocol = ByzantineSafeMwmrProtocol(server_ids(5), 1)
        assert protocol.name.startswith("byzantine-safe")

    def test_registered(self):
        assert "byzantine-safe-mwmr" in PROTOCOLS

    def _run(self, key, behaviors, seed=0, servers=5):
        protocol = build_protocol(key, server_ids(servers), 1, readers=2, writers=2)
        simulation = Simulation(
            protocol,
            delay_model=UniformDelay(0.5, 1.5, seed=seed),
            byzantine_behaviors=behaviors,
        )
        workload = uniform_open_loop(
            client_ids("w", 2), client_ids("r", 2), 3, 4, horizon=80.0, seed=seed
        )
        apply_open_loop(simulation, workload)
        return simulation.run()

    def test_atomic_without_faults(self):
        result = self._run("byzantine-safe-mwmr", behaviors={})
        assert check_atomicity(result.history).atomic

    @pytest.mark.parametrize("behavior", [ValueCorruption(), TagInflation(), Equivocation()])
    def test_atomic_with_one_byzantine_server(self, behavior):
        result = self._run("byzantine-safe-mwmr", behaviors={"s1": behavior})
        verdict = check_atomicity(result.history)
        assert verdict.atomic, verdict.report.summary()
        # The fabricated value never escapes to a client.
        assert all(op.value != FABRICATED_VALUE for op in result.history.reads)

    def test_silent_byzantine_server_tolerated(self):
        result = self._run("byzantine-safe-mwmr", behaviors={"s1": SilentDrop()})
        assert all(op.is_complete for op in result.history)
        assert check_atomicity(result.history).atomic

    def test_plain_abd_returns_fabricated_data(self):
        # The baseline MW-ABD trusts the largest tag it sees, so a single
        # tag-inflating Byzantine server poisons its reads -- the checker
        # reports reads of a value nobody wrote.
        result = self._run("abd-mwmr", behaviors={"s1": TagInflation()})
        verdict = check_atomicity(result.history)
        poisoned = [op for op in result.history.reads if op.value == FABRICATED_VALUE]
        assert poisoned
        assert not verdict.atomic
        assert any(
            anomaly.kind is AnomalyKind.READ_FROM_NOWHERE
            for anomaly in verdict.report.anomalies
        )

    def test_byzantine_budget_enforced_in_simulation(self):
        protocol = build_protocol("byzantine-safe-mwmr", server_ids(5), 1)
        with pytest.raises(ConfigurationError):
            Simulation(
                protocol,
                byzantine_behaviors={"s4": ValueCorruption(), "s5": ValueCorruption()},
            )

    def test_round_trips_are_two_two(self):
        result = self._run("byzantine-safe-mwmr", behaviors={"s1": ValueCorruption()})
        writes, reads = result.history.round_trip_counts()
        assert max(writes) == 2 and max(reads) == 2
