"""Integration tests: every protocol end-to-end on the simulator.

These tests are the executable Table 1: protocols at feasible design points
must produce atomic histories under contended workloads, crash faults and
adversarial delays; the candidate protocols at infeasible points must be
caught by the checker.
"""

from __future__ import annotations

import random

import pytest

from repro.consistency import check_atomicity
from repro.core.fastness import classify_round_trips, DesignPoint
from repro.protocols import abd_mwmr
from repro.protocols.abd_mwmr import AbdMwmrProtocol
from repro.protocols.registry import build_protocol
from repro.sim.delays import ExponentialDelay, PerLinkDelay, UniformDelay
from repro.sim.runtime import Simulation
from repro.util.ids import client_ids, server_ids
from repro.workloads.generators import (
    apply_open_loop,
    asymmetric_write_contention,
    bursty_contention,
    uniform_open_loop,
    write_pairs_then_reads,
)

CORRECT_MW = ["abd-mwmr", "fast-read-mwmr"]
CORRECT_SW = ["abd-swmr", "fast-swmr", "semifast-swmr"]
CANDIDATES = ["fast-write-attempt", "fast-rw-attempt"]


def run_workload(protocol_key, workload_factory, servers=5, max_faults=1, seed=0,
                 crash=None, **protocol_kwargs):
    protocol = build_protocol(
        protocol_key, server_ids(servers), max_faults, readers=2, writers=2,
        **protocol_kwargs,
    )
    simulation = Simulation(protocol, delay_model=UniformDelay(0.5, 2.0, seed=seed))
    writers = client_ids("w", protocol.writers)
    readers = client_ids("r", 2)
    apply_open_loop(simulation, workload_factory(writers, readers))
    if crash is not None:
        simulation.crash_server(crash[0], at=crash[1])
    result = simulation.run()
    return result, check_atomicity(result.history)


def uniform(writers, readers):
    return uniform_open_loop(writers, readers, 4, 6, horizon=120.0, seed=3)


def bursty(writers, readers):
    return bursty_contention(writers, readers, bursts=3, burst_width=2.0, burst_gap=30.0, seed=3)


def asymmetric(writers, readers):
    return asymmetric_write_contention(writers, readers, rounds=2)


class TestCorrectProtocolsStayAtomic:
    @pytest.mark.parametrize("key", CORRECT_MW + CORRECT_SW)
    @pytest.mark.parametrize("workload", [uniform, bursty, asymmetric])
    def test_atomic_under_contention(self, key, workload):
        servers = 7 if key in ("fast-read-mwmr", "fast-swmr") else 5
        result, verdict = run_workload(key, workload, servers=servers)
        assert result.history.is_well_formed()
        assert verdict.atomic, verdict.report.summary()

    @pytest.mark.parametrize("key", CORRECT_MW)
    @pytest.mark.parametrize("seed", range(4))
    def test_atomic_across_seeds(self, key, seed):
        result, verdict = run_workload(key, uniform, servers=7, seed=seed)
        assert verdict.atomic

    @pytest.mark.parametrize("key", CORRECT_MW)
    def test_atomic_with_crash(self, key):
        result, verdict = run_workload(
            key, bursty, servers=7, crash=("s7", 20.0)
        )
        assert verdict.atomic
        assert all(op.is_complete for op in result.history)

    @pytest.mark.parametrize("key", CORRECT_MW)
    def test_atomic_with_heavy_tailed_delays(self, key):
        protocol = build_protocol(key, server_ids(7), 1, readers=2, writers=2)
        simulation = Simulation(protocol, delay_model=ExponentialDelay(2.0, seed=5))
        workload = bursty_contention(
            client_ids("w", 2), client_ids("r", 2), bursts=3, burst_width=3.0,
            burst_gap=40.0, seed=5,
        )
        apply_open_loop(simulation, workload)
        result = simulation.run()
        assert check_atomicity(result.history).atomic


class TestObservedDesignPoints:
    @pytest.mark.parametrize(
        "key,expected",
        [
            ("abd-mwmr", DesignPoint.W2R2),
            ("fast-read-mwmr", DesignPoint.W2R1),
            ("fast-write-attempt", DesignPoint.W1R2),
            ("fast-rw-attempt", DesignPoint.W1R1),
        ],
    )
    def test_round_trips_match_claim(self, key, expected):
        servers = 7 if key == "fast-read-mwmr" else 5
        result, _ = run_workload(key, uniform, servers=servers)
        writes, reads = result.history.round_trip_counts()
        assert classify_round_trips(writes, reads) is expected

    def test_single_writer_points(self):
        for key, expected in [
            ("abd-swmr", DesignPoint.W1R2),
            ("fast-swmr", DesignPoint.W1R1),
        ]:
            servers = 7 if key == "fast-swmr" else 5
            result, _ = run_workload(key, uniform, servers=servers)
            writes, reads = result.history.round_trip_counts()
            assert classify_round_trips(writes, reads) is expected

    def test_semifast_reads_mostly_fast(self):
        result, verdict = run_workload("semifast-swmr", uniform, servers=5)
        _, reads = result.history.round_trip_counts()
        assert verdict.atomic
        assert min(reads) == 1  # at least some reads took the fast path


class TestCandidatesViolate:
    @pytest.mark.parametrize("key", CANDIDATES)
    def test_asymmetric_writes_expose_violation(self, key):
        result, verdict = run_workload(key, asymmetric, servers=5)
        assert not verdict.atomic
        assert verdict.report.anomalies

    def test_violation_reports_are_classified(self):
        _, verdict = run_workload("fast-write-attempt", asymmetric, servers=5)
        kinds = {a.kind.value for a in verdict.report.anomalies}
        assert kinds  # at least one concrete anomaly kind named

    @pytest.mark.parametrize("key", CANDIDATES)
    def test_candidates_fine_without_writer_asymmetry(self, key):
        # With a single writer the fast-write candidate degenerates to ABD
        # SWMR and is atomic -- matching the paper: the impossibility needs
        # W >= 2.
        protocol = build_protocol(key, server_ids(5), 1, readers=2, writers=1)
        simulation = Simulation(protocol, delay_model=UniformDelay(0.5, 1.0, seed=2))
        workload = uniform_open_loop(["w1"], client_ids("r", 2), 4, 6, 100.0, seed=2)
        apply_open_loop(simulation, workload)
        result = simulation.run()
        if key == "fast-write-attempt":
            assert check_atomicity(result.history).atomic


class TestFastReadPaperScenario:
    def test_write_pairs_then_reads(self):
        # The W1/W2 then R1/R2 pattern of the proofs, against the paper's
        # correct W2R1 protocol: always atomic.
        result, verdict = run_workload("fast-read-mwmr",
                                       lambda w, r: write_pairs_then_reads(w, r, rounds=3),
                                       servers=7)
        assert verdict.atomic

    def test_fast_reads_stay_fast_under_crash(self):
        protocol = build_protocol("fast-read-mwmr", server_ids(7), 1, readers=2, writers=2)
        simulation = Simulation(protocol, delay_model=UniformDelay(0.5, 1.0, seed=9))
        simulation.crash_server("s7", at=0.1)
        simulation.schedule_write("w1", "a", at=1.0)
        simulation.schedule_read("r1", at=10.0)
        simulation.schedule_read("r2", at=20.0)
        result = simulation.run()
        _, reads = result.history.round_trip_counts()
        assert reads == [1, 1]
        assert check_atomicity(result.history).atomic


class StoreAbdProtocol(AbdMwmrProtocol):
    """``abd-mwmr`` as the kv-store runs it: readers are opportunistic."""

    make_reader = AbdMwmrProtocol.make_opportunistic_reader


def run_store_reader_sweep(servers, max_faults, seed, writes=4, reads=12):
    """Three writers and three readers racing while ``t`` servers crash.

    Every writer is near one replica in three and far from the rest, so each
    write sits on a minority for a long time while the (uniformly near)
    readers query again and again: the schedule in which a reader that skips
    a needed write-back lets a later read travel back in time.
    """
    rng = random.Random(seed)
    protocol = StoreAbdProtocol(
        server_ids(servers), max_faults, readers=3, writers=3
    )
    writers, readers = client_ids("w", 3), client_ids("r", 3)
    links = {}
    for w_index, writer in enumerate(writers):
        for s_index, server in enumerate(protocol.servers):
            cost = 0.2 if s_index % 3 == w_index else 8.0
            links[(writer, server)] = links[(server, writer)] = cost
    simulation = Simulation(
        protocol,
        delay_model=PerLinkDelay(links, default=0.5, jitter=0.4, seed=seed),
    )
    horizon = 60.0
    apply_open_loop(
        simulation,
        uniform_open_loop(writers, readers, writes, reads, horizon=horizon, seed=seed),
    )
    for server_id in rng.sample(protocol.servers, max_faults):
        simulation.crash_server(server_id, at=rng.uniform(0.0, horizon))
    return simulation.run()


class TestOpportunisticReaderOnTheSimulator:
    """The store's reader under contention and crashes (t=1 of 3, t=2 of 5)."""

    @pytest.mark.parametrize("servers,max_faults", [(3, 1), (5, 2)])
    @pytest.mark.parametrize("seed", range(20))
    def test_atomic_with_three_writers_three_readers_and_crashes(
        self, servers, max_faults, seed
    ):
        result = run_store_reader_sweep(servers, max_faults, seed)
        assert len(result.crashed_servers) == max_faults
        assert result.history.is_well_formed()
        assert all(op.is_complete for op in result.history)
        verdict = check_atomicity(result.history)
        assert verdict.atomic, verdict.report.summary()
        writes, reads = result.history.round_trip_counts()
        assert set(writes) == {2} and set(reads) <= {1, 2}

    @pytest.mark.parametrize("servers,max_faults", [(3, 1), (5, 2)])
    @pytest.mark.parametrize("seed", range(6))
    def test_small_histories_pass_the_exhaustive_wgl_search(
        self, servers, max_faults, seed
    ):
        result = run_store_reader_sweep(servers, max_faults, seed, writes=1, reads=1)
        assert check_atomicity(result.history, force_exhaustive=True).atomic

    def test_the_sweep_exercises_both_read_paths(self):
        reads = []
        for seed in range(20):
            reads += run_store_reader_sweep(3, 1, seed).history.round_trip_counts()[1]
        assert reads.count(1) > reads.count(2) > 0

    @pytest.mark.parametrize("servers,max_faults", [(3, 1), (5, 2)])
    def test_the_sweep_catches_a_reader_that_never_writes_back(
        self, servers, max_faults, monkeypatch
    ):
        # The sweep's sharpness, pinned: drop the unanimity test and the same
        # seeds produce new/old inversions the checker reports.
        monkeypatch.setattr(abd_mwmr, "quorum_agrees", lambda acks, quorum: True)
        caught = [
            seed for seed in range(20)
            if not check_atomicity(
                run_store_reader_sweep(servers, max_faults, seed).history
            ).atomic
        ]
        assert len(caught) >= 3

    def test_uncontended_reads_are_one_round_and_contended_stay_w2r2(self):
        # The design point is a worst case: sequential use never needs the
        # write-back, racing a write still does.
        protocol = StoreAbdProtocol(server_ids(3), 1, readers=2, writers=2)
        simulation = Simulation(protocol, delay_model=UniformDelay(0.5, 2.0, seed=1))
        for index in range(4):
            simulation.schedule_write("w1", f"v{index}", at=20.0 * index)
            simulation.schedule_read("r1", at=20.0 * index + 10.0)
        result = simulation.run()
        writes, reads = result.history.round_trip_counts()
        assert (writes, reads) == ([2] * 4, [1] * 4)
        assert check_atomicity(result.history).atomic
