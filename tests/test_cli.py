"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.protocol == "fast-read-mwmr"
        assert args.servers == 5 and args.faults == 1

    def test_rejects_unknown_protocol(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--protocol", "nope"])

    def test_kv_defaults(self):
        args = build_parser().parse_args(["kv"])
        assert args.backend == "sim"
        assert args.shards == 4 and args.batch == 8
        assert args.protocol == "abd-mwmr"
        assert args.groups is None and args.resize_to is None
        assert args.proxies == 0

    def test_kv_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["kv", "--backend", "carrier-pigeon"])

    def test_kv_resize_after_requires_resize_to(self):
        with pytest.raises(SystemExit, match="resize-to"):
            main(["kv", "--resize-after", "5"])

    def test_kv_cache_defaults(self):
        args = build_parser().parse_args(["kv"])
        assert args.read_cache == 0
        assert args.lease_ttl is None

    def test_kv_read_cache_requires_proxies(self):
        with pytest.raises(SystemExit, match="read-cache requires --proxies"):
            main(["kv", "--read-cache", "32"])

    def test_kv_lease_flags_require_read_cache(self):
        with pytest.raises(SystemExit, match="--lease-ttl requires --read-cache"):
            main(["kv", "--proxies", "1", "--lease-ttl", "5"])


class TestCommands:
    def test_run_atomic_protocol_exit_zero(self, capsys):
        code = main(["run", "--protocol", "fast-read-mwmr", "--servers", "7",
                     "--writes", "2", "--reads", "3"])
        output = capsys.readouterr().out
        assert code == 0
        assert "ATOMIC" in output
        assert "round-trips (w/r)  : 2/1" in output
        assert "staleness" in output

    def test_run_candidate_protocol_exit_nonzero_on_violation(self, capsys):
        # The asymmetric pattern is not used by the CLI's uniform workload,
        # so a violation is not guaranteed; just check the command completes
        # and reports a verdict either way.
        code = main(["run", "--protocol", "fast-write-attempt", "--writes", "3",
                     "--reads", "3", "--seed", "5"])
        output = capsys.readouterr().out
        assert code in (0, 1)
        assert "atomicity" in output

    def test_run_with_crash(self, capsys):
        code = main(["run", "--servers", "7", "--crash", "--writes", "2", "--reads", "2"])
        assert code == 0

    def test_table1(self, capsys):
        code = main(["table1", "--seeds", "1"])
        output = capsys.readouterr().out
        assert code == 0
        assert "W2R1" in output and "fast-read-mwmr" in output

    def test_prove(self, capsys):
        code = main(["prove", "--servers", "3"])
        output = capsys.readouterr().out
        assert code == 0
        assert "beta_0" in output or "alpha" in output

    def test_boundary(self, capsys):
        code = main(["boundary", "--max-servers", "5"])
        output = capsys.readouterr().out
        assert code == 0
        assert "violation observed" in output

    def test_latency(self, capsys):
        code = main(["latency", "--delay", "lan", "--protocols", "abd-mwmr",
                     "fast-read-mwmr"])
        output = capsys.readouterr().out
        assert code == 0
        assert "mw-abd (W2R2)" in output

    def test_kv_sim_backend(self, capsys):
        code = main(["kv", "--shards", "2", "--clients", "2", "--ops", "8",
                     "--keys", "8"])
        output = capsys.readouterr().out
        assert code == 0
        assert "backend            : sim" in output
        assert "ATOMIC" in output
        assert "batch rounds" in output

    def test_kv_asyncio_backend(self, capsys):
        code = main(["kv", "--backend", "asyncio", "--shards", "2",
                     "--clients", "2", "--ops", "6", "--keys", "6"])
        output = capsys.readouterr().out
        assert code == 0
        assert "backend            : asyncio" in output
        assert "ATOMIC" in output

    def test_kv_groups_and_live_resize(self, capsys):
        code = main(["kv", "--shards", "4", "--groups", "2", "--clients", "2",
                     "--ops", "10", "--keys", "10", "--resize-to", "6"])
        output = capsys.readouterr().out
        assert code == 0
        assert "4 shards on 2 groups" in output
        assert "live resize        : -> 6 shards" in output
        assert "ATOMIC" in output

    def test_kv_through_proxies(self, capsys):
        code = main(["kv", "--shards", "4", "--groups", "2", "--clients", "4",
                     "--ops", "8", "--keys", "10", "--proxies", "2"])
        output = capsys.readouterr().out
        assert code == 0
        assert "proxy tier         : 2 proxies" in output
        assert "served by replicas" in output
        assert "ATOMIC" in output

    def test_kv_direct_omits_proxy_line(self, capsys):
        code = main(["kv", "--shards", "2", "--clients", "2", "--ops", "6",
                     "--keys", "6"])
        output = capsys.readouterr().out
        assert code == 0
        assert "proxy tier" not in output
        assert "read cache" not in output
        assert "frames             :" in output

    def test_kv_read_cache_reports_hits_and_invalidations(self, capsys):
        code = main(["kv", "--shards", "4", "--groups", "2", "--clients", "4",
                     "--ops", "12", "--keys", "6", "--proxies", "1",
                     "--read-cache", "64", "--workload", "zipf:1.2",
                     "--seed", "3"])
        output = capsys.readouterr().out
        assert code == 0
        assert "read cache         : " in output
        assert "hit rate" in output
        assert "lease expiries" in output
        # The resilience line separates migration bounces from cache churn.
        assert "drain bounces" in output
        assert "cache invalidations" in output
        assert "ATOMIC" in output

    def test_kv_without_cache_still_reports_drain_bounces(self, capsys):
        code = main(["kv", "--shards", "2", "--clients", "2", "--ops", "6",
                     "--keys", "6"])
        output = capsys.readouterr().out
        assert code == 0
        assert "drain bounces" in output
        assert "0 cache invalidations" in output

    def test_kv_seed_reproduces_a_sim_run_exactly(self, capsys):
        args = ["kv", "--shards", "2", "--clients", "2", "--ops", "8",
                "--keys", "8", "--seed", "11"]

        def stable(output: str) -> str:
            # Everything the run prints is derived from the seeded workload
            # and the deterministic virtual clock.
            return "\n".join(line for line in output.splitlines()
                             if "duration" not in line or "virtual" in line)

        assert main(args) == 0
        first = stable(capsys.readouterr().out)
        assert main(args) == 0
        second = stable(capsys.readouterr().out)
        assert first == second
        assert main(["kv", "--shards", "2", "--clients", "2", "--ops", "8",
                     "--keys", "8", "--seed", "12"]) == 0
        other = stable(capsys.readouterr().out)
        assert other != first  # a different seed is a different workload

    def test_kv_seed_drives_crash_injection_reproducibly(self, capsys):
        args = ["kv", "--shards", "4", "--groups", "2", "--clients", "3",
                "--ops", "10", "--keys", "12", "--crashes", "1", "--seed", "3"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "ATOMIC" in first

    def test_kv_crashes_on_asyncio_widen_through_the_shared_link(self, capsys):
        assert main(["kv", "--backend", "asyncio", "--clients", "4", "--ops", "12",
                     "--keys", "8", "--crashes", "1"]) == 0
        output = capsys.readouterr().out
        assert "48 completed (48 scheduled)" in output
        assert "direct link        : 4 stores, mean batch" in output
        (rounds,) = [line for line in output.splitlines()
                     if line.startswith("replica rounds")]
        assert int(rounds.split("/")[1].split()[0]) >= 1  # widened to the group
        assert "ATOMIC" in output

    def test_kv_proxied_on_asyncio_rides_the_links_proxy_leg(self, tmp_path, capsys):
        import json

        from repro.observe import validate_metrics_snapshot

        metrics_path = tmp_path / "metrics.json"
        assert main(["kv", "--backend", "asyncio", "--clients", "4", "--ops", "12",
                     "--keys", "8", "--proxies", "1",
                     "--metrics-dump", str(metrics_path)]) == 0
        output = capsys.readouterr().out
        assert "48 completed (48 scheduled)" in output
        assert "proxy leg          : 4 stores, mean batch" in output
        assert "direct link" not in output
        assert "ATOMIC" in output
        validate_metrics_snapshot(
            json.loads(metrics_path.read_text(encoding="utf-8")),
            require_tiers=("client", "proxy", "replica"),
        )

    def test_kv_cached_on_asyncio_carries_lease_releases_in_batch_frames(self, capsys):
        import re

        # One writer behind the caching proxy: every local write's releases
        # ride the update's own frames, so none needs a frame of its own.
        assert main(["kv", "--backend", "asyncio", "--clients", "4", "--ops", "30",
                     "--keys", "6", "--proxies", "1", "--read-cache", "64",
                     "--workload", "zipf:1.2", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        (line,) = [line for line in output.splitlines() if line.startswith("read cache")]
        carried, alone = map(int, re.search(
            r"(\d+) releases carried in batch frames / (\d+) sent alone", line
        ).groups())
        assert carried > 0 and alone <= carried // 10
        assert "ATOMIC" in output

    def test_kv_proxied_on_asyncio_arms_no_timer_per_round(self, tmp_path, capsys):
        import json

        # The proxy's one silence timer bounds every round it sends, so a
        # round that reaches its quorum leaves no timer to cancel: what the
        # proxy tier cancels per op is next to nothing (it was 1.1).
        metrics_path = tmp_path / "metrics.json"
        assert main(["kv", "--backend", "asyncio", "--proxies", "1", "--clients", "8",
                     "--pipeline", "4", "--ops", "600", "--keys", "64",
                     "--workload", "zipf:1.2", "--read-fraction", "0.9", "--seed", "11",
                     "--metrics-dump", str(metrics_path)]) == 0
        output = capsys.readouterr().out
        assert "4800 completed (4800 scheduled)" in output
        assert "ATOMIC" in output
        counters = json.loads(metrics_path.read_text(encoding="utf-8"))["proxy"]["counters"]
        assert counters["timers_cancelled"] / 4800 <= 0.01

    def test_kv_resilience_line_on_both_backends(self, capsys):
        # The replay/failover/bounce counters print on every run (zeroes
        # included) -- on asyncio too, where they used to be invisible.
        assert main(["kv", "--shards", "2", "--clients", "2", "--ops", "6",
                     "--keys", "6"]) == 0
        sim_output = capsys.readouterr().out
        assert main(["kv", "--backend", "asyncio", "--shards", "2",
                     "--clients", "2", "--ops", "6", "--keys", "6"]) == 0
        net_output = capsys.readouterr().out
        for output in (sim_output, net_output):
            assert "resilience         : " in output
            assert "stale replays" in output
            assert "proxy failovers" in output
            assert "replica bounces" in output
            assert "op latency         : p50" in output
            assert "read round trips   : " in output

    def test_kv_prints_the_one_round_two_round_read_split(self, capsys):
        # One client, one op at a time: no write is ever in flight during a
        # read, so every read's quorum agrees and none needs the write-back.
        assert main(["kv", "--shards", "1", "--clients", "1", "--ops", "12",
                     "--keys", "4", "--pipeline", "1"]) == 0
        output = capsys.readouterr().out
        line = next(l for l in output.splitlines() if l.startswith("read round"))
        fast, slow = [int(word) for word in line.split() if word.isdigit()]
        assert fast > 0 and slow == 0

    def test_kv_trace_dump_reconstructs_cross_tier_spans(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        assert main(["kv", "--shards", "4", "--groups", "2", "--clients", "2",
                     "--ops", "8", "--keys", "8", "--proxies", "2",
                     "--trace-dump", str(trace_path),
                     "--metrics-dump", str(metrics_path)]) == 0
        output = capsys.readouterr().out
        assert "trace dump         : " in output
        assert "metrics dump       : " in output

        def tiers_of(node, acc):
            acc.add(node["tier"])
            for child in node["children"]:
                tiers_of(child, acc)
            return acc

        data = json.loads(trace_path.read_text(encoding="utf-8"))
        assert data["traces"], "trace dump carries no span trees"
        full = [tree for tree in data["traces"]
                if tiers_of(tree["root"], set()) ==
                {"client", "proxy", "replica"}]
        assert full, "no op's span tree crosses all three tiers"

        from repro.observe import validate_metrics_snapshot

        metrics = json.loads(metrics_path.read_text(encoding="utf-8"))
        validate_metrics_snapshot(
            metrics, require_tiers=("client", "proxy", "replica")
        )
