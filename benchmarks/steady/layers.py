"""The traced run: every per-layer metric, and the budget they add up to.

Two parts, both recorded from the benchmark's own files:

(a) the asyncio workload with the public methods of every engine instance
    wrapped (``tracing.Tracer``) under a root span around each ``get``/``put``
    -- engine busy time, calls and wire frames by kind under the real
    transport, on every other round so the untraced rounds between give
    ``harness.trace_overhead_ratio``;
(b) fabric passes (``fabric.py``) of the same op sequences with the codec in
    the path, with ``NULL_OBSERVER`` and with a hub and ``MetricsObserver``
    -- the frame corpus for the codec microbenchmark, and the observer's
    cost by difference.

Every duration is normalised by reference-loop timings taken around it, as
in the timed run.  A metric that does not apply to a workload reads 0.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from repro.asyncio_net.codec import decode_message, encode_message, read_frame, write_frame
from repro.consistency.history import History
from repro.kvstore.workload import KVRunResult, KVWorkload
from repro.messages import Message
from repro.observe import EngineObserver, MetricsObserver, MetricsRegistry, ObserverHub

import fabric as fabric_module
import harness
import spec
from harness import REF_FULL_SECONDS, Round, Stack, Tally, Verdict, ref_loop
from tracing import Span, Tracer, as_dicts, by_layer

ENGINE_LAYERS = ("client_engine", "proxy_engine", "server_engine")
CODEC_KINDS = ("batch", "batch-ack", "proxy", "proxy-ack", "lease")
#: Seconds each (kind, side) cell of the codec microbenchmark runs for.
CODEC_CELL_SECONDS = 0.06
ECHO_ROUND_TRIPS = 1500
FABRIC_PAIRS = 5
#: The traced run's unpinned rounds take their ops from round indexes no run reaches.
UNPINNED_FIRST_ROUND = 9000


def codec_kind(kind: str) -> str:
    """The microbenchmark's bucket for a frame kind."""
    if kind.startswith("lease-"):
        return "lease"
    return kind if kind in CODEC_KINDS else "other"


def timed_normalised(work: Callable[[], None]) -> float:
    """CPU seconds ``work`` takes, normalised by reference loops around it."""
    before = ref_loop()
    cpu = time.process_time()
    work()
    cpu = time.process_time() - cpu
    return cpu * REF_FULL_SECONDS / ((before + ref_loop()) / 2)


def mean_round_trips(histories: Iterable[History]) -> Dict[str, float]:
    """Round trips per completed read and write, as the recorder saw them."""
    reads: List[int] = []
    writes: List[int] = []
    for history in histories:
        got_reads, got_writes = history.round_trip_counts()
        reads.extend(got_reads)
        writes.extend(got_writes)
    return {
        "client_engine.round_trips_per_read": statistics.fmean(reads) if reads else 0.0,
        "client_engine.round_trips_per_write": statistics.fmean(writes) if writes else 0.0,
    }


def run_metrics(verdict: Verdict, rounds: Sequence[Round]) -> Dict[str, float]:
    """What every traced run reports about itself."""
    refs = [t for r in rounds for t in (r.ref_before, r.ref_after)]
    return {
        "perkey.check_s": verdict.check_s,
        "perkey.ops_checked": verdict.ops_checked,
        "perkey.max_writes_per_key": verdict.max_writes_per_key,
        "harness.ref_loop_s": statistics.median(refs),
        "harness.ref_loop_spread": harness.spread(refs),
    }


# -- (a) engine counters under the real transport ------------------------------


def engine_counters(stack: Stack) -> Counter:
    """The engines' public counters, summed per tier."""
    cluster = stack.cluster
    counts: Counter = Counter()
    for store in stack.stores:
        engine = store.engine
        counts["client_rounds"] += engine.stats.rounds
        counts["client_subs"] += engine.stats.sub_operations
        counts["client_replays"] += engine.stale_replays + engine.drain_backoffs
    for proxy in cluster.proxies.values():
        engine = proxy.engine
        counts["proxy_rounds"] += engine.stats.rounds
        counts["proxy_subs"] += engine.stats.sub_operations
        counts["proxy_read_subs"] += engine.read_subs_sent
        counts["cache_hits"] += engine.cache_hits
        counts["cache_misses"] += engine.cache_misses
        counts["cache_invalidations"] += engine.cache_invalidations
        counts["lease_expiries"] += engine.leases_expired
    for logic in cluster.server_logics.values():
        counts["server_frames"] += logic.batches_served
        counts["server_subs"] += logic.sub_ops_served
        counts["stale_bounces"] += logic.stale_bounces
        counts["write_deferrals"] += logic.write_deferrals
        counts["lease_expiries"] += logic.leases_expired
    return counts


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def counter_metrics(counts: Counter, ops: int, writes: int) -> Dict[str, float]:
    """The count-type per-layer metrics both backends can fill."""
    return {
        "client_engine.mean_batch": ratio(counts["client_subs"], counts["client_rounds"]),
        "client_engine.replays_per_op": ratio(counts["client_replays"], ops),
        "proxy_engine.merge_factor": ratio(counts["proxy_subs"], counts["proxy_rounds"]),
        "proxy_engine.read_subs_per_op": ratio(counts["proxy_read_subs"], ops),
        "cache.hit_ratio": ratio(
            counts["cache_hits"], counts["cache_hits"] + counts["cache_misses"]
        ),
        "cache.invalidations_per_write": ratio(counts["cache_invalidations"], writes),
        "cache.write_deferrals_per_write": ratio(counts["write_deferrals"], writes),
        "cache.lease_expiries_per_op": ratio(counts["lease_expiries"], ops),
        "server_engine.sub_ops_per_op": ratio(counts["server_subs"], ops),
        "server_engine.frames_per_op": ratio(counts["server_frames"], ops),
        "server_engine.stale_bounces_per_op": ratio(counts["stale_bounces"], ops),
    }


# -- (b) fabric passes, codec microbenchmark, echo floor -------------------------


class EmitTimer:
    """Times and counts every ``emit`` of the observers it wraps."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.emits = 0

    def wrap(self, inner: EngineObserver) -> EngineObserver:
        timer = self

        class Timed(EngineObserver):
            def emit(self, event: str, **fields) -> None:
                started = time.perf_counter()
                inner.emit(event, **fields)
                timer.seconds += time.perf_counter() - started
                timer.emits += 1

        return Timed()


def fabric_pass(
    workload: spec.Workload, ops: KVWorkload, observed: bool, verdict: Verdict, tally: Tally,
    spans: "List[Span] | None" = None,
) -> Tuple[EmitTimer, "fabric_module.Fabric"]:
    """One pass of ``ops`` over the fabric, every engine's observer timed.

    ``observed`` gives the engines a hub with a ``MetricsObserver``, as the
    real clusters do; otherwise they keep ``NULL_OBSERVER``.
    """
    hub = None
    if observed:
        hub = ObserverHub()
        hub.add_sink(MetricsObserver(MetricsRegistry()))
    timer = EmitTimer()
    fab, clients, recorder = fabric_module.build(workload, hub, spans, timer.wrap)
    completed = fabric_module.drive(fab, clients, ops, "f.")
    tally.attempted += ops.total_operations()
    tally.failed += ops.total_operations() - completed
    verdict.add(recorder.histories())
    return timer, fab


def observer_cost(
    workload: spec.Workload, ops: KVWorkload, pairs: int, verdict: Verdict, tally: Tally
) -> Tuple[float, "fabric_module.Fabric", int]:
    """(normalised us/op the observers add, a fabric with its corpus, emits per pass).

    Each pair runs the same ops with ``NULL_OBSERVER`` and with a hub and a
    ``MetricsObserver`` inside one reference bracket and contributes the
    difference of the time spent inside ``emit``; the median pair is
    reported.  Timing ``emit`` itself, with the same shim on both sides so
    that its own cost cancels, is far steadier than the difference of two
    whole passes' CPU time, which on this machine varies by +-40 %.
    """
    differences: List[float] = []
    fab, emits = None, 0
    for _ in range(pairs):
        before = ref_loop()
        off, _ = fabric_pass(workload, ops, False, verdict, tally)
        on, fab = fabric_pass(workload, ops, True, verdict, tally)
        speed = REF_FULL_SECONDS / ((before + ref_loop()) / 2)
        differences.append((on.seconds - off.seconds) / ops.total_operations() * speed * 1e6)
        emits = on.emits
    return statistics.median(differences), fab, emits


def codec_microbench(
    corpus: Sequence[Tuple[Message, bytes]], cell_seconds: float
) -> Dict[str, Dict[str, float]]:
    """kind -> normalised encode/decode us per frame and mean bytes, over the corpus."""
    by_kind: Dict[str, List[Tuple[Message, bytes]]] = {}
    for message, data in corpus:
        by_kind.setdefault(codec_kind(message.kind), []).append((message, data))
    table: Dict[str, Dict[str, float]] = {}
    for kind, frames in by_kind.items():
        messages = [message for message, _ in frames]
        bodies = [data[4:] for _, data in frames]
        cell: Dict[str, float] = {
            "frames": len(frames),
            "bytes": statistics.fmean(len(data) for _, data in frames),
        }
        for side, function, inputs in (
            ("encode", encode_message, messages), ("decode", decode_message, bodies),
        ):
            calls = 0

            def work() -> None:
                nonlocal calls
                deadline = time.perf_counter() + cell_seconds
                while time.perf_counter() < deadline:
                    for item in inputs:
                        function(item)
                    calls += len(inputs)

            cell[side] = timed_normalised(work) / calls * 1e6
        table[kind] = cell
    return table


async def echo_floor(frame_bytes: int, round_trips: int) -> float:
    """Normalised us per frame of a bare ``read_frame``/``write_frame`` echo.

    One connection over loopback, one frame in flight, the frame padded to
    ``frame_bytes``: what the event loop, sockets and framing cost with no
    engine behind them.
    """

    async def serve(reader, writer) -> None:
        try:
            while True:
                await write_frame(writer, await read_frame(reader))
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(serve, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    empty = len(encode_message(Message("c", "s", "echo", {"pad": ""})))
    message = Message("c", "s", "echo", {"pad": "x" * max(0, frame_bytes - empty)})
    try:
        before = ref_loop()
        started = time.perf_counter()
        for _ in range(round_trips):
            await write_frame(writer, message)
            await read_frame(reader)
        wall = time.perf_counter() - started
        speed = REF_FULL_SECONDS / ((before + ref_loop()) / 2)
    finally:
        writer.close()
        server.close()
        await server.wait_closed()
    return wall * speed / (2 * round_trips) * 1e6


# -- the traced asyncio run --------------------------------------------------------


async def traced_asyncio(
    workload: spec.Workload, seed: int, seconds: float, smoke: bool, out: Path
) -> Dict:
    stack = Stack(workload)
    await stack.start()
    cluster = stack.cluster
    tracer = Tracer()
    tally, verdict = Tally(), Verdict()
    last_traced: Dict = {}
    codec_spans: List[Span] = []

    async def one_round(index: int, ref: float) -> Round:
        ops = harness.round_workload(workload, seed, index, smoke)
        if index % 2 == 0:  # even rounds (and the warm-up) run untraced
            return await harness.run_round(stack, ops, f"r{index}.", ref, tally)
        for store in stack.stores:
            tracer.attach(store.engine, "client_engine")
        for proxy in cluster.proxies.values():
            tracer.attach(proxy.engine, "proxy_engine")
        for logic in cluster.server_logics.values():
            tracer.attach(logic, "server_engine")
        counts = engine_counters(stack)
        try:
            rnd = await harness.run_round(stack, ops, f"r{index}.", ref, tally, tracer.root)
        finally:
            tracer.detach()
        counts = engine_counters(stack) - counts
        spans, sent = tracer.take()
        rnd.detail = {"counts": counts, "sent": sent, "layers": by_layer(spans)}
        last_traced.update(wall=rnd.wall, ops=rnd.ops, spans=spans)
        return rnd

    async def unpinned_round(index: int, ref: float) -> Round:
        ops = harness.round_workload(workload, seed, UNPINNED_FIRST_ROUND + index, smoke)
        return await harness.run_round(stack, ops, f"u{index}.", ref, tally)

    try:
        # The allocator is still as users run it: a warm-up and the minimum
        # number of rounds (a zero budget), untraced, before it is pinned.
        unpinned, _, _ = await harness.measure_rounds(unpinned_round, 0.0, smoke, tally)
        harness.pin_allocator()
        # The traced and untraced rounds get 0.4 of the budget; the unpinned
        # rounds above and the fabric passes, microbenchmark and echo below
        # take the rest.
        rounds, discarded, _ = await harness.measure_rounds(
            one_round, seconds * 0.4, smoke, tally
        )
        traced = [r for r in rounds if r.detail]
        untraced = [r for r in rounds if not r.detail] or traced  # a smoke run has one round
        fabric_ops = harness.round_workload(workload, seed, 1, smoke)
        observe_us, fab, emits = observer_cost(
            workload, fabric_ops, 1 if smoke else FABRIC_PAIRS, verdict, tally
        )
        # One more observed pass, this one recording its codec spans for the trace file.
        fabric_pass(workload, fabric_ops, True, verdict, tally, codec_spans)
        codec = codec_microbench(fab.corpus, 0.002 if smoke else CODEC_CELL_SECONDS)
        frame_sizes = sorted(len(data) for _, data in fab.corpus)
        echo_us = await echo_floor(
            harness.percentile(frame_sizes, 0.5), 100 if smoke else ECHO_ROUND_TRIPS
        )
    finally:
        await stack.stop()
    verdict.add(stack.recorder.histories())
    if not traced:
        return harness.result(tally, verdict, {}, rounds_discarded=discarded)

    counts: Counter = Counter()
    sent: Counter = Counter()
    layer_calls: Counter = Counter()
    layer_us: Dict[str, List[float]] = {layer: [] for layer in ENGINE_LAYERS}
    for rnd in traced:
        counts.update(rnd.detail["counts"])
        sent.update(rnd.detail["sent"])
        for layer in ENGINE_LAYERS:
            busy, calls = rnd.detail["layers"].get(layer, (0.0, 0))
            layer_us[layer].append(busy * rnd.speed / rnd.ops * 1e6)
            layer_calls[layer] += calls
    traced_ops = sum(r.ops for r in traced)
    traced_writes = sum(len(r.write_lat) for r in traced)
    fabric_ops_count = fabric_ops.total_operations()
    overall = {
        side: ratio(
            sum(cell[side] * cell["frames"] for cell in codec.values()),
            sum(cell["frames"] for cell in codec.values()),
        )
        for side in ("encode", "decode")
    }

    def cost(kind: str, side: str) -> float:
        cell = codec.get(codec_kind(kind))
        return cell[side] if cell else overall[side]

    wire_frames = sum(sent.values())
    codec_us_per_op = ratio(
        sum(n * (cost(kind, "encode") + cost(kind, "decode")) for kind, n in sent.items()),
        traced_ops,
    )
    traced_cpu = harness.over_rounds(traced, harness.norm_cpu_us_per_op)
    untraced_cpu = harness.over_rounds(untraced, harness.norm_cpu_us_per_op)
    engine_us = {layer: statistics.median(values) for layer, values in layer_us.items()}
    residual = traced_cpu - sum(engine_us.values()) - codec_us_per_op

    metrics = {name: 0.0 for name in spec.PER_LAYER}
    metrics.update(counter_metrics(counts, traced_ops, traced_writes))
    metrics.update(mean_round_trips(stack.recorder.histories().values()))
    metrics.update(run_metrics(verdict, rounds))
    metrics.update({
        "codec.encode_us_per_frame": overall["encode"],
        "codec.decode_us_per_frame": overall["decode"],
        **{
            f"codec.{side}_us_per_frame.{kind}": codec[kind][side]
            for kind in CODEC_KINDS if kind in codec for side in ("encode", "decode")
        },
        "codec.bytes_per_op": ratio(fab.wire_bytes, fabric_ops_count),
        "codec.frames_per_op": ratio(sum(fab.frames.values()), fabric_ops_count),
        "codec.us_per_op": codec_us_per_op,
        "client_engine.us_per_op": engine_us["client_engine"],
        "client_engine.calls_per_op": ratio(layer_calls["client_engine"], traced_ops),
        "proxy_engine.us_per_op": engine_us["proxy_engine"],
        "proxy_engine.calls_per_op": ratio(layer_calls["proxy_engine"], traced_ops),
        "cache.lease_frames_per_op": ratio(
            sum(n for kind, n in sent.items() if kind.startswith("lease-")), traced_ops
        ),
        "server_engine.us_per_op": engine_us["server_engine"],
        "server_engine.us_per_sub_op": ratio(
            engine_us["server_engine"] * traced_ops, counts["server_subs"]
        ),
        "observe.emits_per_op": ratio(emits, fabric_ops_count),
        "observe.us_per_emit": ratio(observe_us * fabric_ops_count, emits),
        "observe.us_per_op": observe_us,
        "net_backend.residual_us_per_op": residual,
        "net_backend.echo_floor_us_per_frame": echo_us,
        "net_backend.wire_frames_per_op": ratio(wire_frames, traced_ops),
        "harness.traced_cpu_us_per_op": traced_cpu,
        "harness.rounds_discarded": discarded,
        "harness.raw_ops_per_s": harness.over_rounds(untraced, lambda r: r.ops / r.wall),
        "harness.trace_overhead_ratio": ratio(traced_cpu, untraced_cpu),
        "harness.unpinned_cpu_ratio": ratio(
            harness.over_rounds(unpinned, harness.norm_cpu_us_per_op), untraced_cpu
        ),
        "harness.minor_faults_per_op": ratio(
            sum(r.minor_faults for r in unpinned), sum(r.ops for r in unpinned)
        ),
    })
    budget = [
        "budget (normalised CPU us/op under the real transport, traced rounds):",
        *(f"  {layer:<24} {engine_us[layer]:>10.1f}" for layer in ENGINE_LAYERS),
        f"  {'codec':<24} {codec_us_per_op:>10.1f}",
        f"  {'net_backend.residual':<24} {residual:>10.1f}",
        f"  {'= traced CPU us/op':<24} {traced_cpu:>10.1f}   "
        f"(untraced {untraced_cpu:.1f}, overhead x{ratio(traced_cpu, untraced_cpu):.3f})",
        f"  of which observe (fabric, hub+MetricsObserver minus NULL_OBSERVER) "
        f"{observe_us:.1f} inside the engine figures",
        f"  wire frames by kind per op: "
        + ", ".join(f"{kind} {n / traced_ops:.2f}" for kind, n in sorted(sent.items())),
    ]
    write_trace(out, workload.name, last_traced, codec_spans)
    return harness.result(
        tally, verdict, metrics, budget=budget, rounds_discarded=discarded,
        codec_table=codec, traced_rounds=len(traced), untraced_rounds=len(untraced),
    )


def write_trace(out: Path, name: str, last_traced: Dict, codec_spans: Sequence[Span]) -> None:
    """The last traced round's spans and the fabric pass's codec spans, to disk."""
    document = {
        "workload": name,
        "round": {
            "wall_s": last_traced["wall"],
            "ops": last_traced["ops"],
            "spans": as_dicts(last_traced["spans"]),
        },
        "fabric": {"spans": as_dicts(codec_spans)},
    }
    (out / f"trace_{name}.json").write_text(json.dumps(document))


# -- the traced simulator run ------------------------------------------------------

SIM_TRACED_CALLS = 5


def sim_counters(run: KVRunResult) -> Counter:
    """One call's counters under the names ``counter_metrics`` reads."""
    cache = run.cache or {}
    proxy = run.proxy_stats
    return Counter({
        "client_rounds": run.batch_stats.rounds,
        "client_subs": run.batch_stats.sub_operations,
        "client_replays": run.stale_replays + run.drain_backoffs,
        "proxy_rounds": proxy.rounds if proxy else 0,
        "proxy_subs": proxy.sub_operations if proxy else 0,
        "proxy_read_subs": run.replica_read_subs,
        "cache_hits": cache.get("hits", 0),
        "cache_misses": cache.get("misses", 0),
        "cache_invalidations": cache.get("invalidations", 0),
        "lease_expiries": cache.get("proxy_lease_expiries", 0) + cache.get("lease_expiries", 0),
        "write_deferrals": cache.get("write_deferrals", 0),
        "server_frames": run.replica_frames,
        "server_subs": run.replica_sub_ops,
        "stale_bounces": run.stale_bounces,
        "frames": run.messages_sent,
        "ops": run.completed_ops,
        "writes": len(run.write_latencies),
    })


async def traced_sim(
    workload: spec.Workload, seed: int, seconds: float, smoke: bool, out: Path
) -> Dict:
    """A fixed number of simulator calls, so counts and ``_vt`` figures repeat exactly.

    Nothing is wrapped inside the simulator (its engines are not reachable
    through ``run_sim_kv_workload``): each call is one root span, and the
    layer figures are the counters and virtual-time latencies it returns.
    """
    tally, verdict = Tally(), Verdict()
    counts: Counter = Counter()
    rounds: List[Round] = []
    reads_vt: List[float] = []
    writes_vt: List[float] = []
    histories: List[History] = []
    spans: List[Span] = []
    ref = ref_loop()
    for index in range(1, (1 if smoke else SIM_TRACED_CALLS) + 1):
        ops = harness.round_workload(workload, seed, index, smoke)
        started = time.perf_counter()
        rnd, run = harness.sim_round(workload, ops, ref, tally, verdict)
        spans.append(Span(f"run_sim_kv_workload:{index}", "sim_backend",
                          started, started + rnd.wall, None, None))
        ref = rnd.ref_after
        rounds.append(rnd)
        counts.update(sim_counters(run))
        reads_vt.extend(run.read_latencies)
        writes_vt.extend(run.write_latencies)
        histories.extend(run.histories.values())
    reads_vt.sort()
    writes_vt.sort()
    ops = counts["ops"]
    metrics = {name: 0.0 for name in spec.PER_LAYER}
    metrics.update(counter_metrics(counts, ops, counts["writes"]))
    metrics.update(mean_round_trips(histories))
    metrics.update(run_metrics(verdict, rounds))
    metrics.update({
        "sim_backend.wall_us_per_op": harness.over_rounds(
            rounds, lambda r: r.wall * r.speed / r.ops * 1e6),
        "sim_backend.frames_per_op": ratio(counts["frames"], ops),
        "sim_backend.read_p50_vt": harness.percentile(reads_vt, 0.50),
        "sim_backend.read_p99_vt": harness.percentile(reads_vt, 0.99),
        "sim_backend.write_p50_vt": harness.percentile(writes_vt, 0.50),
        "sim_backend.write_p99_vt": harness.percentile(writes_vt, 0.99),
        "harness.traced_cpu_us_per_op": harness.over_rounds(rounds, harness.norm_cpu_us_per_op),
        "harness.raw_ops_per_s": harness.over_rounds(rounds, lambda r: r.ops / r.wall),
        "harness.trace_overhead_ratio": 1.0,
    })
    write_trace(
        out, workload.name,
        {"wall": sum(r.wall for r in rounds), "ops": ops, "spans": spans}, [],
    )
    return harness.result(tally, verdict, metrics, sim_counters=dict(counts))
