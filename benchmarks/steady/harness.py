"""Machine-speed normalisation, statistics and the closed-loop round driver.

Everything here is the *generator* side of the benchmark: it makes the ops
from a seed, issues them through ``KVStore.get/put`` exactly as a caller
would, and times what it sees.  The store receives only the ops.
"""

from __future__ import annotations

import asyncio
import contextlib
import ctypes
import gc
import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional, Sequence

from repro.consistency.history import History
from repro.core import ReproError
from repro.kvstore import (
    AsyncKVCluster,
    KVStore,
    ShardMap,
    check_per_key_atomicity,
    generate_workload,
    run_sim_kv_workload,
)
from repro.kvstore.perkey import KVHistoryRecorder
from repro.kvstore.workload import KVRunResult, KVWorkload

import spec

# -- the reference loop --------------------------------------------------------

#: The loop the numbers are stated for: 25 000 iterations in 0.100 s.
REF_FULL_ITERS = 25_000
REF_FULL_SECONDS = 0.100
#: Iterations of one bracketing sample.  Shorter than the full loop so that
#: short rounds can be bracketed closely; the timing is scaled up to the
#: full loop before use.  ``run.py --smoke`` lowers it once, at start-up:
#: a smoke run checks names and shapes, not speeds.
REF_SAMPLE_ITERS = 10_000
SMOKE_REF_SAMPLE_ITERS = 500
#: A round whose two reference timings differ by more than this is discarded.
REF_DISAGREE = 0.25
#: Set-up is timed this many times in a run; ``setup_s`` is the median.
SETUP_GROUPS = 6
SETUPS_PER_GROUP = 8


def ref_loop() -> float:
    """Seconds the fixed stdlib kernel takes, scaled to the full loop."""
    iterations = REF_SAMPLE_ITERS
    store: Dict[int, object] = {}
    started = time.perf_counter()
    for i in range(iterations):
        store[i & 255] = json.loads(json.dumps({"k": i, "v": "x" * 16, "l": [i, i + 1]}))
    return (time.perf_counter() - started) * (REF_FULL_ITERS / iterations)


def pin_allocator() -> bool:
    """Stop glibc from trimming or mmapping per allocation (README, "Allocator").

    asyncio's 256 KiB receive buffers sit above glibc's mmap threshold and
    at its heap top; depending on heap layout each ``recv`` then costs a
    ``brk`` pair and a page fault, which flips identical code between two
    speeds ~30 % apart.  Returns False where ``mallopt`` is unavailable.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    m_trim_threshold, m_top_pad, m_mmap_threshold = -1, -2, -3
    return bool(
        mallopt(m_trim_threshold, 1 << 30)
        and mallopt(m_top_pad, 64 << 20)
        and mallopt(m_mmap_threshold, 32 << 20)
    )


# -- statistics ----------------------------------------------------------------


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) of an ascending sequence, nearest rank."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def spread(values: Sequence[float]) -> float:
    """Interquartile range over the median (0 for fewer than 2 values)."""
    if len(values) < 2 or statistics.median(values) == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# -- rounds --------------------------------------------------------------------


@dataclass
class Round:
    """What one bracketed burst of ops measured (raw, un-normalised)."""

    ops: int
    wall: float
    cpu: float
    ref_before: float
    ref_after: float
    read_lat: List[float] = field(default_factory=list)
    write_lat: List[float] = field(default_factory=list)
    minor_faults: int = 0
    #: What the traced run recorded about this round (None: ran untraced).
    detail: Optional[Dict] = None

    @property
    def speed(self) -> float:
        """Durations times this are durations on the reference machine."""
        return REF_FULL_SECONDS / ((self.ref_before + self.ref_after) / 2)

    @property
    def steady(self) -> bool:
        low, high = sorted((self.ref_before, self.ref_after))
        return (high - low) / low <= REF_DISAGREE


def over_rounds(rounds: Sequence[Round], statistic: Callable[[Round], float]) -> float:
    """The median over rounds of one per-round rate (ops/s, CPU per op)."""
    return statistics.median(statistic(r) for r in rounds)


def norm_ops_per_s(rnd: Round) -> float:
    return rnd.ops / (rnd.wall * rnd.speed)


def norm_cpu_us_per_op(rnd: Round) -> float:
    return rnd.cpu * rnd.speed / rnd.ops * 1e6


def undisturbed(rounds: Sequence[Round]) -> List[Round]:
    """The rounds at or above the median normalised throughput: the latency pool.

    What slows a round on this machine is mostly the host taking the CPU
    away, and those moments are also what the tail of a pool over all rounds
    is made of: over ten-seed sets of identical code the p99 of the pool over
    all rounds spread 6-51 %, that of this half 3-18 % (README, "Latency
    pool"), against a bound the driver caps at 25 %.
    """
    return sorted(rounds, key=norm_ops_per_s)[len(rounds) // 2:]


def pooled_ms(pool: Sequence[Round], which: str, q: float, normalised: bool = True) -> float:
    """The ``q``-quantile, in ms, of one class's latencies pooled over ``pool``.

    Each sample is scaled by its own round's speed before it joins the pool,
    so the pool is stated for the reference machine although the machine
    changed speed between rounds.
    """
    return 1e3 * percentile(
        sorted(
            lat * (rnd.speed if normalised else 1.0)
            for rnd in pool for lat in getattr(rnd, which)
        ),
        q,
    )


def end_to_end(rounds: Sequence[Round], setup_s: float, rss_mb: float) -> Dict[str, float]:
    """The normalised end-to-end metrics of a set of kept rounds."""
    pool = undisturbed(rounds)
    return {
        "norm_ops_per_s": over_rounds(rounds, norm_ops_per_s),
        "norm_cpu_us_per_op": over_rounds(rounds, norm_cpu_us_per_op),
        "norm_read_p50_ms": pooled_ms(pool, "read_lat", 0.50),
        "norm_write_p50_ms": pooled_ms(pool, "write_lat", 0.50),
        "norm_read_p99_ms": pooled_ms(pool, "read_lat", 0.99),
        "norm_write_p99_ms": pooled_ms(pool, "write_lat", 0.99),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }


def raw_summary(rounds: Sequence[Round]) -> Dict[str, float]:
    """Un-normalised companions, printed beside the metrics; they gate nothing."""
    refs = [t for r in rounds for t in (r.ref_before, r.ref_after)]
    pool = undisturbed(rounds)
    return {
        "raw_ops_per_s": over_rounds(rounds, lambda r: r.ops / r.wall),
        "raw_cpu_us_per_op": over_rounds(rounds, lambda r: r.cpu / r.ops * 1e6),
        "raw_read_p50_ms": pooled_ms(pool, "read_lat", 0.50, normalised=False),
        "raw_write_p50_ms": pooled_ms(pool, "write_lat", 0.50, normalised=False),
        "raw_read_p99_ms": pooled_ms(pool, "read_lat", 0.99, normalised=False),
        "raw_write_p99_ms": pooled_ms(pool, "write_lat", 0.99, normalised=False),
        "all_rounds_read_p99_ms": pooled_ms(rounds, "read_lat", 0.99),
        "all_rounds_write_p99_ms": pooled_ms(rounds, "write_lat", 0.99),
        "read_samples": sum(len(r.read_lat) for r in pool),
        "write_samples": sum(len(r.write_lat) for r in pool),
        "rounds": len(rounds),
        "ref_loop_s": statistics.median(refs),
        "ref_loop_spread": spread(refs),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


#: ``--smoke`` issues this many ops per workload, in one round.
SMOKE_OPS = 40


def round_workload(workload: spec.Workload, seed: int, round_index: int,
                   smoke: bool = False, ops_per_client: Optional[int] = None) -> KVWorkload:
    """Round ``round_index``'s op sequences: a pure function of the seed."""
    if ops_per_client is None:
        ops_per_client = (
            max(1, SMOKE_OPS // workload.clients) if smoke else workload.ops_per_client
        )
    return generate_workload(
        num_clients=workload.clients,
        ops_per_client=ops_per_client,
        num_keys=workload.num_keys,
        read_fraction=workload.read_fraction,
        key_skew=workload.key_skew,
        pipeline_depth=workload.depth,
        seed=seed * 10_000 + round_index,
    )


# -- the asyncio system under test ---------------------------------------------


class Stack:
    """A started cluster, its proxy tier and one connected store per client."""

    def __init__(self, workload: spec.Workload) -> None:
        self.workload = workload
        self.cluster: Optional[AsyncKVCluster] = None
        self.stores: List[KVStore] = []
        base = time.monotonic()
        self.recorder = KVHistoryRecorder(lambda: time.monotonic() - base)

    async def start(self) -> None:
        w = self.workload
        shard_map = ShardMap(
            spec.NUM_SHARDS, protocol_key=spec.PROTOCOL, num_groups=spec.NUM_GROUPS,
            readers=w.clients, writers=w.clients,
        )
        self.cluster = AsyncKVCluster(shard_map)
        await self.cluster.start()
        if w.use_proxy:
            await self.cluster.start_proxies(1, read_cache=w.read_cache)
        for index in range(1, w.clients + 1):
            store = KVStore(
                self.cluster, client_id=f"c{index}", max_batch=spec.MAX_BATCH,
                recorder=self.recorder, use_proxy=True if w.use_proxy else None,
            )
            await store.connect()
            self.stores.append(store)

    async def stop(self) -> None:
        for store in self.stores:
            await store.close()
        self.stores.clear()
        if self.cluster is not None:
            await self.cluster.stop()
            self.cluster = None
        # Let per-connection handler tasks see EOF before the loop moves on.
        pending = [t for t in asyncio.all_tasks() if t is not asyncio.current_task()]
        if pending:
            await asyncio.wait(pending, timeout=1.0)


async def setup_seconds(one_setup: Callable[[], Awaitable[float]], smoke: bool) -> float:
    """``setup_s``: the median of many set-ups' wall times, normalised.

    ``one_setup()`` sets up once and returns the wall seconds it took.  A
    set-up is a few milliseconds of mostly system calls and follows the
    machine's state closely, so the set-ups run in groups, each bracketed
    by the reference loop and normalised by its own bracket.
    """
    groups, per_group = (1, 1) if smoke else (SETUP_GROUPS, SETUPS_PER_GROUP)
    normalised: List[float] = []
    ref = ref_loop()
    for _ in range(groups):
        walls = [await one_setup() for _ in range(per_group)]
        after = ref_loop()
        speed = REF_FULL_SECONDS / ((ref + after) / 2)
        normalised.extend(wall * speed for wall in walls)
        ref = after
    return statistics.median(normalised)


@dataclass
class Tally:
    """Ops issued, and those that raised or timed out.

    ``stop`` is set at the first failure: an op that timed out leaves its
    key blocked in the client engine, so issuing further ops would only
    queue more ten-second waits behind it.
    """

    attempted: int = 0
    failed: int = 0
    stop: bool = False


_NO_SPAN = contextlib.nullcontext()
#: How a ``get``/``put`` raises: the engine failed it (``OpFailed`` carries a
#: ``ReproError``) or its connections were lost.  Anything else is a bug in
#: the benchmark or the store and ends the run with its traceback.
OP_FAILURES = (ReproError, OSError)


async def run_round(
    stack: Stack,
    ops: KVWorkload,
    namespace: str,
    ref_before: float,
    tally: Tally,
    root_span: Optional[Callable] = None,
) -> Round:
    """Issue one round closed-loop and bracket it with the reference loop.

    Each client runs ``depth`` workers, each awaiting its reply before it
    takes the client's next op -- how the facade is used.  ``root_span``,
    when tracing, is a context-manager factory wrapped around each call.
    """
    read_lat: List[float] = []
    write_lat: List[float] = []
    loop = asyncio.get_running_loop()

    def failed() -> None:
        tally.failed += 1
        tally.stop = True

    async def worker(store: KVStore, queue: List) -> None:
        me = asyncio.current_task()
        while queue and not tally.stop:
            op = queue.pop()
            key = namespace + op.key
            tally.attempted += 1
            # The time limit is a timer that cancels this worker.  The op is
            # awaited in the worker itself: wrapping it in a task of its own
            # (``asyncio.wait_for`` before 3.12) starts every op a loop turn
            # late and apart from its neighbours, which undoes the store's
            # batching (measured: proxied_zipf 1 900 -> 1 100 ops/s).
            expiry = loop.call_later(spec.OP_TIMEOUT_S, me.cancel)
            started = time.perf_counter()
            try:
                with root_span(op.kind) if root_span else _NO_SPAN:
                    if op.kind == "put":
                        await store.put(key, op.value)
                    else:
                        await store.get(key)
            except asyncio.CancelledError:
                if loop.time() < expiry.when():
                    raise  # cancelled from outside, not by the time limit
                failed()
            except OP_FAILURES:
                failed()
            else:
                (write_lat if op.kind == "put" else read_lat).append(
                    time.perf_counter() - started
                )
            finally:
                expiry.cancel()

    faults = minor_faults()
    cpu = time.process_time()
    started = time.perf_counter()
    tasks = [
        asyncio.ensure_future(worker(store, queue))
        for store in stack.stores
        for queue in [list(reversed(ops.sequences[store.client_id]))]
        for _ in range(ops.pipeline_depth)
    ]
    await asyncio.gather(*tasks)
    wall = time.perf_counter() - started
    cpu = time.process_time() - cpu
    return Round(
        ops=len(read_lat) + len(write_lat), wall=wall, cpu=cpu,
        ref_before=ref_before, ref_after=ref_loop(),
        read_lat=read_lat, write_lat=write_lat,
        minor_faults=minor_faults() - faults,
    )


# -- the correctness gate ------------------------------------------------------


@dataclass
class Verdict:
    """The per-key atomicity check of everything a run recorded."""

    check_s: float = 0.0
    ops_checked: int = 0
    max_writes_per_key: int = 0
    bad_keys: List[str] = field(default_factory=list)
    ops_on_bad_keys: int = 0

    def add(self, histories: Dict[str, History]) -> None:
        started = time.perf_counter()
        verdict = check_per_key_atomicity(histories)
        self.check_s += time.perf_counter() - started
        self.ops_checked += sum(len(history) for history in histories.values())
        self.max_writes_per_key = max(
            [self.max_writes_per_key, *(len(h.writes) for h in histories.values())]
        )
        for key in verdict.violating_keys:
            self.bad_keys.append(key)
            self.ops_on_bad_keys += len(histories[key])


def result(tally: Tally, verdict: Verdict, metrics: Dict[str, float], **detail) -> Dict:
    """One run's result: the driver's four keys plus what the README explains.

    An op counts as failed once: it raised or timed out, or it completed on
    a key whose history is not atomic.
    """
    failed = tally.failed + verdict.ops_on_bad_keys
    return {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": metrics,
        "failed_op_ratio": failed / tally.attempted if tally.attempted else 1.0,
        "non_atomic_keys": verdict.bad_keys,
        "perkey": {
            "check_s": verdict.check_s,
            "ops_checked": verdict.ops_checked,
            "max_writes_per_key": verdict.max_writes_per_key,
        },
        **detail,
    }


# -- the timed (untraced) runs --------------------------------------------------


async def measure_rounds(
    one_round: Callable[[int, float], Awaitable[Round]],
    seconds: float,
    smoke: bool,
    tally: Tally,
) -> "tuple[List[Round], int, float]":
    """Warm up once, then measure rounds until ``seconds`` have passed.

    ``one_round(index, ref_before)`` runs round ``index`` (0 is the warm-up)
    given the reference timing taken just before it.  Returns the kept
    rounds, how many were discarded as unsteady, and ``peak_rss_mb``; past
    the deadline every round is kept, so the loop ends with at least
    ``MIN_ROUNDS``.

    The peak RSS is read after round ``MIN_ROUNDS``, a fixed amount of work:
    the number of rounds that fit a run follows the machine's speed, and the
    harness keeps every history for the final check (~0.5 MB a round), so
    the high-water mark at the end of a run would follow the machine too.
    """
    ref = ref_loop()
    if not smoke:
        ref = (await one_round(0, ref)).ref_after
    kept: List[Round] = []
    discarded = 0
    rss_mb = 0.0
    index = 1
    deadline = time.perf_counter() + (0.0 if smoke else seconds)
    min_rounds = 1 if smoke else spec.MIN_ROUNDS
    while not tally.stop:
        late = time.perf_counter() >= deadline
        if late and len(kept) >= min_rounds:
            break
        rnd = await one_round(index, ref)
        ref = rnd.ref_after
        if index == min_rounds:
            rss_mb = peak_rss_mb()
        if rnd.ops and (rnd.steady or late or smoke):
            kept.append(rnd)
        else:
            discarded += 1
        index += 1
    return kept, discarded, rss_mb


def timed_result(
    tally: Tally, verdict: Verdict, rounds: List[Round], discarded: int,
    setup_s: float, rss_mb: float,
) -> Dict:
    if not rounds:
        return result(tally, verdict, {}, rounds_discarded=discarded)
    return result(
        tally, verdict, end_to_end(rounds, setup_s, rss_mb),
        raw=raw_summary(rounds), rounds_discarded=discarded,
    )


async def timed_asyncio(workload: spec.Workload, seed: int, seconds: float, smoke: bool) -> Dict:
    """The untraced run of an asyncio workload: every end-to-end metric.

    Round ``r`` works on its own key namespace ``r<r>.`` so per-key
    histories stay short (the checker is quadratic in writes per key).
    """
    async def one_setup() -> float:
        throwaway = Stack(workload)
        started = time.perf_counter()
        await throwaway.start()
        wall = time.perf_counter() - started
        await throwaway.stop()
        return wall

    setup_s = await setup_seconds(one_setup, smoke)
    tally, verdict = Tally(), Verdict()
    stack = Stack(workload)

    async def one_round(index: int, ref: float) -> Round:
        ops = round_workload(workload, seed, index, smoke)
        return await run_round(stack, ops, f"r{index}.", ref, tally)

    try:
        await stack.start()
        rounds, discarded, rss_mb = await measure_rounds(one_round, seconds, smoke, tally)
    finally:
        await stack.stop()
    verdict.add(stack.recorder.histories())
    return timed_result(tally, verdict, rounds, discarded, setup_s, rss_mb)


def sim_call(workload: spec.Workload, ops: KVWorkload) -> KVRunResult:
    return run_sim_kv_workload(
        ops,
        num_shards=spec.NUM_SHARDS, num_groups=spec.NUM_GROUPS,
        protocol_key=spec.PROTOCOL, max_batch=spec.MAX_BATCH,
        use_proxy=workload.use_proxy, read_cache=workload.read_cache,
        lease_ttl=spec.SIM_LEASE_TTL,
    )


def sim_round(
    workload: spec.Workload, ops: KVWorkload, ref_before: float,
    tally: Tally, verdict: Verdict,
) -> "tuple[Round, KVRunResult]":
    """One bracketed ``run_sim_kv_workload`` call as a round.

    The simulator's latencies are virtual time; to state them on the wall
    clock they are multiplied by the call's wall seconds per virtual time
    unit, i.e. how long the simulator took to carry the op.

    Every call builds and drops a whole cluster, as a user's one call would.
    Garbage is collected before each, or the process's peak RSS depends on
    whether the previous call's cluster happened to be collected before this
    one's peak: 45 or 58 MB, by seed.
    """
    gc.collect()
    cpu = time.process_time()
    started = time.perf_counter()
    run = sim_call(workload, ops)
    wall = time.perf_counter() - started
    cpu = time.process_time() - cpu
    tally.attempted += ops.total_operations()
    tally.failed += ops.total_operations() - run.completed_ops
    verdict.add(run.histories)
    per_vt = wall / run.duration if run.duration else 0.0
    return Round(
        ops=run.completed_ops, wall=wall, cpu=cpu,
        ref_before=ref_before, ref_after=ref_loop(),
        read_lat=[lat * per_vt for lat in run.read_latencies],
        write_lat=[lat * per_vt for lat in run.write_latencies],
    ), run


async def timed_sim(workload: spec.Workload, seed: int, seconds: float, smoke: bool) -> Dict:
    """The untraced run of the simulator workload.

    Set-up is not separable through ``run_sim_kv_workload``, so ``setup_s``
    is the wall time of a call with one op per client: cluster construction
    up to the first completed op.
    """
    tally, verdict = Tally(), Verdict()
    one_op_each = round_workload(workload, seed, 0, ops_per_client=1)

    async def one_setup() -> float:
        started = time.perf_counter()
        run = sim_call(workload, one_op_each)
        wall = time.perf_counter() - started
        tally.attempted += one_op_each.total_operations()
        tally.failed += one_op_each.total_operations() - run.completed_ops
        verdict.add(run.histories)
        return wall

    setup_s = await setup_seconds(one_setup, smoke)

    async def one_round(index: int, ref: float) -> Round:
        ops = round_workload(workload, seed, index, smoke)
        return sim_round(workload, ops, ref, tally, verdict)[0]

    rounds, discarded, rss_mb = await measure_rounds(one_round, seconds, smoke, tally)
    return timed_result(tally, verdict, rounds, discarded, setup_s, rss_mb)
