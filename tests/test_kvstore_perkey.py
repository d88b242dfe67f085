"""``KVHistoryRecorder``'s completion count.

``completed_operations`` is read after every completion (the crash, proxy-kill
and resize triggers poll it), so it is a counter bumped at an operation's
first response rather than a scan of every operation.
"""

from __future__ import annotations

from repro.core.operations import OpKind
from repro.core.timestamps import Tag
from repro.kvstore import KVRunConfig, generate_workload, run
from repro.kvstore.perkey import KVHistoryRecorder


def _scanned(histories) -> int:
    return sum(
        1 for history in histories.values()
        for op in history.operations if op.is_complete
    )


def test_a_response_recorded_twice_counts_once():
    clock = iter(range(100))
    recorder = KVHistoryRecorder(lambda: next(clock))
    recorder.record_invocation("k", "w1", "c1", OpKind.WRITE, value=1)
    recorder.record_response("w1", tag=Tag(1, "c1"))
    recorder.record_response("w1", tag=Tag(1, "c1"))
    assert recorder.completed_operations == 1 == _scanned(recorder.histories())


def test_the_count_matches_a_scan_on_a_mixed_history():
    clock = iter(range(100))
    recorder = KVHistoryRecorder(lambda: next(clock))
    for index in range(12):
        kind = OpKind.READ if index % 3 else OpKind.WRITE
        recorder.record_invocation(f"k{index % 4}", f"op{index}", "c1", kind, value=index)
        if index % 5 != 4:  # every fifth stays pending
            recorder.record_response(f"op{index}", value=index, tag=Tag(index, "c1"))
        if index % 6 == 0:  # and some answer twice
            recorder.record_response(f"op{index}", value=index, tag=Tag(index, "c1"))
    assert recorder.total_operations == 12
    assert recorder.completed_operations == 10 == _scanned(recorder.histories())


def test_the_count_matches_a_scan_on_a_cached_sim_run():
    workload = generate_workload(
        num_clients=4, ops_per_client=12, num_keys=8, read_fraction=0.6, seed=3,
    )
    result = run(KVRunConfig(proxies=1, read_cache=8), workload)
    assert result.completed_ops == _scanned(result.histories)
    assert result.completed_ops == workload.total_operations()
