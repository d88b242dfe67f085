"""Benchmark -- what a frame's trip over the wire costs on top of JSON itself.

A sender's records become a frame (``make_*``), ``encode_message`` turns them
into positional rows and hands one array to the C JSON encoder,
``decode_message`` parses it once, checks the routing fields and builds the
records back, and the receiver's ``unpack_*`` hands them over.  This bench
runs that whole trip over a fixed seeded corpus -- one frame of each typed
kind, the two batch kinds again with the lease traffic they carry (releases
on a ``batch``, grants on a ``batch-ack``), and the ``lease-release`` a
replica gets when no batch frame goes to it, at batch sizes 1, 2 and 8 --
and reports:

* ``wire_bytes_per_frame`` -- the encoded size of every corpus frame, header
  included.  Deterministic; ``check_perf_gate.py`` requires it to equal the
  baseline, so a format change shows up as a deliberate baseline edit;
* ``frame_round_trip_over_json_floor`` -- (make + encode + decode + unpack of
  every frame) / (the C encoder and parser alone over the same frames'
  bodies as plain JSON values), both timed back to back in one process (best
  of the repeats), so the ratio moves with the code and not with the runner's
  speed.  What is above 1 is *ours*: rows, checks and object construction.
  The gate holds it under a ceiling that a dict-of-dicts layer, wherever it
  is reintroduced between the records and the bytes, exceeds;
* per-frame send-side (make + encode) and receive-side (decode + unpack)
  microseconds, for reading.

Run directly::

    PYTHONPATH=src python benchmarks/bench_codec.py [--quick] [--json PATH]
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.asyncio_net.codec import decode_message, encode_message
from repro.bench.report import format_rows
from repro.messages import (
    Message,
    ProxySubReply,
    ProxySubRequest,
    SubRequest,
    make_batch,
    make_batch_ack,
    make_lease_release,
    make_proxy_ack,
    make_proxy_request,
    unpack_batch,
    unpack_batch_ack,
    unpack_lease_release,
    unpack_proxy_ack,
    unpack_proxy_request,
)

from _bench_utils import bench_json_path, print_section, write_bench_json

SEED = 15
BATCH_SIZES = (1, 2, 8)


#: One corpus entry: its name, the sender's ``make_*`` call over prebuilt
#: records, and the receiver's ``unpack_*``.
Entry = Tuple[str, Callable[[], Message], Callable[[Message], Any]]


def corpus() -> List[Entry]:
    """The frames, named ``<kind>@<batch size>``, identical on every run."""
    rng = random.Random(SEED)
    entries: List[Entry] = []

    def tag() -> List[Any]:
        return [rng.randrange(1, 500), f"c{rng.randrange(8)}"]

    for size in BATCH_SIZES:
        subs = []
        for index in range(size):
            write = rng.random() < 0.3
            payload = ({"tag": tag(), "value": f"v{rng.randrange(10_000)}"}
                       if write else {})
            op_id = f"c1-{'write' if write else 'read'}-{rng.randrange(10_000)}"
            subs.append(SubRequest(
                f"r3.k{rng.randrange(64)}",
                Message("c1", "g1-s1", "update" if write else "query", payload,
                        op_id, rng.randrange(1, 3), trace=op_id),
                f"shard-{rng.randrange(4)}", 1,
                f"p1#{index}" if rng.random() < 0.2 else None,
            ))
        batch = make_batch("c1", "g1-s1", subs)
        replies = [
            (sub.key, sub.message.reply(
                sub.message.kind + "-ack", {"tag": tag(), "value": "v"}))
            for sub in subs
        ]
        rounds = [
            ProxySubRequest(
                sub.key, "write" if sub.message.kind == "update" else "read",
                sub.message.kind, sub.message.payload, sub.message.op_id + "@0",
                sub.message.round_trip, trace=sub.message.op_id)
            for sub in subs
        ]
        closed = [
            ProxySubReply(sub.op_id, sub.round_trip, tuple(
                Message(server, "p1", sub.kind + "-ack",
                        {"tag": tag(), "value": "v"}, sub.op_id + "#1",
                        sub.round_trip)
                for server in ("g1-s1", "g1-s2")))
            for sub in rounds
        ]
        keys = [sub.key for sub in subs]
        grants = [(sub.key, f"p1#{i}") for i, sub in enumerate(subs)]
        entries += [
            (f"batch@{size}",
             lambda subs=subs: make_batch("c1", "g1-s1", subs), unpack_batch),
            (f"batch-ack@{size}",
             lambda batch=batch, replies=replies: make_batch_ack(batch, replies),
             unpack_batch_ack),
            (f"proxy@{size}",
             lambda rounds=rounds: make_proxy_request("c1", "p1", rounds),
             unpack_proxy_request),
            (f"proxy-ack@{size}",
             lambda closed=closed: make_proxy_ack("p1", "c1", closed),
             unpack_proxy_ack),
            (f"batch+releases@{size}",
             lambda subs=subs, keys=keys: make_batch("c1", "g1-s1", subs, keys),
             unpack_batch),
            (f"batch-ack+grants@{size}",
             lambda batch=batch, replies=replies, grants=grants: make_batch_ack(
                 batch, replies, grants),
             unpack_batch_ack),
            (f"lease-release@{size}",
             lambda keys=keys: make_lease_release("p1", "g1-s1", keys),
             unpack_lease_release),
        ]
    return entries


def best_of(repeats: int, loops: int, call: Callable[[], Any]) -> float:
    """Seconds per call, the fastest of ``repeats`` timed loops."""
    best = float("inf")
    for _ in range(repeats):
        started = perf_counter()
        for _ in range(loops):
            call()
        best = min(best, perf_counter() - started)
    return best / loops


def run(loops: int, repeats: int) -> Dict[str, Any]:
    dumps = json.JSONEncoder(separators=(",", ":")).encode
    loads = json.JSONDecoder().raw_decode
    rows = []
    ours = floor = 0.0
    for index, (name, make, unpack) in enumerate(corpus()):
        frame = make()
        frame.msg_id = 1000 + index  # msg ids print into the body: pin them
        data = encode_message(frame)
        body = data[4:]
        text = body.decode("utf-8")
        value, _ = loads(text)
        assert dumps(value) == text, "the floor must write the same bytes"
        send = best_of(repeats, loops, lambda: encode_message(make()))
        receive = best_of(repeats, loops, lambda: unpack(decode_message(body)))
        floor_dumps = best_of(repeats, loops, lambda: dumps(value))
        floor_loads = best_of(repeats, loops, lambda: loads(text))
        ours += send + receive
        floor += floor_dumps + floor_loads
        rows.append({
            "frame": name,
            "bytes": len(data),
            "send_us": round(send * 1e6, 2),
            "receive_us": round(receive * 1e6, 2),
            "json_floor_us": round((floor_dumps + floor_loads) * 1e6, 2),
            "ratio": round((send + receive) / (floor_dumps + floor_loads), 2),
        })
    return {
        "loops": loops,
        "repeats": repeats,
        "wire_bytes_per_frame": {row["frame"]: row["bytes"] for row in rows},
        "frame_round_trip_over_json_floor": round(ours / floor, 3),
        "frames": rows,
    }


if __name__ == "__main__":
    quick = "--quick" in sys.argv[1:]
    report = run(loops=500, repeats=7) if quick else run(loops=3_000, repeats=9)
    print_section("wire codec -- a frame's round trip vs JSON alone (us per frame)")
    print(format_rows(
        report["frames"],
        ["frame", "bytes", "send_us", "receive_us", "json_floor_us", "ratio"],
    ))
    print(f"\nall frames: round trip over the JSON floor "
          f"{report['frame_round_trip_over_json_floor']}")
    json_path = bench_json_path(sys.argv[1:])
    if json_path:
        write_bench_json(json_path, "codec", report)
