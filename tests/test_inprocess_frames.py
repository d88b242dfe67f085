"""In process a frame is the sender's own objects: nobody may write to it.

The simulator and the engine-level ``Fabric``
(:mod:`repro.kvstore.engine.fabric`) hand ``SendFrame.frame`` to the
destination engine as it stands -- the ``SubRequest`` / ``Message`` /
``ProxySubReply`` records the sender built, and the payload dicts inside
them, shared by reference.  That is only sound while every engine and every
per-key ``ServerLogic.handle`` treats what it receives as read-only, so these
tests freeze each frame by snapshot when it is sent and compare once the run
is over.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.kvstore import KVRunConfig, run
from repro.kvstore.engine.fabric import Fabric
from repro.kvstore.workload import generate_workload
from repro.messages import Message
from repro.sim.network import Network

from test_codec_properties import _plain
from test_kvstore_engine import CACHED_SCRIPT, build_memory_stack, run_script


def _record_sends(monkeypatch, owner, method: str, frame_of) -> List[Tuple[Message, object]]:
    """Snapshot every frame passing through ``owner.method`` as it is sent."""
    sent: List[Tuple[Message, object]] = []
    real = getattr(owner, method)

    def recording(self, item, *args):
        frame = frame_of(item)
        sent.append((frame, _plain(frame)))
        return real(self, item, *args)

    monkeypatch.setattr(owner, method, recording)
    return sent


def _assert_untouched(sent: List[Tuple[Message, object]], kinds: set) -> None:
    seen = {frame.kind for frame, _ in sent}
    # Lease traffic riding the batch frames is covered too.
    seen |= {"releases" for frame, _ in sent if frame.payload.get("releases")}
    seen |= {"grants" for frame, _ in sent if frame.payload.get("grants")}
    assert kinds <= seen
    for frame, frozen in sent:
        assert _plain(frame) == frozen, f"{frame!r} was written to after it was sent"


def test_sim_cached_resize_run_leaves_every_frame_as_sent(monkeypatch):
    sent = _record_sends(monkeypatch, Network, "send", lambda message: message)
    workload = generate_workload(
        num_clients=6, ops_per_client=40, num_keys=16,
        read_fraction=0.7, key_skew=1.1, seed=15,
    )
    result = run(KVRunConfig(
        num_shards=4, num_groups=2, proxies=1,
        read_cache=64, lease_ttl=480.0, resize_to=6,
    ), workload)
    assert result.completed_ops == 6 * 40 and result.check().all_atomic
    assert result.cache is not None and result.cache["hits"] > 0
    _assert_untouched(sent, {
        "proxy", "proxy-ack", "batch", "batch-ack", "grants", "releases",
        "lease-invalidate", "lease-release", "view-push", "drain-fence",
        "drain-transfer", "drain-install",
    })


def test_sim_direct_resize_run_leaves_every_frame_as_sent(monkeypatch):
    sent = _record_sends(monkeypatch, Network, "send", lambda message: message)
    workload = generate_workload(
        num_clients=4, ops_per_client=40, num_keys=16, read_fraction=0.5, seed=15,
    )
    result = run(KVRunConfig(num_shards=4, num_groups=2, resize_to=6), workload)
    assert result.completed_ops == 4 * 40 and result.check().all_atomic
    assert result.stale_bounces > 0  # bounced subs are replayed from the same op
    _assert_untouched(sent, {"batch", "batch-ack", "drain-fence"})


def test_memory_fabric_cached_script_leaves_every_frame_as_sent(monkeypatch):
    sent = _record_sends(
        monkeypatch, Fabric, "deliver", lambda effect: effect.frame
    )
    _, fabric, client, _, _ = build_memory_stack(
        num_shards=2, use_proxy=True, read_cache=8
    )
    outcomes = run_script(fabric, client, CACHED_SCRIPT)
    assert len(outcomes) == len(CACHED_SCRIPT) and not fabric.failures
    _assert_untouched(sent, {"proxy", "proxy-ack", "batch", "batch-ack", "grants"})
