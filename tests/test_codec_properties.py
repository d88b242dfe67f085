"""Property-based round-trip tests for the asyncio wire codec.

Every message the transport can carry -- including the kv store's batch
frames -- must survive ``encode -> frame -> decode`` bit-exactly, because the
asyncio backend and the simulator share protocol logic that assumes payloads
are preserved.  Hypothesis generates adversarial senders, kinds and payload
trees (anything JSON can carry).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.asyncio_net.codec import (
    MAX_FRAME_BYTES,
    FrameError,
    decode_batch_frame,
    decode_drain_install_frame,
    decode_drain_transfer_frame,
    decode_message,
    decode_proxy_ack_frame,
    decode_proxy_frame,
    decode_view_push_frame,
    encode_batch_frame,
    encode_drain_install_frame,
    encode_drain_transfer_frame,
    encode_message,
    encode_proxy_ack_frame,
    encode_proxy_frame,
    encode_view_push_frame,
)
from repro.messages import (
    BATCH_ACK_KIND,
    BATCH_KIND,
    PROXY_ACK_KIND,
    PROXY_KIND,
    VIEW_PUSH_KIND,
    Message,
    ProxySubReply,
    ProxySubRequest,
    SubRequest,
    make_batch,
    make_batch_ack,
    make_proxy_ack,
    make_proxy_request,
    make_view_push,
    unpack_batch,
    unpack_batch_ack,
    unpack_proxy_ack,
    unpack_proxy_request,
    unpack_view_push,
)

_codec = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

# JSON-safe payload values: what the protocols put into message payloads.
# Floats are restricted to finite values (JSON has no NaN/Infinity) and ints
# to the range JSON interoperates with.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
)
_json_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=10), children, max_size=4),
    ),
    max_leaves=12,
)
_payloads = st.dictionaries(st.text(max_size=12), _json_values, max_size=5)
_ids = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), whitelist_characters="-_:"),
    min_size=1,
    max_size=12,
)


def _messages(kinds=_ids):
    return st.builds(
        Message,
        sender=_ids,
        receiver=_ids,
        kind=kinds,
        payload=_payloads,
        op_id=st.one_of(st.none(), _ids),
        round_trip=st.integers(min_value=0, max_value=9),
        trace=st.one_of(st.none(), _ids),
    )


def _assert_same_message(left: Message, right: Message) -> None:
    assert left.sender == right.sender
    assert left.receiver == right.receiver
    assert left.kind == right.kind
    assert left.payload == right.payload
    assert left.op_id == right.op_id
    assert left.round_trip == right.round_trip
    assert left.trace == right.trace


def _scrub_trace(value):
    """Drop every ``"trace"`` key, emulating a frame from a peer that
    predates the trace-context field (cross-version tolerance)."""
    if isinstance(value, dict):
        return {
            key: _scrub_trace(item)
            for key, item in value.items()
            if key != "trace"
        }
    if isinstance(value, list):
        return [_scrub_trace(item) for item in value]
    return value


class TestMessageFrames:
    @_codec
    @given(message=_messages())
    def test_encode_decode_round_trip(self, message):
        encoded = encode_message(message)
        decoded = decode_message(encoded[4:])
        _assert_same_message(message, decoded)

    @_codec
    @given(message=_messages())
    def test_length_prefix_matches_body(self, message):
        encoded = encode_message(message)
        assert int.from_bytes(encoded[:4], "big") == len(encoded) - 4

    def test_oversized_frame_rejected(self):
        huge = Message("a", "b", "blob", {"data": "x" * (MAX_FRAME_BYTES + 1)})
        with pytest.raises(FrameError):
            encode_message(huge)

    @_codec
    @given(message=_messages())
    def test_traceless_frames_stay_byte_identical(self, message):
        # A message without a trace id must encode exactly as it did before
        # the field existed: no "trace" key on the wire at all.
        bare = Message(
            message.sender, message.receiver, message.kind, message.payload,
            op_id=message.op_id, round_trip=message.round_trip,
        )
        # Parse rather than substring-match: "trace" is a legal kind/payload
        # *value*; only the top-level field must stay off the wire.
        assert "trace" not in json.loads(encode_message(bare)[4:])

    @_codec
    @given(message=_messages())
    def test_legacy_frame_without_trace_decodes(self, message):
        # Frames from peers that predate the trace field decode cleanly:
        # the trace comes back None, everything else bit-exact.
        raw = encode_message(message)[4:]
        legacy = json.dumps(_scrub_trace(json.loads(raw))).encode("utf-8")
        decoded = decode_message(legacy)
        assert decoded.trace is None
        assert decoded.sender == message.sender
        assert decoded.kind == message.kind
        assert decoded.payload == message.payload
        assert decoded.op_id == message.op_id


#: Shard/epoch routing tags as the placement layer produces them.
_sub_requests = st.builds(
    SubRequest,
    key=_ids,
    message=_messages(),
    shard=st.one_of(st.none(), _ids),
    epoch=st.integers(min_value=0, max_value=2**31),
)


class TestBatchFrames:
    @_codec
    @given(subs=st.lists(st.tuples(_ids, _messages()), min_size=1, max_size=5))
    def test_batch_round_trip(self, subs):
        batch = make_batch("client", "server", subs)
        assert batch.kind == BATCH_KIND
        recovered = unpack_batch(batch)
        assert len(recovered) == len(subs)
        for (key, original), sub in zip(subs, recovered):
            assert key == sub.key
            # Bare (key, message) pairs coerce to untagged sub-requests.
            assert sub.shard is None and sub.epoch == 0
            restored = sub.message
            assert restored.receiver == "server"
            assert restored.sender == original.sender
            assert restored.kind == original.kind
            assert restored.payload == original.payload
            assert restored.op_id == original.op_id
            assert restored.round_trip == original.round_trip

    @_codec
    @given(subs=st.lists(st.tuples(_ids, _messages()), min_size=1, max_size=5))
    def test_batch_survives_the_wire(self, subs):
        encoded = encode_batch_frame("client", "server", subs)
        recovered = decode_batch_frame(encoded[4:])
        assert [sub.key for sub in recovered] == [key for key, _ in subs]
        for (_, original), sub in zip(subs, recovered):
            assert sub.message.payload == original.payload

    @_codec
    @given(subs=st.lists(_sub_requests, min_size=1, max_size=5))
    def test_epoch_tags_round_trip_sim_codec(self, subs):
        # The (shard, epoch) fence must survive pack/unpack bit-exactly:
        # a mangled tag would either bounce a fresh request or -- far worse
        # -- let a stale one through during a live resize.
        recovered = unpack_batch(make_batch("client", "server", subs))
        assert len(recovered) == len(subs)
        for original, restored in zip(subs, recovered):
            assert restored.key == original.key
            assert restored.shard == original.shard
            if original.shard is not None:
                assert restored.epoch == original.epoch
            assert restored.message.payload == original.message.payload
            assert restored.message.op_id == original.message.op_id
            assert restored.message.trace == original.message.trace

    @_codec
    @given(subs=st.lists(_sub_requests, min_size=1, max_size=5))
    def test_epoch_tags_round_trip_wire_codec(self, subs):
        encoded = encode_batch_frame("client", "server", subs)
        recovered = decode_batch_frame(encoded[4:])
        for original, restored in zip(subs, recovered):
            assert restored.shard == original.shard
            if original.shard is not None:
                assert restored.epoch == original.epoch
            assert restored.message.payload == original.message.payload
            assert restored.message.trace == original.message.trace

    @_codec
    @given(
        subs=st.lists(st.tuples(_ids, _messages()), min_size=1, max_size=4),
        missing=st.sets(st.integers(min_value=0, max_value=3)),
    )
    def test_batch_ack_round_trip_preserves_gaps(self, subs, missing):
        request = make_batch("client", "server", subs)
        replies = [
            (key, None if index in missing else sub.reply("ack", {"i": index}))
            for index, (key, sub) in enumerate(subs)
        ]
        ack = make_batch_ack(request, replies)
        assert ack.kind == BATCH_ACK_KIND
        # The ack also survives the wire codec.
        recovered = unpack_batch_ack(decode_message(encode_message(ack)[4:]))
        assert len(recovered) == len(subs)
        for index, (_, restored) in enumerate(recovered):
            if index in missing and index < len(subs):
                assert restored is None
            else:
                assert restored is not None
                assert restored.payload == {"i": index}

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            make_batch("client", "server", [])

    def test_unpack_wrong_kind_rejected(self):
        with pytest.raises(ValueError):
            unpack_batch(Message("a", "b", "query"))
        with pytest.raises(ValueError):
            unpack_batch_ack(Message("a", "b", "query"))


#: Forwarded rounds as the client drivers produce them for the ingress tier.
_proxy_subs = st.builds(
    ProxySubRequest,
    key=_ids,
    op_kind=st.sampled_from(["read", "write"]),
    kind=_ids,
    payload=_payloads,
    op_id=_ids,
    round_trip=st.integers(min_value=0, max_value=9),
    wait_for=st.one_of(st.none(), st.integers(min_value=1, max_value=9)),
    per_server=st.one_of(
        st.none(), st.dictionaries(_ids, _payloads, min_size=1, max_size=3)
    ),
    trace=st.one_of(st.none(), _ids),
)

#: Completed rounds as the proxy packs them: the quorum's replica replies.
_proxy_replies = st.builds(
    ProxySubReply,
    op_id=_ids,
    round_trip=st.integers(min_value=0, max_value=9),
    replies=st.tuples(*[_messages()] * 2) | st.tuples(_messages()) | st.just(()),
    error=st.one_of(st.none(), st.text(max_size=30)),
)


class TestProxyFrames:
    @_codec
    @given(subs=st.lists(_proxy_subs, min_size=1, max_size=5))
    def test_proxy_request_round_trip_sim_codec(self, subs):
        frame = make_proxy_request("client", "proxy", subs)
        assert frame.kind == PROXY_KIND
        assert frame.sender == "client"  # the identity proxies forward
        recovered = unpack_proxy_request(frame)
        assert recovered == subs  # NamedTuples: field-exact equality

    @_codec
    @given(subs=st.lists(_proxy_subs, min_size=1, max_size=5))
    def test_proxy_request_survives_the_wire(self, subs):
        encoded = encode_proxy_frame("client", "proxy", subs)
        recovered = decode_proxy_frame(encoded[4:])
        for original, restored in zip(subs, recovered):
            assert restored.key == original.key
            assert restored.op_kind == original.op_kind
            assert restored.kind == original.kind
            assert restored.payload == original.payload
            assert restored.op_id == original.op_id
            assert restored.round_trip == original.round_trip
            # The ack threshold and per-server payloads drive quorum safety;
            # a lossy round-trip here would corrupt routing silently.
            assert restored.wait_for == original.wait_for
            assert restored.per_server == original.per_server
            assert restored.trace == original.trace

    @_codec
    @given(subs=st.lists(_proxy_subs, min_size=1, max_size=5))
    def test_legacy_proxy_frame_without_trace_decodes(self, subs):
        raw = encode_proxy_frame("client", "proxy", subs)[4:]
        legacy = json.dumps(_scrub_trace(json.loads(raw))).encode("utf-8")
        recovered = decode_proxy_frame(legacy)
        for original, restored in zip(subs, recovered):
            assert restored.trace is None
            assert restored.key == original.key
            assert restored.payload == original.payload
            assert restored.op_id == original.op_id

    @_codec
    @given(sub_replies=st.lists(_proxy_replies, min_size=1, max_size=4))
    def test_proxy_ack_round_trip_sim_codec(self, sub_replies):
        ack = make_proxy_ack("proxy", "client", sub_replies)
        assert ack.kind == PROXY_ACK_KIND
        recovered = unpack_proxy_ack(ack)
        assert len(recovered) == len(sub_replies)
        for original, restored in zip(sub_replies, recovered):
            assert restored.op_id == original.op_id
            assert restored.round_trip == original.round_trip
            assert restored.error == original.error
            assert len(restored.replies) == len(original.replies)
            for sent, back in zip(original.replies, restored.replies):
                # Replica identity and payload are what the protocols read.
                assert back.sender == sent.sender
                assert back.kind == sent.kind
                assert back.payload == sent.payload
                # Routing identity is re-stamped from the sub-reply, so the
                # proxy's attempt-scoped internal ids can never leak out.
                assert back.op_id == original.op_id
                assert back.receiver == "client"

    @_codec
    @given(sub_replies=st.lists(_proxy_replies, min_size=1, max_size=4))
    def test_proxy_ack_survives_the_wire(self, sub_replies):
        encoded = encode_proxy_ack_frame("proxy", "client", sub_replies)
        recovered = decode_proxy_ack_frame(encoded[4:])
        for original, restored in zip(sub_replies, recovered):
            assert restored.op_id == original.op_id
            assert restored.error == original.error
            assert [r.payload for r in restored.replies] == \
                [r.payload for r in original.replies]

    def test_empty_proxy_frames_rejected(self):
        with pytest.raises(ValueError):
            make_proxy_request("client", "proxy", [])
        with pytest.raises(ValueError):
            make_proxy_ack("proxy", "client", [])

    def test_unpack_wrong_kind_rejected(self):
        with pytest.raises(ValueError):
            unpack_proxy_request(Message("a", "b", "query"))
        with pytest.raises(ValueError):
            unpack_proxy_ack(Message("a", "b", "query"))


#: Shard-map views as the control plane snapshots them for a push
#: (``ShardMap.view_snapshot``): routes keyed by exactly the ring's shards.
@st.composite
def _view_snapshots(draw):
    shard_ids = draw(st.lists(_ids, min_size=1, max_size=5, unique=True))
    routes = {
        shard_id: {
            "epoch": draw(st.integers(min_value=1, max_value=2**31)),
            "group": draw(_ids),
            "servers": draw(st.lists(_ids, min_size=1, max_size=4)),
            "quorum": draw(st.integers(min_value=1, max_value=4)),
        }
        for shard_id in shard_ids
    }
    return {
        "ring_epoch": draw(st.integers(min_value=1, max_value=2**31)),
        "virtual_nodes": draw(st.integers(min_value=1, max_value=128)),
        "shard_ids": shard_ids,
        "routes": routes,
    }


class TestViewPushFrames:
    @_codec
    @given(view=_view_snapshots())
    def test_view_push_round_trip_sim_codec(self, view):
        frame = make_view_push("control-plane", "p1", view)
        assert frame.kind == VIEW_PUSH_KIND
        # The routing state must survive bit-exactly: a mangled epoch would
        # either re-bounce fresh rounds or let stale ones through a fence.
        assert unpack_view_push(frame) == view

    @_codec
    @given(view=_view_snapshots())
    def test_view_push_survives_the_wire(self, view):
        encoded = encode_view_push_frame("control-plane", "p1", view)
        assert decode_view_push_frame(encoded[4:]) == view

    def test_incomplete_view_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            make_view_push("ctl", "p1", {"ring_epoch": 2})

    def test_unpack_wrong_kind_rejected(self):
        with pytest.raises(ValueError):
            unpack_view_push(Message("a", "b", "query"))


#: Register-state blobs as the drain carries them: per-key lists of JSON
#: dicts, one blob per donor replica the key was exported from.
_state_blobs = st.dictionaries(
    _ids,
    st.lists(st.dictionaries(st.text(max_size=8), _scalars, max_size=3),
             min_size=1, max_size=3),
    max_size=4,
)


class TestDrainFrames:
    @_codec
    @given(mig=_ids, token=_ids, shard=_ids,
           keys=st.lists(_ids, max_size=8))
    def test_drain_transfer_survives_the_wire(self, mig, token, shard, keys):
        encoded = encode_drain_transfer_frame(
            "control-plane", "g1-s1", mig, token, shard, keys
        )
        decoded = decode_drain_transfer_frame(encoded[4:])
        assert decoded["mig"] == mig
        assert decoded["token"] == token
        assert decoded["shard"] == shard
        assert decoded["keys"] == list(keys)

    @_codec
    @given(mig=_ids, token=_ids, shard=_ids,
           epoch=st.integers(min_value=1, max_value=2**31),
           keys=st.lists(_ids, max_size=8), states=_state_blobs)
    def test_drain_install_survives_the_wire(
        self, mig, token, shard, epoch, keys, states
    ):
        # The exported register blobs must survive bit-exactly: a mangled
        # timestamp or value inside a blob would corrupt the receiver's
        # absorbed state and break per-key atomicity after the cutover.
        encoded = encode_drain_install_frame(
            "control-plane", "g2-s1", mig, token, shard, epoch, keys, states
        )
        decoded = decode_drain_install_frame(encoded[4:])
        assert decoded["epoch"] == epoch
        assert decoded["keys"] == list(keys)
        assert decoded["states"] == states

    def test_unpack_wrong_kind_rejected(self):
        from repro.messages import unpack_drain_transfer

        with pytest.raises(ValueError, match="not a drain-transfer"):
            unpack_drain_transfer(Message("a", "b", "query"))

    def test_missing_field_rejected(self):
        from repro.messages import DRAIN_TRANSFER_KIND, unpack_drain_transfer

        with pytest.raises(ValueError, match="missing field"):
            unpack_drain_transfer(
                Message("a", "b", DRAIN_TRANSFER_KIND, {"mig": "m1"})
            )


#: Key sets as the lease protocol carries them (grants, invalidations and
#: releases all name at least one key).
_lease_keys = st.lists(_ids, min_size=1, max_size=8)
_lease_ttls = st.floats(min_value=0.001, max_value=1e6, allow_nan=False,
                        allow_infinity=False)


class TestLeaseFrames:
    @_codec
    @given(keys=_lease_keys, ttl=_lease_ttls)
    def test_grant_round_trip_sim_codec(self, keys, ttl):
        from repro.messages import (
            LEASE_GRANT_KIND, make_lease_grant, unpack_lease_grant,
        )

        nonces = [f"op-{i}/1" for i in range(len(keys))]
        frame = make_lease_grant("g1-s1", "p1", keys, ttl, nonces)
        assert frame.kind == LEASE_GRANT_KIND
        recovered = unpack_lease_grant(frame)
        assert recovered["keys"] == list(keys)
        assert recovered["ttl"] == ttl
        assert recovered["nonces"] == nonces

    @_codec
    @given(keys=_lease_keys, ttl=_lease_ttls)
    def test_grant_survives_the_wire(self, keys, ttl):
        from repro.asyncio_net.codec import (
            decode_lease_grant_frame, encode_lease_grant_frame,
        )

        # The ttl must survive bit-exactly: a proxy computing its
        # self-expiry point from a mangled ttl could serve a cached value
        # past the deadline the replicas unblock writers at.  The nonces
        # must survive too: a mangled nonce would make the proxy discount
        # (or worse, miscredit) the grant.
        nonces = [f"op-{i}/2" for i in range(len(keys))]
        encoded = encode_lease_grant_frame("g1-s1", "p1", keys, ttl, nonces)
        decoded = decode_lease_grant_frame(encoded[4:])
        assert decoded["keys"] == list(keys)
        assert decoded["ttl"] == ttl
        assert decoded["nonces"] == nonces

    @_codec
    @given(keys=_lease_keys)
    def test_invalidate_survives_the_wire(self, keys):
        from repro.asyncio_net.codec import (
            decode_lease_invalidate_frame, encode_lease_invalidate_frame,
        )
        from repro.messages import make_lease_invalidate, unpack_lease_invalidate

        frame = make_lease_invalidate("g1-s1", "p1", keys)
        assert unpack_lease_invalidate(frame)["keys"] == list(keys)
        encoded = encode_lease_invalidate_frame("g1-s1", "p1", keys)
        assert decode_lease_invalidate_frame(encoded[4:])["keys"] == list(keys)

    @_codec
    @given(keys=_lease_keys)
    def test_release_survives_the_wire(self, keys):
        from repro.asyncio_net.codec import (
            decode_lease_release_frame, encode_lease_release_frame,
        )
        from repro.messages import make_lease_release, unpack_lease_release

        frame = make_lease_release("p1", "g1-s1", keys)
        assert unpack_lease_release(frame)["keys"] == list(keys)
        encoded = encode_lease_release_frame("p1", "g1-s1", keys)
        assert decode_lease_release_frame(encoded[4:])["keys"] == list(keys)

    def test_empty_keys_rejected(self):
        from repro.messages import (
            make_lease_grant, make_lease_invalidate, make_lease_release,
        )

        with pytest.raises(ValueError, match="at least one key"):
            make_lease_grant("s", "p", [], 1.0, [])
        with pytest.raises(ValueError, match="at least one key"):
            make_lease_invalidate("s", "p", [])
        with pytest.raises(ValueError, match="at least one key"):
            make_lease_release("p", "s", [])

    def test_non_positive_ttl_rejected(self):
        from repro.messages import make_lease_grant

        with pytest.raises(ValueError, match="positive"):
            make_lease_grant("s", "p", ["k"], 0.0, ["n"])
        with pytest.raises(ValueError, match="positive"):
            make_lease_grant("s", "p", ["k"], -1.0, ["n"])

    def test_grant_misaligned_nonces_rejected(self):
        from repro.messages import make_lease_grant

        with pytest.raises(ValueError, match="one nonce per key"):
            make_lease_grant("s", "p", ["k1", "k2"], 1.0, ["n1"])

    def test_unpack_wrong_kind_rejected(self):
        from repro.messages import (
            unpack_lease_grant, unpack_lease_invalidate, unpack_lease_release,
        )

        for unpack in (unpack_lease_grant, unpack_lease_invalidate,
                       unpack_lease_release):
            with pytest.raises(ValueError, match="not a lease-"):
                unpack(Message("a", "b", "query"))

    def test_grant_missing_ttl_rejected(self):
        from repro.messages import LEASE_GRANT_KIND, unpack_lease_grant

        with pytest.raises(ValueError, match="missing field"):
            unpack_lease_grant(
                Message("a", "b", LEASE_GRANT_KIND, {"keys": ["k"]})
            )

    @_codec
    @given(subs=st.lists(_sub_requests, min_size=1, max_size=5))
    def test_leaseless_batches_stay_byte_identical(self, subs):
        # A batch whose subs never ask for a lease must encode exactly as
        # it did before the field existed: no "lease" key anywhere in the
        # frame (same cross-version property the trace field keeps).
        batch = make_batch(
            "client", "server", [sub._replace(lease=None) for sub in subs]
        )
        for op in json.loads(encode_message(batch)[4:])["payload"]["ops"]:
            assert "lease" not in op

    @_codec
    @given(subs=st.lists(_sub_requests, min_size=1, max_size=5))
    def test_lease_marked_subs_round_trip(self, subs):
        # The mark is the fill's nonce string; unmarked subs stay None.
        marked = [
            sub._replace(lease=f"op-{index}/7" if index % 2 == 0 else None)
            for index, sub in enumerate(subs)
        ]
        batch = make_batch("client", "server", marked)
        recovered = unpack_batch(decode_message(encode_message(batch)[4:]))
        assert [sub.lease for sub in recovered] == \
            [sub.lease for sub in marked]
