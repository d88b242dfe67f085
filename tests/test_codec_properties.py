"""Property-based round-trip tests for the asyncio wire codec.

Every message the transport can carry -- including the kv store's batch
frames -- must survive ``encode -> frame -> decode`` as the *same objects*,
because the asyncio backend and the simulator share protocol logic that
assumes a frame off the wire is indistinguishable from one handed over in
process.  Hypothesis generates adversarial senders, kinds and payload trees
(anything JSON can carry); the golden bytes pin the format itself, and the
fuzz at the bottom feeds the decoder bytes no encoder produced.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import messages
from repro.asyncio_net import codec
from repro.asyncio_net.codec import (
    MAX_FRAME_BYTES,
    FrameError,
    decode_message,
    encode_message,
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
    make_drain_install,
    make_drain_transfer,
    make_lease_invalidate,
    make_lease_release,
    make_proxy_ack,
    make_proxy_request,
    make_view_push,
    unpack_batch,
    unpack_batch_ack,
    unpack_drain_install,
    unpack_drain_transfer,
    unpack_lease_invalidate,
    unpack_lease_release,
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


#: Kinds whose payload the codec gives a shape (typed rows, or a checked dict):
#: each has its own strategy below.  Hypothesis seeds text from string
#: constants in the source, so free text *does* draw ``"batch-ack"``.
_SHAPED_KINDS = frozenset(codec._ROWS) | frozenset(codec._CHECKS)


def _messages():
    """Messages of free-form kinds: any payload dict is a valid payload."""
    return st.builds(
        Message,
        sender=_ids,
        receiver=_ids,
        kind=_ids.filter(lambda kind: kind not in _SHAPED_KINDS),
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


def _wire(message: Message) -> Message:
    """``message`` as the peer sees it: through the codec and back."""
    return decode_message(encode_message(message)[4:])


def _plain(value):
    """``value`` with every Message reduced to its fields and every tuple
    tagged with its type, so a NamedTuple record never equals a plain tuple
    or another record type of the same fields: two results are equal here
    exactly when they are the same objects."""
    if isinstance(value, Message):
        return ("Message", value.sender, value.receiver, value.kind,
                _plain(value.payload), value.op_id, value.round_trip, value.trace)
    if isinstance(value, tuple):
        return (type(value).__name__,) + tuple(_plain(item) for item in value)
    if isinstance(value, list):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value


def _replica_reply(server: str, request: Message, kind: str, payload=None) -> Message:
    """The reply replica ``server`` sends to ``request`` -- as itself, under
    the request's op id, round trip and trace (``ServerLogic.reply``)."""
    return Message(server, request.sender, kind, payload or {},
                   request.op_id, request.round_trip, trace=request.trace)


def _as_addressed(frame: Message) -> Message:
    """``frame`` with every sub-record's message addressed to the frame's
    receiver: the form the decoder rebuilds.

    The frame is addressed, its records are not: ``make_batch`` and
    ``make_batch_ack`` pack records as their builders addressed them (a
    round's group, a client behind a proxy), and no row of the wire carries
    a record's receiver.  A ``batch-ack`` row carries no trace either.
    Proxy frames come out of their builders in this form already.
    """
    def addressed(message: Message) -> Message:
        return dataclasses.replace(message, receiver=frame.receiver)

    payload = dict(frame.payload)
    if frame.kind == BATCH_KIND:
        payload["ops"] = [
            sub._replace(message=addressed(sub.message)) for sub in payload["ops"]
        ]
    elif frame.kind == BATCH_ACK_KIND:
        payload["acks"] = [
            None if reply is None
            else dataclasses.replace(addressed(reply), trace=None)
            for reply in payload["acks"]
        ]
    return dataclasses.replace(frame, payload=payload)


def _assert_same_across_the_wire(frame: Message, unpack) -> None:
    """The frame encodes to the bytes of its addressed form, and the peer
    unpacks the same records in every field but the receiver, which is the
    frame's on every record it decodes."""
    addressed = _as_addressed(frame)
    assert encode_message(frame) == encode_message(addressed)
    peer = _wire(frame)
    _assert_same_message(
        dataclasses.replace(frame, payload={}), dataclasses.replace(peer, payload={})
    )
    assert _plain(unpack(peer)) == _plain(unpack(addressed))


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

    @pytest.mark.parametrize(
        "message",
        [
            # The example hypothesis kept finding through the generic
            # strategy: a typed kind with a free-form payload.
            Message("a", "b", kind="batch-ack", payload={}),
            Message("a", "b", kind="batch", payload={"ops": [("k",)]}),
            Message("a", "b", kind="proxy", payload={"acks": []}),
            Message("a", "b", kind="proxy-ack", payload={"acks": [None]}),
        ],
        ids=lambda message: message.kind,
    )
    def test_typed_kind_with_a_misshapen_payload_is_a_frame_error(self, message):
        with pytest.raises(FrameError, match=repr(message.kind)):
            encode_message(message)

    @_codec
    @given(message=_messages())
    def test_envelope_is_one_positional_array(self, message):
        # The whole frame is one JSON array, the header fields first and in
        # this order; an unset trace travels as null, not as a missing key.
        body = json.loads(encode_message(message)[4:])
        assert body == [
            message.kind, message.sender, message.receiver, message.op_id,
            message.round_trip, message.trace, message.payload,
        ]

    @_codec
    @given(message=_messages())
    def test_v1_object_body_is_a_frame_error(self, message):
        # The object-form body of earlier checkouts is not a second format:
        # every process of a store is built from one checkout.
        v1 = {
            "sender": message.sender, "receiver": message.receiver,
            "kind": message.kind, "payload": message.payload,
            "op_id": message.op_id, "round_trip": message.round_trip,
            "msg_id": 7,
        }
        if message.trace is not None:
            v1["trace"] = message.trace
        with pytest.raises(FrameError):
            decode_message(json.dumps(v1).encode("utf-8"))


#: Shard/epoch routing tags as the placement layer produces them, with and
#: without a cache fill's lease mark.
_sub_requests = st.builds(
    SubRequest,
    key=_ids,
    message=_messages(),
    shard=st.one_of(st.none(), _ids),
    epoch=st.integers(min_value=0, max_value=2**31),
    lease=st.one_of(st.none(), _ids),
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
            # In process the record is the sender's own message, however it
            # is addressed: every field is the original's.
            assert sub.message is original
        # Off the wire, every record carries the frame's receiver.
        assert [sub.message.receiver for sub in unpack_batch(_wire(batch))] == \
            ["server"] * len(subs)

    @_codec
    @given(subs=st.lists(_sub_requests, min_size=1, max_size=5))
    def test_batch_carries_the_senders_own_objects(self, subs):
        # In process nothing is packed: a sub already addressed to the
        # frame's receiver *is* the record the receiver unpacks.
        addressed = [
            sub._replace(message=dataclasses.replace(sub.message, receiver="server"))
            for sub in subs
        ]
        recovered = unpack_batch(make_batch("client", "server", addressed))
        assert all(got is sent for got, sent in zip(recovered, addressed))

    @_codec
    @given(subs=st.lists(st.tuples(_ids, _messages()), min_size=1, max_size=5))
    def test_batch_survives_the_wire(self, subs):
        batch = make_batch("client", "server", subs)
        recovered = unpack_batch(_wire(batch))
        assert [sub.key for sub in recovered] == [key for key, _ in subs]
        for (_, original), sub in zip(subs, recovered):
            assert sub.message.payload == original.payload
            # The decoder addresses every record to the frame's receiver.
            assert sub.message.receiver == "server"
        _assert_same_across_the_wire(batch, unpack_batch)

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
        batch = make_batch("client", "server", subs)
        recovered = unpack_batch(_wire(batch))
        for original, restored in zip(subs, recovered):
            assert restored.shard == original.shard
            if original.shard is not None:
                assert restored.epoch == original.epoch
            assert restored.lease == original.lease
            assert restored.message.payload == original.message.payload
            assert restored.message.trace == original.message.trace
        _assert_same_across_the_wire(batch, unpack_batch)

    @_codec
    @given(
        subs=st.lists(st.tuples(_ids, _messages()), min_size=1, max_size=4),
        missing=st.sets(st.integers(min_value=0, max_value=3)),
    )
    def test_batch_ack_round_trip_preserves_gaps(self, subs, missing):
        request = make_batch("client", "server", subs)
        replies = [
            None if index in missing
            else _replica_reply("server", sub, "ack", {"i": index})
            for index, (_key, sub) in enumerate(subs)
        ]
        ack = make_batch_ack(request, replies)
        assert ack.kind == BATCH_ACK_KIND
        # In process the frame carries the replica's own list.
        assert unpack_batch_ack(ack) is replies
        # The ack also survives the wire codec.
        recovered = unpack_batch_ack(_wire(ack))
        assert len(recovered) == len(subs)
        for index, restored in enumerate(recovered):
            if index in missing and index < len(subs):
                assert restored is None
            else:
                assert restored is not None
                assert restored.payload == {"i": index}
                assert restored.sender == "server"
                # Whoever the per-key logic answered, the decoded reply is
                # addressed to the ack's receiver.
                assert restored.receiver == "client"
        # Gaps are None on both sides, replies the same objects.
        _assert_same_across_the_wire(ack, unpack_batch_ack)

    @_codec
    @given(subs=st.lists(st.tuples(_ids, _messages()), min_size=1, max_size=4),
           stranger=_ids.filter(lambda sender: sender != "server"))
    def test_batch_ack_with_a_reply_from_another_sender_is_a_frame_error(
        self, subs, stranger
    ):
        # The row carries no sender: the decoder names the frame's sender on
        # every reply, so the encoder refuses a reply it would misattribute.
        request = make_batch("client", "server", subs)
        replies = [_replica_reply("server", sub, "ack") for _key, sub in subs]
        replies[-1] = _replica_reply(stranger, subs[-1][1], "ack")
        with pytest.raises(FrameError, match="batch-ack"):
            encode_message(make_batch_ack(request, replies))

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
    # A shared link names each sub's session; a private one leaves it unset.
    client=st.one_of(st.none(), st.text(max_size=12)),
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
        frame = make_proxy_request("client", "proxy", subs)
        recovered = unpack_proxy_request(_wire(frame))
        assert recovered == subs  # NamedTuples: field-exact equality
        _assert_same_across_the_wire(frame, unpack_proxy_request)
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
            # Whom the replicas see as the round's sender.
            assert restored.client == original.client

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
        ack = make_proxy_ack("proxy", "client", sub_replies)
        recovered = unpack_proxy_ack(_wire(ack))
        for original, restored in zip(sub_replies, recovered):
            assert restored.op_id == original.op_id
            assert restored.error == original.error
            assert [r.payload for r in restored.replies] == \
                [r.payload for r in original.replies]
            # Attempt-scoped ids and traces of the proxy's own rounds never
            # cross: each reply carries the round's client-scoped identity.
            assert all(r.op_id == original.op_id for r in restored.replies)
            assert all(r.trace is None for r in restored.replies)
        _assert_same_across_the_wire(ack, unpack_proxy_ack)

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


_route_entries = st.fixed_dictionaries({
    "epoch": st.integers(min_value=1, max_value=2**31),
    "group": _ids,
    "servers": st.lists(_ids, min_size=1, max_size=4),
    "quorum": st.integers(min_value=1, max_value=4),
})


#: Routing deltas as the control plane pushes them (``ShardMap.view_delta``):
#: routes for the fenced, moved and added shards, ids for the removed ones.
@st.composite
def _view_deltas(draw):
    routes = draw(st.dictionaries(_ids, _route_entries, max_size=5))
    added = draw(st.lists(st.sampled_from(sorted(routes)), unique=True)
                 if routes else st.just([]))
    removed = draw(st.lists(_ids.filter(lambda shard_id: shard_id not in routes),
                            max_size=3, unique=True))
    base_ring_epoch = draw(st.integers(min_value=1, max_value=2**31))
    return {
        "ring_epoch": base_ring_epoch + draw(st.integers(min_value=0, max_value=1)),
        "base_ring_epoch": base_ring_epoch,
        "virtual_nodes": draw(st.integers(min_value=1, max_value=128)),
        "added": added,
        "removed": removed,
        "routes": routes,
    }


class TestViewPushFrames:
    @_codec
    @given(view=_view_deltas())
    def test_view_push_round_trip_sim_codec(self, view):
        frame = make_view_push("control-plane", "p1", view)
        assert frame.kind == VIEW_PUSH_KIND
        # The routing state must survive bit-exactly: a mangled epoch would
        # either re-bounce fresh rounds or let stale ones through a fence.
        assert unpack_view_push(frame) == view

    @_codec
    @given(view=_view_deltas())
    def test_view_push_survives_the_wire(self, view):
        frame = make_view_push("control-plane", "p1", view)
        assert unpack_view_push(_wire(frame)) == view
        _assert_same_across_the_wire(frame, unpack_view_push)

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
        frame = make_drain_transfer(
            "control-plane", "g1-s1", mig, token, shard, keys
        )
        decoded = unpack_drain_transfer(_wire(frame))
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
        frame = make_drain_install(
            "control-plane", "g2-s1", mig, token, shard, epoch, keys, states
        )
        decoded = unpack_drain_install(_wire(frame))
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


#: Key sets as the lease protocol carries them (invalidations and releases
#: name at least one key), and the grants a batch-ack carries.
_lease_keys = st.lists(_ids, min_size=1, max_size=8)
_grants = st.lists(st.tuples(_ids, _ids), min_size=1, max_size=8)


class TestLeaseFrames:
    @_codec
    @given(keys=_lease_keys)
    def test_invalidate_survives_the_wire(self, keys):
        frame = make_lease_invalidate("g1-s1", "p1", keys)
        assert unpack_lease_invalidate(frame)["keys"] == list(keys)
        assert unpack_lease_invalidate(_wire(frame))["keys"] == list(keys)

    @_codec
    @given(keys=_lease_keys)
    def test_release_survives_the_wire(self, keys):
        frame = make_lease_release("p1", "g1-s1", keys)
        assert unpack_lease_release(frame)["keys"] == list(keys)
        assert unpack_lease_release(_wire(frame))["keys"] == list(keys)

    def test_empty_keys_rejected(self):
        with pytest.raises(ValueError, match="at least one key"):
            make_lease_invalidate("s", "p", [])
        with pytest.raises(ValueError, match="at least one key"):
            make_lease_release("p", "s", [])

    def test_unpack_wrong_kind_rejected(self):
        for unpack in (unpack_lease_invalidate, unpack_lease_release):
            with pytest.raises(ValueError, match="not a lease-"):
                unpack(Message("a", "b", "query"))

    @_codec
    @given(subs=st.lists(_sub_requests, min_size=1, max_size=5))
    def test_lease_marked_subs_round_trip(self, subs):
        # The mark is the fill's nonce string; unmarked subs stay None.
        marked = [
            sub._replace(lease=f"op-{index}/7" if index % 2 == 0 else None)
            for index, sub in enumerate(subs)
        ]
        batch = make_batch("client", "server", marked)
        recovered = unpack_batch(_wire(batch))
        assert [sub.lease for sub in recovered] == \
            [sub.lease for sub in marked]


class TestLeaseTrafficOnBatchFrames:
    """Releases ride ``batch`` frames and grants ride ``batch-ack`` frames."""

    @_codec
    @given(subs=st.lists(_sub_requests, min_size=1, max_size=4),
           releases=st.one_of(st.none(), _lease_keys))
    def test_releases_survive_the_wire(self, subs, releases):
        batch = make_batch("proxy", "server", subs, releases)
        assert batch.payload.get("releases") == releases
        peer = _wire(batch)
        assert peer.payload.get("releases") == releases
        _assert_same_across_the_wire(batch, unpack_batch)

    @_codec
    @given(subs=st.lists(st.tuples(_ids, _messages()), min_size=1, max_size=4),
           grants=st.one_of(st.none(), _grants))
    def test_grants_survive_the_wire(self, subs, grants):
        # The nonces must survive bit-exactly: a mangled nonce would make
        # the proxy discount (or worse, miscredit) the grant.
        request = make_batch("proxy", "server", subs)
        ack = make_batch_ack(
            request, [_replica_reply("server", sub, "ack") for _key, sub in subs],
            grants,
        )
        assert ack.payload.get("grants") == grants
        peer = _wire(ack)
        assert peer.payload.get("grants") == grants
        _assert_same_across_the_wire(ack, unpack_batch_ack)

    @_codec
    @given(subs=st.lists(st.tuples(_ids, _messages()), min_size=1, max_size=4))
    def test_a_frame_without_lease_traffic_is_the_plain_seven_elements(self, subs):
        batch = make_batch("proxy", "server", subs)
        ack = make_batch_ack(batch, [None for _ in subs])
        for frame in (batch, ack):
            assert len(json.loads(encode_message(frame)[4:])) == 7
            assert encode_message(frame) == encode_message(_as_addressed(frame))
            assert _plain(_wire(frame).payload) == \
                _plain(_as_addressed(frame).payload)


# -- the format itself: golden bytes, wrong shapes, fuzz --------------------------


def _golden_frames():
    """One frame of every kind, built by ``make_*``."""
    query = Message("c1", "s1", "query", {"n": 1}, "c1-op1", 1, trace="t-1")
    subs = [
        SubRequest("kéy", query, "shard-0", 3, None),
        SubRequest("k2", Message("c1", "s1", "update",
                                 {"tag": [2, "c1"], "value": {"a": [1, None]}},
                                 "c1-op2", 2), "shard-1", 1, "p1#7"),
    ]
    batch = make_batch("c1", "s1", subs)
    replies = [query.reply("query-ack", {"tag": [0, ""], "value": None}), None]
    frames = {
        "plain": Message("c1", "s1", "query", {"n": 1}, "c1-op1", 1, trace="t-1"),
        "plain-untraced": Message("s1", "c1", "query-ack", {}),
        BATCH_KIND: batch,
        "batch-with-releases": make_batch("p1", "s1", subs[:1], ["k", "k2"]),
        BATCH_ACK_KIND: make_batch_ack(batch, replies),
        "batch-ack-with-grants": make_batch_ack(batch, replies, [("kéy", "p1#7")]),
        PROXY_KIND: make_proxy_request("c1", "p1", [
            ProxySubRequest("k", "read", "query", {}, "c1-op1@0", 1, trace="t-1"),
            ProxySubRequest("k2", "write", "update", {"value": "v"}, "c1-op2@0", 2,
                            wait_for=2, per_server={"s1": {"value": "w"}},
                            client="c2"),
        ]),
        PROXY_ACK_KIND: make_proxy_ack("p1", "c1", [
            ProxySubReply("c1-op1@0", 1, (
                Message("s1", "p1", "query-ack", {"value": 1}, "c1-op1@0#2", 1),
                Message("s2", "p1", "query-ack", {"value": 1}, "c1-op1@0#2", 1),
            )),
            ProxySubReply("c1-op2@0", 2, (), "shard map never converged"),
        ]),
        VIEW_PUSH_KIND: make_view_push("control-plane", "p1", {
            "ring_epoch": 2, "base_ring_epoch": 1, "virtual_nodes": 8,
            "added": ["shard-1"], "removed": ["shard-9"],
            "routes": {"shard-0": {"epoch": 3, "group": "g2",
                                   "servers": ["s4"], "quorum": 1},
                       "shard-1": {"epoch": 1, "group": "g1",
                                   "servers": ["s1"], "quorum": 1}},
        }),
        messages.DRAIN_FENCE_KIND: messages.make_drain_fence(
            "control-plane", "s1", "mig-1", "tok-1", "shard-0", 4),
        messages.DRAIN_HOST_KIND: messages.make_drain_host(
            "control-plane", "s4", "mig-1", "tok-2", "shard-0", 4, ["k"]),
        messages.DRAIN_TRANSFER_KIND: make_drain_transfer(
            "control-plane", "s1", "mig-1", "tok-3", "shard-0", ["k"]),
        messages.DRAIN_INSTALL_KIND: make_drain_install(
            "control-plane", "s4", "mig-1", "tok-4", "shard-0", 4, ["k"],
            {"k": [{"tag": [1, "c1"], "value": "v"}]}),
        messages.DRAIN_COMPLETE_KIND: messages.make_drain_complete(
            "control-plane", "s1", "mig-1", "tok-5", "shard-0", ["k"], evict=True),
        messages.LEASE_INVALIDATE_KIND: make_lease_invalidate("s1", "p1", ["k"]),
        messages.LEASE_RELEASE_KIND: make_lease_release("p1", "s1", ["k", "k2"]),
    }
    return frames


#: The exact body of each golden frame.  A change to the wire format edits
#: these bytes on purpose; nothing else may.
GOLDEN_BODIES = {
    "plain": (
        b'["query","c1","s1","c1-op1",1,"t-1",{"n":1}]'
    ),
    "plain-untraced": (
        b'["query-ack","s1","c1",null,0,null,{}]'
    ),
    "batch": (
        b'["batch","c1","s1",null,0,null,[["k\\u00e9y","c1","query",{"n":1},"c1-'
        b'op1",1,"t-1","shard-0",3,null],["k2","c1","update",{"tag":[2,"c1"],"va'
        b'lue":{"a":[1,null]}},"c1-op2",2,null,"shard-1",1,"p1#7"]]]'
    ),
    "batch-with-releases": (
        b'["batch","p1","s1",null,0,null,[["k\\u00e9y","c1","query",{"n":1},"c1-'
        b'op1",1,"t-1","shard-0",3,null]],["k","k2"]]'
    ),
    "batch-ack": (
        b'["batch-ack","s1","c1",null,0,null,[["query-ack",{"tag":[0,""],"value"'
        b':null},"c1-op1",1],null]]'
    ),
    "batch-ack-with-grants": (
        b'["batch-ack","s1","c1",null,0,null,[["query-ack",{"tag":[0,""],"value"'
        b':null},"c1-op1",1],null],[["k\\u00e9y","p1#7"]]]'
    ),
    "proxy": (
        b'["proxy","c1","p1",null,0,null,[["k","read","query",{},"c1-op1@0",1,nu'
        b'll,null,"t-1",null],["k2","write","update",{"value":"v"},"c1-op2@0",2,'
        b'2,{"s1":{"value":"w"}},null,"c2"]]]'
    ),
    "proxy-ack": (
        b'["proxy-ack","p1","c1",null,0,null,[["c1-op1@0",1,[["s1","query-ack",{'
        b'"value":1}],["s2","query-ack",{"value":1}]],null],["c1-op2@0",2,[],"sh'
        b'ard map never converged"]]]'
    ),
    "view-push": (
        b'["view-push","control-plane","p1",null,0,null,{"view":{"ring_epoch":2,'
        b'"base_ring_epoch":1,"virtual_nodes":8,"added":["shard-1"],"removed":["'
        b'shard-9"],"routes":{"shard-0":{"epoch":3,"group":"g2","servers":["s4"]'
        b',"quorum":1},"shard-1":{"epoch":1,"group":"g1","servers":["s1"],"quoru'
        b'm":1}}}}]'
    ),
    "drain-fence": (
        b'["drain-fence","control-plane","s1",null,0,null,{"mig":"mig-1","token"'
        b':"tok-1","shard":"shard-0","epoch":4}]'
    ),
    "drain-host": (
        b'["drain-host","control-plane","s4",null,0,null,{"mig":"mig-1","token":'
        b'"tok-2","shard":"shard-0","epoch":4,"keys":["k"]}]'
    ),
    "drain-transfer": (
        b'["drain-transfer","control-plane","s1",null,0,null,{"mig":"mig-1","tok'
        b'en":"tok-3","shard":"shard-0","keys":["k"]}]'
    ),
    "drain-install": (
        b'["drain-install","control-plane","s4",null,0,null,{"mig":"mig-1","toke'
        b'n":"tok-4","shard":"shard-0","epoch":4,"keys":["k"],"states":{"k":[{"t'
        b'ag":[1,"c1"],"value":"v"}]}}]'
    ),
    "drain-complete": (
        b'["drain-complete","control-plane","s1",null,0,null,{"mig":"mig-1","tok'
        b'en":"tok-5","shard":"shard-0","drop_keys":["k"],"evict":true}]'
    ),
    "lease-invalidate": (
        b'["lease-invalidate","s1","p1",null,0,null,{"keys":["k"]}]'
    ),
    "lease-release": (
        b'["lease-release","p1","s1",null,0,null,{"keys":["k","k2"]}]'
    ),
}


#: What must unpack cleanly for each kind the engines index into.
UNPACKERS = {
    BATCH_KIND: unpack_batch,
    BATCH_ACK_KIND: unpack_batch_ack,
    PROXY_KIND: unpack_proxy_request,
    PROXY_ACK_KIND: unpack_proxy_ack,
    VIEW_PUSH_KIND: unpack_view_push,
    messages.DRAIN_FENCE_KIND: messages.unpack_drain_fence,
    messages.DRAIN_HOST_KIND: messages.unpack_drain_host,
    messages.DRAIN_TRANSFER_KIND: unpack_drain_transfer,
    messages.DRAIN_INSTALL_KIND: unpack_drain_install,
    messages.DRAIN_COMPLETE_KIND: messages.unpack_drain_complete,
    messages.LEASE_INVALIDATE_KIND: unpack_lease_invalidate,
    messages.LEASE_RELEASE_KIND: unpack_lease_release,
}


class TestGoldenBytes:
    @pytest.mark.parametrize("name", sorted(_golden_frames()))
    def test_frame_encodes_to_its_golden_bytes(self, name):
        frame = _golden_frames()[name]
        encoded = encode_message(frame)
        assert encoded[4:] == GOLDEN_BODIES[name]
        assert int.from_bytes(encoded[:4], "big") == len(GOLDEN_BODIES[name])

    @pytest.mark.parametrize("name", sorted(_golden_frames()))
    def test_golden_bytes_decode_to_the_frame(self, name):
        frame = _golden_frames()[name]
        decoded = decode_message(GOLDEN_BODIES[name])
        addressed = _as_addressed(frame)
        unpack = UNPACKERS.get(frame.kind, lambda message: message.payload)
        assert _plain(unpack(decoded)) == _plain(unpack(addressed))
        assert _plain(decoded.payload) == _plain(addressed.payload)
        _assert_same_message(
            dataclasses.replace(frame, payload={}),
            dataclasses.replace(decoded, payload={}),
        )

    def test_every_kind_has_a_golden(self):
        assert set(UNPACKERS) <= set(_golden_frames())
        assert set(GOLDEN_BODIES) == set(_golden_frames())


# -- the encoder: the bytes json.dumps would write ----------------------------------

#: Values the encoder must write exactly as ``json.dumps`` does: any text
#: (non-ASCII escaped), any float -- NaN and both infinities included.
_wide_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=20),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), "ключ", "é\u2028\x00", "\U0001f642"]),
)
_wide_values = st.recursive(
    _wide_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=10), children, max_size=4),
    ),
    max_leaves=12,
)
_wide_payloads = st.dictionaries(st.text(max_size=12), _wide_values, max_size=5)
_texts = st.text(max_size=12)
_wide_messages = st.builds(
    Message,
    sender=_texts,
    receiver=_texts,
    kind=_texts.filter(lambda kind: kind not in _SHAPED_KINDS),
    payload=_wide_payloads,
    op_id=st.one_of(st.none(), _texts),
    round_trip=st.integers(min_value=0, max_value=9),
    trace=st.one_of(st.none(), _texts),
)


@st.composite
def _frames_of_every_kind(draw):
    """A frame of a drawn kind -- free-form, the four typed kinds with and
    without lease traffic, lease and drain frames, or any golden frame --
    carrying wide payloads wherever the kind has free-form values."""
    kind = draw(st.sampled_from(
        ["free", BATCH_KIND, BATCH_ACK_KIND, PROXY_KIND, PROXY_ACK_KIND,
         "lease", "drain", "golden"]
    ))
    if kind == "free":
        return draw(_wide_messages)
    if kind in (BATCH_KIND, BATCH_ACK_KIND):
        subs = draw(st.lists(st.builds(
            SubRequest, key=_texts, message=_wide_messages,
            shard=st.one_of(st.none(), _texts),
            epoch=st.integers(min_value=0, max_value=2**31),
            lease=st.one_of(st.none(), _texts),
        ), min_size=1, max_size=4))
        releases = draw(st.one_of(st.none(), st.lists(_texts, min_size=1, max_size=3)))
        batch = make_batch("c1", "s1", subs, releases)
        if kind == BATCH_KIND:
            return batch
        replies = [
            draw(st.one_of(st.none(), st.builds(
                _replica_reply, st.just("s1"), st.just(sub.message), _texts,
                _wide_payloads,
            )))
            for sub in subs
        ]
        grants = draw(st.one_of(
            st.none(), st.lists(st.tuples(_texts, _texts), min_size=1, max_size=3)
        ))
        return make_batch_ack(batch, replies, grants)
    if kind == PROXY_KIND:
        return make_proxy_request("c1", "p1", draw(st.lists(st.builds(
            ProxySubRequest, key=_texts, op_kind=st.sampled_from(["read", "write"]),
            kind=_texts, payload=_wide_payloads, op_id=_texts,
            round_trip=st.integers(min_value=0, max_value=9),
            wait_for=st.one_of(st.none(), st.integers(min_value=1, max_value=9)),
            per_server=st.one_of(
                st.none(), st.dictionaries(_texts, _wide_payloads, min_size=1, max_size=2)
            ),
            trace=st.one_of(st.none(), _texts), client=st.one_of(st.none(), _texts),
        ), min_size=1, max_size=4)))
    if kind == PROXY_ACK_KIND:
        return make_proxy_ack("p1", "c1", draw(st.lists(st.builds(
            ProxySubReply, op_id=_texts, round_trip=st.integers(min_value=0, max_value=9),
            replies=st.lists(_wide_messages, max_size=2).map(tuple),
            error=st.one_of(st.none(), _texts),
        ), min_size=1, max_size=3)))
    if kind == "lease":
        make = draw(st.sampled_from([make_lease_invalidate, make_lease_release]))
        return make("s1", "p1", draw(st.lists(_texts, min_size=1, max_size=4)))
    if kind == "drain":
        keys = draw(st.lists(_texts, min_size=1, max_size=3, unique=True))
        return make_drain_install("control-plane", "s4", "mig-1", "tok-4", "shard-0", 4, keys, {
            key: [{"tag": [1, "c1"], "value": draw(_wide_values)}] for key in keys
        })
    return draw(st.sampled_from(sorted(_golden_frames().items())))[1]


def _json_dumps_body(frame: Message) -> bytes:
    """The body of ``frame`` as ``json.dumps(..., separators=(",", ":"))``
    writes it: the envelope of the module notes, typed payloads as rows."""
    envelope = [frame.kind, frame.sender, frame.receiver, frame.op_id,
                frame.round_trip, frame.trace, frame.payload]
    rows = codec._ROWS.get(frame.kind)
    if rows is not None:
        to_rows, _, field = rows
        envelope[6] = to_rows(frame.sender, frame.payload)
        if field is not None and frame.payload.get(field) is not None:
            envelope.append(frame.payload[field])
    return json.dumps(envelope, separators=(",", ":")).encode("utf-8")


@contextlib.contextmanager
def _json_encoder(c_encoder: bool):
    """The codec over json's C encoder, or built as on a Python without one
    (which makes ``json.dumps`` itself the pure-Python encoder too)."""
    if c_encoder:
        assert json.encoder.c_make_encoder is not None
        yield
        return
    with mock.patch.object(json.encoder, "c_make_encoder", None):
        with mock.patch.object(codec, "_dumps", codec._json_dumps()):
            assert codec._dumps.__func__ is json.JSONEncoder.encode
            yield


class TestEncoderBytes:
    @pytest.mark.parametrize("c_encoder", [True, False], ids=["c-encoder", "no-c-encoder"])
    def test_every_kind_encodes_to_the_bytes_of_json_dumps(self, c_encoder):
        @_codec
        @given(frame=_frames_of_every_kind())
        def encodes_as_json_dumps(frame):
            encoded = encode_message(frame)
            assert encoded[4:] == _json_dumps_body(frame)
            assert int.from_bytes(encoded[:4], "big") == len(encoded) - 4

        with _json_encoder(c_encoder):
            encodes_as_json_dumps()

    @pytest.mark.parametrize("c_encoder", [True, False], ids=["c-encoder", "no-c-encoder"])
    def test_the_golden_bytes_stand_on_either_encoder(self, c_encoder):
        with _json_encoder(c_encoder):
            for name, frame in _golden_frames().items():
                assert encode_message(frame)[4:] == GOLDEN_BODIES[name], name

    def test_an_unencodable_value_is_a_type_error_as_from_json_dumps(self):
        frame = Message("c1", "s1", "query", {"value": object()})
        with pytest.raises(TypeError, match="not JSON serializable"):
            encode_message(frame)


def _envelope(kind, payload, sender="c9", receiver="s1", *lease):
    """A body of ``kind``, ending in ``lease`` (a batch frame's lease traffic)."""
    return json.dumps([kind, sender, receiver, None, 0, None, payload, *lease]).encode()


_SUB_ROW = ["k", "c9", "query", {}, "op", 1, None, "shard-0", 1, None]

#: Bodies that are valid JSON of the wrong shape.  The first four are the
#: object-form probes that used to decode and then raise inside an engine;
#: the rest are the same mistakes (and their neighbours) in the array form.
WRONG_SHAPES = {
    "v1-ops-not-a-list": b'{"sender":"c9","receiver":"s1","kind":"batch",'
                         b'"payload":{"ops":5}}',
    "v1-sub-without-sender": b'{"sender":"c9","receiver":"s1","kind":"batch",'
                             b'"payload":{"ops":[{"key":"k"}]}}',
    "v1-payload-a-list": b'{"sender":"c9","receiver":"s1","kind":"query",'
                         b'"payload":[]}',
    "v1-release-without-keys": b'{"sender":"p9","receiver":"s1",'
                               b'"kind":"lease-release","payload":{}}',
    "ops-not-a-list": _envelope("batch", 5),
    "ops-an-object": _envelope("batch", {"ops": [_SUB_ROW]}),
    "short-sub-row": _envelope("batch", [["k"]]),
    "long-sub-row": _envelope("batch", [_SUB_ROW + [None]]),
    "sub-row-a-string": _envelope("batch", ["0123456789"]),
    "sub-row-an-object": _envelope("batch", [dict.fromkeys("0123456789")]),
    "ops-a-string": _envelope("batch", "0123456789"),
    "envelope-a-string": b'"01234567"',
    "envelope-an-object": json.dumps(dict.fromkeys("01234567")).encode(),
    "trailing-bytes": _envelope("query", {}) + b" ",
    "null-sub-row": _envelope("batch", [None]),
    "sub-key-not-a-string": _envelope("batch", [[["k"]] + _SUB_ROW[1:]]),
    "sub-op-id-a-list": _envelope("batch", [_SUB_ROW[:4] + [["op"]] + _SUB_ROW[5:]]),
    "sub-epoch-a-string": _envelope("batch", [_SUB_ROW[:8] + ["1", None]]),
    "sub-round-trip-a-bool": _envelope("batch", [_SUB_ROW[:5] + [True] + _SUB_ROW[6:]]),
    "sub-payload-a-list": _envelope("batch", [_SUB_ROW[:3] + [[]] + _SUB_ROW[4:]]),
    "ack-row-short": _envelope("batch-ack", [["ack", {}, "op"]]),
    "ack-row-with-key-sender-and-trace": _envelope(
        "batch-ack", [["k", "s1", "ack", {}, "op", 1, None]]),
    "ack-row-payload-a-list": _envelope("batch-ack", [["ack", [], "op", 1]]),
    "acks-an-object": _envelope("batch-ack", {"acks": []}),
    "proxy-row-short": _envelope("proxy", [["k", "read", "query", {}, "op", 1]]),
    "proxy-row-without-client": _envelope(
        "proxy", [["k", "read", "query", {}, "op", 1, None, None, None]]),
    "proxy-op-id-null": _envelope(
        "proxy", [["k", "read", "query", {}, None, 1, None, None, None, None]]),
    "proxy-per-server-of-lists": _envelope(
        "proxy", [["k", "read", "query", {}, "op", 1, None, {"s1": []}, None, None]]),
    "proxy-client-a-number": _envelope(
        "proxy", [["k", "read", "query", {}, "op", 1, None, None, None, 5]]),
    "proxy-client-a-list": _envelope(
        "proxy", [["k", "read", "query", {}, "op", 1, None, None, None, ["c2"]]]),
    "proxy-ack-replies-null": _envelope("proxy-ack", [["op", 1, None, None]]),
    "proxy-ack-reply-short": _envelope("proxy-ack", [["op", 1, [["s1", "ack"]], None]]),
    "payload-a-list": _envelope("query", []),
    "payload-null": _envelope("query", None),
    "release-without-keys": _envelope("lease-release", {}, sender="p9"),
    "release-keys-a-number": _envelope("lease-release", {"keys": 5}, sender="p9"),
    "release-key-a-list": _envelope("lease-release", {"keys": [["k"]]}, sender="p9"),
    "batch-releases-a-number": _envelope("batch", [_SUB_ROW], "c9", "s1", 5),
    "batch-release-a-list": _envelope("batch", [_SUB_ROW], "c9", "s1", [["k"]]),
    "batch-releases-null": _envelope("batch", [_SUB_ROW], "c9", "s1", None),
    "batch-ack-grant-unpaired": _envelope("batch-ack", [None], "c9", "s1", [["k"]]),
    "batch-ack-grant-a-string": _envelope("batch-ack", [None], "c9", "s1", ["kn"]),
    "batch-ack-nonce-a-number": _envelope("batch-ack", [None], "c9", "s1", [["k", 7]]),
    "batch-ack-grants-an-object": _envelope("batch-ack", [None], "c9", "s1", {"k": "n"}),
    "proxy-with-releases": _envelope(
        "proxy", [["k", "read", "query", {}, "op", 1, None, None, None, None]],
        "c9", "s1", ["k"]),
    "batch-ten-fields": _envelope("batch", [_SUB_ROW], "c9", "s1", ["k"], None),
    "fence-without-epoch": _envelope(
        "drain-fence", {"mig": "m", "token": "t", "shard": "s"}),
    "transfer-without-token": _envelope(
        "drain-transfer", {"mig": "m", "shard": "s", "keys": []}),
    "push-without-view": _envelope("view-push", {}),
    "push-view-incomplete": _envelope("view-push", {"view": {"ring_epoch": 2}}),
    "push-route-a-number": _envelope("view-push", {"view": {
        "ring_epoch": 2, "base_ring_epoch": 1, "virtual_nodes": 64,
        "added": ["sh9"], "removed": [], "routes": {"sh9": 5}}}),
    "push-epoch-a-string": _envelope("view-push", {"view": {
        "ring_epoch": "2", "base_ring_epoch": 1, "virtual_nodes": 64,
        "added": [7], "removed": [], "routes": {}}}),
    "push-added-without-route": _envelope("view-push", {"view": {
        "ring_epoch": 2, "base_ring_epoch": 1, "virtual_nodes": 64,
        "added": ["sh9"], "removed": [], "routes": {}}}),
    "six-fields": json.dumps(["query", "c9", "s1", None, 0, None]).encode(),
    "nine-fields": json.dumps(["query", "c9", "s1", None, 0, 1, None, {}, 0]).encode(),
    "envelope-with-a-msg-id": json.dumps(
        ["query", "c9", "s1", None, 0, 1, None, {}]).encode(),
    "batch-ack-envelope-with-a-msg-id": json.dumps(
        ["batch-ack", "s1", "c9", None, 0, 1, None, [None]]).encode(),
    "sender-a-number": json.dumps(["query", 9, "s1", None, 0, None, {}]).encode(),
    "round-trip-a-string": json.dumps(
        ["query", "c9", "s1", None, "0", None, {}]).encode(),
    "trace-an-object": json.dumps(["query", "c9", "s1", None, 0, {}, {}]).encode(),
}


class TestWrongShapes:
    @pytest.mark.parametrize("name", sorted(WRONG_SHAPES))
    def test_wrong_shape_is_a_frame_error(self, name):
        with pytest.raises(FrameError):
            decode_message(WRONG_SHAPES[name])


#: Envelopes a confused or hostile peer could send: the right arity and a
#: kind the engines know, everything else arbitrary JSON.
_near_envelopes = st.tuples(
    st.sampled_from(sorted(UNPACKERS) + ["query", "stale-shard"]),
    _json_values, _json_values, _json_values, _json_values, _json_values,
    _json_values, st.lists(_json_values, max_size=1),
).map(lambda cells: list(cells[:-1]) + cells[-1])

#: Typed-row envelopes with one cell of one valid row replaced by arbitrary
#: JSON: the mutations closest to frames that do decode.
@st.composite
def _mutated_goldens(draw):
    name = draw(st.sampled_from(sorted(GOLDEN_BODIES)))
    body = json.loads(GOLDEN_BODIES[name])
    target = body
    # Walk a random path into the body, then overwrite what is there.
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if isinstance(target, list) and target:
            index = draw(st.integers(min_value=0, max_value=len(target) - 1))
        elif isinstance(target, dict) and target:
            index = draw(st.sampled_from(sorted(target)))
        else:
            break
        if isinstance(target[index], (list, dict)) and draw(st.booleans()):
            target = target[index]
        else:
            target[index] = draw(_json_values)
            break
    return body


class TestDecoderFuzz:
    """Whatever arrives, ``decode_message`` raises ``FrameError`` or returns
    a frame its ``unpack_*`` accepts -- nothing else reaches an engine."""

    @staticmethod
    def _decodes_or_frame_error(body: bytes) -> None:
        try:
            message = decode_message(body)
        except FrameError:
            return
        assert isinstance(message, Message)
        assert isinstance(message.payload, dict)
        unpack = UNPACKERS.get(message.kind)
        if unpack is not None:
            records = unpack(message)
            assert isinstance(records, (list, dict))
        # What decoded is what this codec would have sent.
        assert _plain(_wire(message)) == _plain(message)

    @settings(max_examples=300, deadline=None)
    @given(body=st.binary(max_size=200))
    def test_arbitrary_bytes(self, body):
        self._decodes_or_frame_error(body)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(value=st.one_of(_json_values, _near_envelopes, _mutated_goldens()))
    def test_arbitrary_json(self, value):
        self._decodes_or_frame_error(json.dumps(value).encode("utf-8"))
