"""Unit and property tests for tags and timestamps."""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.core.timestamps import (
    BOTTOM_TAG,
    BOTTOM_WRITER,
    INITIAL_VALUE,
    Tag,
    TaggedValue,
    max_tag,
    next_tag,
)


class TestTagBasics:
    def test_bottom_tag_is_bottom(self):
        assert BOTTOM_TAG.is_bottom
        assert BOTTOM_TAG.ts == 0
        assert BOTTOM_TAG.wid == BOTTOM_WRITER

    def test_non_bottom_tag(self):
        assert not Tag(0, "w1").is_bottom
        assert not Tag(1, BOTTOM_WRITER).is_bottom

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError):
            Tag(-1, "w1")

    def test_equality_and_hash(self):
        assert Tag(3, "w1") == Tag(3, "w1")
        assert Tag(3, "w1") != Tag(3, "w2")
        assert hash(Tag(3, "w1")) == hash(Tag(3, "w1"))
        assert len({Tag(1, "w1"), Tag(1, "w1"), Tag(1, "w2")}) == 2

    def test_equality_against_other_types(self):
        assert Tag(1, "w1") != "not-a-tag"
        assert not (Tag(1, "w1") == 42)


class TestTagOrdering:
    def test_timestamp_dominates(self):
        assert Tag(1, "w9") < Tag(2, "w1")

    def test_writer_breaks_ties(self):
        assert Tag(2, "w1") < Tag(2, "w2")

    def test_bottom_smallest(self):
        assert BOTTOM_TAG < Tag(0, "w1")
        assert BOTTOM_TAG < Tag(1, "w1")

    def test_total_order_operators(self):
        a, b = Tag(1, "w1"), Tag(1, "w2")
        assert a < b and a <= b and b > a and b >= a

    def test_successor(self):
        assert Tag(4, "w1").successor("w2") == Tag(5, "w2")

    def test_successor_is_strictly_larger(self):
        tag = Tag(7, "w9")
        assert tag.successor("w1") > tag


class TestTaggedValue:
    def test_ordering_by_tag_only(self):
        assert TaggedValue(Tag(1, "w1"), "zzz") < TaggedValue(Tag(2, "w1"), "aaa")

    def test_equality_ignores_payload(self):
        assert TaggedValue(Tag(1, "w1"), "a") == TaggedValue(Tag(1, "w1"), "b")

    def test_initial_value(self):
        assert INITIAL_VALUE.is_initial
        assert not TaggedValue(Tag(1, "w1"), "x").is_initial

    def test_hashable(self):
        assert len({TaggedValue(Tag(1, "w1"), "a"), TaggedValue(Tag(1, "w1"), "b")}) == 1


class TestMaxAndNext:
    def test_max_tag_empty_defaults_to_bottom(self):
        assert max_tag([]) == BOTTOM_TAG

    def test_max_tag_custom_default(self):
        assert max_tag([], default=Tag(5, "w1")) == Tag(5, "w1")

    def test_max_tag_picks_largest(self):
        tags = [Tag(1, "w2"), Tag(3, "w1"), Tag(3, "w2"), Tag(2, "w9")]
        assert max_tag(tags) == Tag(3, "w2")

    def test_next_tag_increments_max(self):
        tags = [Tag(1, "w1"), Tag(4, "w2")]
        assert next_tag(tags, "w3") == Tag(5, "w3")

    def test_next_tag_from_nothing(self):
        assert next_tag([], "w1") == Tag(1, "w1")


tag_strategy = st.builds(
    Tag,
    ts=st.integers(min_value=0, max_value=1000),
    wid=st.sampled_from(["", "w1", "w2", "w3", "w10"]),
)


class TestTagProperties:
    @given(tag_strategy, tag_strategy)
    def test_total_order(self, a, b):
        assert (a < b) or (b < a) or (a == b)

    @given(tag_strategy, tag_strategy, tag_strategy)
    def test_transitivity(self, a, b, c):
        if a < b and b < c:
            assert a < c

    @given(tag_strategy, st.sampled_from(["w1", "w2", "w5"]))
    def test_successor_dominates_everything_seen(self, tag, wid):
        assert tag.successor(wid) > tag

    @given(st.lists(tag_strategy, min_size=1, max_size=20))
    def test_max_tag_is_upper_bound(self, tags):
        top = max_tag(tags)
        assert all(t <= top for t in tags)
        assert top in tags

    @given(st.lists(tag_strategy, max_size=20), st.sampled_from(["w1", "w2"]))
    def test_next_tag_strictly_dominates_observed(self, tags, wid):
        new = next_tag(tags, wid)
        assert all(new > t for t in tags)


#: Few timestamps and short writer ids, so ties on ``ts`` are common.
close_tags = st.builds(
    Tag, ts=st.integers(min_value=0, max_value=3), wid=st.text(max_size=3)
)
non_tags = st.one_of(
    st.none(),
    st.integers(),
    st.text(max_size=5),
    st.tuples(st.integers(min_value=0, max_value=3), st.text(max_size=3)),
)


class TestTagValueType:
    """``Tag`` is an immutable value ordered exactly as its ``(ts, wid)``."""

    @given(close_tags, close_tags)
    def test_operators_and_hash_agree_with_the_tuple_order(self, a, b):
        ta, tb = (a.ts, a.wid), (b.ts, b.wid)
        assert (a < b) == (ta < tb)
        assert (a <= b) == (ta <= tb)
        assert (a > b) == (ta > tb)
        assert (a >= b) == (ta >= tb)
        assert (a == b) == (ta == tb)
        assert (a != b) == (ta != tb)
        if a == b:
            assert hash(a) == hash(b)

    @given(close_tags)
    def test_bottom_is_the_least_tag(self, tag):
        assert BOTTOM_TAG <= tag
        assert not tag < BOTTOM_TAG
        assert (BOTTOM_TAG == tag) == tag.is_bottom

    @given(close_tags, non_tags)
    def test_never_equal_to_a_non_tag(self, tag, other):
        assert not tag == other
        assert tag != other
        assert tag != (tag.ts, tag.wid)
        with pytest.raises(TypeError):
            tag < (tag.ts, tag.wid)

    def test_fields_cannot_be_assigned_or_deleted(self):
        tag = Tag(1, "w1")
        with pytest.raises(AttributeError):
            tag.ts = 2
        with pytest.raises(AttributeError):
            tag.wid = "w2"
        with pytest.raises(AttributeError):
            tag.note = "x"
        with pytest.raises(AttributeError):
            del tag.ts
        assert tag == Tag(1, "w1")

    def test_keyword_construction_and_the_timestamp_check(self):
        assert Tag(ts=2, wid="w1") == Tag(2, "w1")
        assert Tag(0) == BOTTOM_TAG
        with pytest.raises(ValueError):
            Tag(ts=-1)

    @given(close_tags)
    def test_copies_and_pickles_are_equal_tags(self, tag):
        clones = [copy.copy(tag), copy.deepcopy(tag)] + [
            pickle.loads(pickle.dumps(tag, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for clone in clones:
            assert type(clone) is Tag
            assert clone == tag and hash(clone) == hash(tag)
            assert (clone.ts, clone.wid) == (tag.ts, tag.wid)
