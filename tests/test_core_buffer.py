"""Unit and property tests for buffers and the 2K-tuple buffer map."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import StreamGeometry
from repro.core.buffer import (
    BufferMap,
    SyncBuffer,
)


class TestSyncBuffer:
    def test_empty_state(self):
        buf = SyncBuffer()
        assert buf.count == 0
        assert buf.head == -1

    def test_in_order_reception(self):
        buf = SyncBuffer()
        for i in range(5):
            assert buf.receive(i) == 1
        assert buf.head == 4
        assert buf.count == 5

    def test_out_of_order_held_pending(self):
        buf = SyncBuffer()
        assert buf.receive(2) == 0
        assert buf.head == -1
        assert buf.pending == {2}

    def test_gap_fill_drains_pending(self):
        buf = SyncBuffer()
        buf.receive(1)
        buf.receive(2)
        advanced = buf.receive(0)
        assert advanced == 3
        assert buf.head == 2
        assert buf.pending == frozenset()

    def test_duplicates_ignored(self):
        buf = SyncBuffer()
        buf.receive(0)
        assert buf.receive(0) == 0
        assert buf.count == 1

    def test_duplicate_pending_ignored(self):
        buf = SyncBuffer()
        buf.receive(5)
        buf.receive(5)
        assert buf.pending == {5}

    def test_nonzero_start(self):
        buf = SyncBuffer(start=100)
        assert buf.head == 99
        buf.receive(100)
        assert buf.head == 100

    def test_pre_start_blocks_ignored(self):
        buf = SyncBuffer(start=100)
        assert buf.receive(50) == 0
        assert buf.head == 99

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SyncBuffer(start=-1)

    def test_receive_range(self):
        buf = SyncBuffer()
        assert buf.receive_range(0, 9) == 10
        assert buf.head == 9

    def test_receive_range_partially_overlapping(self):
        buf = SyncBuffer()
        buf.receive_range(0, 4)
        assert buf.receive_range(3, 7) == 3
        assert buf.head == 7

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            SyncBuffer().receive_range(5, 4)

    @given(st.permutations(list(range(25))))
    @settings(max_examples=100, deadline=None)
    def test_property_any_order_converges(self, order):
        buf = SyncBuffer()
        total = sum(buf.receive(i) for i in order)
        assert total == 25
        assert buf.head == 24
        assert buf.pending == frozenset()

    @given(st.lists(st.integers(0, 60), min_size=1, max_size=120))
    @settings(max_examples=100, deadline=None)
    def test_property_head_contiguity_invariant(self, arrivals):
        """All indices <= head were received; none beyond head+pending."""
        buf = SyncBuffer()
        seen = set()
        for idx in arrivals:
            buf.receive(idx)
            seen.add(idx)
            # invariant: contiguous prefix covered by seen
            for j in range(buf.start, buf.head + 1):
                assert j in seen
            # pending are all strictly beyond the head
            assert all(p > buf.head for p in buf.pending)


class TestBufferMap:
    def test_wire_roundtrip(self):
        bm = BufferMap(heads=(10, 11, 8, 9), subscriptions=(True, False, True, False))
        assert BufferMap.from_tuple(bm.as_tuple()) == bm

    def test_as_tuple_is_2k(self):
        bm = BufferMap(heads=(1, 2, 3), subscriptions=(False, False, True))
        assert bm.as_tuple() == (1, 2, 3, 0, 0, 1)

    def test_max_min_heads(self):
        bm = BufferMap(heads=(10, 25, 8, 9), subscriptions=(False,) * 4)
        assert bm.max_head == 25  # the "m" of Section IV.A

    def test_empty_heads_are_minus_one(self):
        bm = BufferMap(heads=(-1, -1), subscriptions=(False, False))
        assert bm.max_head == -1

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            BufferMap(heads=(1, 2), subscriptions=(True,))

    def test_zero_substreams_rejected(self):
        with pytest.raises(ValueError):
            BufferMap(heads=(), subscriptions=())

    def test_heads_below_minus_one_rejected(self):
        with pytest.raises(ValueError):
            BufferMap(heads=(-2,), subscriptions=(False,))

    def test_from_tuple_odd_length_rejected(self):
        with pytest.raises(ValueError):
            BufferMap.from_tuple((1, 2, 3))

    def test_head_local(self):
        g = StreamGeometry(4)
        bm = BufferMap.from_local_heads([5, 5, 4, 4], g)
        assert bm.head_local(0, g) == 5
        assert bm.head_local(3, g) == 4

    def test_from_local_heads_empty_marker(self):
        g = StreamGeometry(2)
        bm = BufferMap.from_local_heads([-1, 3], g)
        assert bm.heads[0] == -1
        assert bm.head_local(0, g) == -1

    def test_from_local_heads_global_encoding(self):
        g = StreamGeometry(4)
        bm = BufferMap.from_local_heads([2, 2, 2, 2], g)
        # local index 2 on substream i is global 4*2 + i
        assert bm.heads == (8, 9, 10, 11)

    @given(
        k=st.integers(1, 8),
        heads=st.lists(st.integers(-1, 1000), min_size=1, max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_wire_roundtrip(self, k, heads):
        heads = tuple(heads[:k]) + (0,) * max(0, k - len(heads))
        subs = tuple(h % 2 == 0 for h in heads)
        bm = BufferMap(heads=heads, subscriptions=subs)
        assert BufferMap.from_tuple(bm.as_tuple()) == bm
