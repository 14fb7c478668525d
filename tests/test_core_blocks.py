"""Unit and property tests for stream framing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import StreamGeometry


class TestFraming:
    def test_round_robin_assignment(self):
        g = StreamGeometry(4)
        assert [g.local_index(s) for s in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_local_index(self):
        g = StreamGeometry(4)
        assert g.local_index(0) == 0
        assert g.local_index(3) == 0
        assert g.local_index(4) == 1
        assert g.local_index(11) == 2

    def test_single_substream_degenerates_to_identity(self):
        g = StreamGeometry(1)
        assert g.local_index(42) == 42

    def test_negative_seq_rejected(self):
        g = StreamGeometry(4)
        with pytest.raises(ValueError):
            g.local_index(-1)

    @given(k=st.integers(1, 16), sub=st.integers(0, 15), idx=st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_property_inverse_roundtrip(self, k, sub, idx):
        """``local_index`` inverts the round-robin framing ``s = idx*K + sub``
        (the conversion ``BufferMap.from_local_heads`` inlines)."""
        if sub >= k:
            return
        g = StreamGeometry(k)
        assert g.local_index(idx * k + sub) == idx


class TestTiming:
    def test_live_edge(self):
        g = StreamGeometry(4)
        assert g.live_edge_local(0.0) == -1
        assert g.live_edge_local(0.5) == -1
        assert g.live_edge_local(1.0) == 0
        assert g.live_edge_local(10.7) == 9

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            StreamGeometry(0)
