"""Unit tests for the push data plane and playback accounting."""

import pytest

from repro.core.stream import PlaybackState, UploadScheduler


def collect_pushes():
    pushed = []

    def push(conn, first, last):
        pushed.append((conn.child_id, conn.substream, first, last))

    return pushed, push


# a cache window so large everything is always available
no_window = 1 << 30


class TestSubscriptions:
    def test_subscribe_creates_connection(self):
        sched = UploadScheduler(10.0, 1.0, 1.0)
        conn = sched.subscribe(7, 2, from_index=5)
        assert conn.child_id == 7
        assert conn.substream == 2
        assert conn.next_index == 5
        assert sched.substream_degree == 1

    def test_resubscribe_repoints(self):
        sched = UploadScheduler(10.0, 1.0, 1.0)
        sched.subscribe(7, 2, 5)
        sched.subscribe(7, 2, 9)
        assert sched.substream_degree == 1
        assert [c.next_index for c in sched.drop_child(7)] == [9]

    def test_unsubscribe(self):
        sched = UploadScheduler(10.0, 1.0, 1.0)
        sched.subscribe(7, 2, 5)
        assert sched.unsubscribe(7, 2) is not None
        assert sched.unsubscribe(7, 2) is None
        assert sched.substream_degree == 0

    def test_drop_child_removes_all_substreams(self):
        sched = UploadScheduler(10.0, 1.0, 1.0)
        for sub in range(4):
            sched.subscribe(7, sub, 0)
        sched.subscribe(8, 0, 0)
        dropped = sched.drop_child(7)
        assert len(dropped) == 4
        assert sched.children() == {8}

    def test_negative_from_index_clamped(self):
        sched = UploadScheduler(10.0, 1.0, 1.0)
        conn = sched.subscribe(1, 0, -5)
        assert conn.next_index == 0

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            UploadScheduler(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            UploadScheduler(1.0, 0.0, 1.0)


class TestDelivery:
    def test_single_caught_up_child_tracks_live_rate(self):
        sched = UploadScheduler(10.0, 1.0, 1.0)
        sched.subscribe(1, 0, 1)
        pushed, push = collect_pushes()
        total_bits = 0.0
        for head in range(1, 11):
            total_bits += sched.deliver(1.0, [head], no_window, push)
        delivered = sum(last - first + 1 for _c, _s, first, last in pushed)
        assert delivered == 10
        assert total_bits == 10.0

    def test_catching_up_child_uses_surplus(self):
        # child is 20 blocks behind; parent has 5 slots -> catch-up at 5/s
        sched = UploadScheduler(5.0, 1.0, 1.0)
        sched.subscribe(1, 0, 1)
        pushed, push = collect_pushes()
        sched.deliver(1.0, [20], no_window, push)
        delivered = sum(last - first + 1 for _c, _s, first, last in pushed)
        assert delivered == 5

    def test_catchup_capped_by_demand_factor(self):
        from repro.core.stream import CATCHUP_DEMAND_FACTOR
        sched = UploadScheduler(1000.0, 1.0, 1.0)
        sched.subscribe(1, 0, 1)
        pushed, push = collect_pushes()
        sched.deliver(1.0, [1000], no_window, push)
        delivered = sum(last - first + 1 for _c, _s, first, last in pushed)
        assert delivered == int(CATCHUP_DEMAND_FACTOR)

    def test_oversubscribed_parent_degrades_everyone(self):
        # Eq. 5 scenario: 2 slots, 4 caught-up children -> 0.5 each
        sched = UploadScheduler(2.0, 1.0, 1.0)
        for c in range(4):
            sched.subscribe(c, 0, 1)
        pushed, push = collect_pushes()
        for head in range(1, 21):
            sched.deliver(1.0, [head], no_window, push)
        per_child = {c: 0 for c in range(4)}
        for c, _s, first, last in pushed:
            per_child[c] += last - first + 1
        for c in range(4):
            assert per_child[c] == pytest.approx(10, abs=2)

    def test_no_delivery_beyond_parent_head(self):
        sched = UploadScheduler(100.0, 1.0, 1.0)
        sched.subscribe(1, 0, 1)
        pushed, push = collect_pushes()
        sched.deliver(10.0, [3], no_window, push)
        assert pushed == [(1, 0, 1, 3)]

    def test_no_delivery_when_parent_empty(self):
        sched = UploadScheduler(100.0, 1.0, 1.0)
        sched.subscribe(1, 0, 0)
        pushed, push = collect_pushes()
        bits = sched.deliver(1.0, [-1], no_window, push)
        assert bits == 0.0
        assert pushed == []

    def test_cache_eviction_fast_forwards_child(self):
        sched = UploadScheduler(100.0, 1.0, 1.0)
        sched.subscribe(1, 0, 0)
        pushed, push = collect_pushes()
        # window of 11 puts the floor at 50 for head 60: blocks 0..49 are gone
        sched.deliver(1.0, [60], 11, push)
        assert pushed[0][2] == 50  # first delivered block is the floor

    def test_credit_carries_fractional_blocks(self):
        # rate 0.5 block/s: one block every 2 seconds
        sched = UploadScheduler(0.5, 1.0, 1.0)
        sched.subscribe(1, 0, 1)
        pushed, push = collect_pushes()
        sched.deliver(1.0, [100], no_window, push)
        n1 = len(pushed)
        sched.deliver(1.0, [100], no_window, push)
        delivered = sum(last - first + 1 for _c, _s, first, last in pushed)
        assert delivered == 1

    def test_credit_does_not_bank_during_stall(self):
        sched = UploadScheduler(10.0, 1.0, 1.0)
        sched.subscribe(1, 0, 1)
        pushed, push = collect_pushes()
        # parent stuck at head 0 for a long time: unused upload capacity
        # must NOT accumulate as deliverable credit
        for _ in range(50):
            sched.deliver(1.0, [0], no_window, push)
        # parent jumps 30 blocks ahead: the burst is bounded by one
        # quantum of the (re-computed catch-up) rate plus the small credit
        # carry -- not by the 50 stalled quanta
        sched.deliver(1.0, [30], no_window, push)
        delivered = sum(last - first + 1 for _c, _s, first, last in pushed)
        assert delivered <= 12  # capacity*dt + credit carry
        assert delivered < 30   # the stall did not bank bandwidth

    def test_bits_uploaded_accounting(self):
        sched = UploadScheduler(10.0, 1.0, 2.0)  # 2 bits per block
        sched.subscribe(1, 0, 1)
        _pushed, push = collect_pushes()
        sched.deliver(1.0, [5], no_window, push)
        assert sched.bits_uploaded > 0
        assert sched.bits_uploaded % 2.0 == 0.0


class TestPlayback:
    def test_not_playing_accrues_nothing(self):
        pb = PlaybackState(2, start_index=0)
        assert pb.advance(5.0, [10, 10]) == (0, 0)
        assert pb.continuity_index == 1.0

    def test_perfect_stream(self):
        pb = PlaybackState(2, start_index=0)
        pb.start()
        due, missed = pb.advance(10.0, [100, 100])
        assert due == 20  # 10 s * 2 sub-streams
        assert missed == 0
        assert pb.continuity_index == 1.0

    def test_one_lagging_substream(self):
        pb = PlaybackState(2, start_index=0)
        pb.start()
        # sub 0 fully received, sub 1 has nothing
        due, missed = pb.advance(10.0, [100, -1])
        assert due == 20
        assert missed == 10
        assert pb.continuity_index == 0.5

    def test_partial_lag(self):
        pb = PlaybackState(1, start_index=0)
        pb.start()
        due, missed = pb.advance(10.0, [4])
        # blocks 0..9 due; 0..4 received -> 5 missed
        assert (due, missed) == (10, 5)

    def test_fractional_advance_accumulates(self):
        pb = PlaybackState(1, start_index=0)
        pb.start()
        total_due = 0
        for _ in range(10):
            due, _ = pb.advance(0.25, [100])
            total_due += due
        assert total_due == 2  # 2.5 s of playout -> 2 whole blocks due

    def test_window_continuity_resets(self):
        pb = PlaybackState(1, start_index=0)
        pb.start()
        pb.advance(10.0, [4])
        assert pb.window_continuity() == pytest.approx(0.5)
        pb.advance(10.0, [100])
        assert pb.window_continuity() == pytest.approx(1.0)

    def test_window_continuity_none_when_nothing_due(self):
        pb = PlaybackState(1, start_index=0)
        assert pb.window_continuity() is None

    def test_watchdog_independent_of_report_window(self):
        pb = PlaybackState(1, start_index=0)
        pb.start()
        pb.advance(10.0, [4])
        assert pb.window_continuity() == pytest.approx(0.5)
        # draining the report window must not blind the watchdog
        assert pb.watchdog_continuity() == pytest.approx(0.5)

    def test_holes_counted_when_passed(self):
        pb = PlaybackState(1, start_index=0)
        pb.start()
        pb.add_hole(0, 3, 5)
        due, missed = pb.advance(10.0, [100])
        assert missed == 3

    def test_hole_straddling_window_boundary(self):
        pb = PlaybackState(1, start_index=0)
        pb.start()
        pb.add_hole(0, 4, 12)
        _d, m1 = pb.advance(8.0, [100])   # passes indices 0..7 -> holes 4..7
        assert m1 == 4
        _d, m2 = pb.advance(8.0, [100])   # passes 8..15 -> holes 8..12
        assert m2 == 5

    def test_past_holes_ignored(self):
        pb = PlaybackState(1, start_index=0)
        pb.start()
        pb.advance(10.0, [100])
        pb.add_hole(0, 2, 4)  # already behind the pointer
        _d, missed = pb.advance(10.0, [100])
        assert missed == 0

    def test_buffered_seconds(self):
        pb = PlaybackState(2, start_index=10)
        assert pb.buffered_seconds([19, 15]) == 6.0  # min head governs
        pb.start()
        pb.advance(3.0, [19, 15])
        assert pb.buffered_seconds([19, 15]) == 3.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            PlaybackState(2, start_index=-1)
