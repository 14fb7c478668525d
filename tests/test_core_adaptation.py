"""Unit tests for the adaptation rules (Inequalities 1-2, cool-down)."""

import pytest

from repro.core.adaptation import (
    CooldownTimer,
    choose_parent,
    inequality1_ok,
    inequality2_ok,
    qualified_parents,
    substream_lag,
)
from repro.core.blocks import StreamGeometry
from repro.core.buffer import BufferMap
from repro.core.partnership import Direction, PartnerState


def partner(node_id, local_heads, geometry):
    state = PartnerState(node_id=node_id, direction=Direction.OUTGOING,
                         established_at=0.0)
    bm = BufferMap.from_local_heads(local_heads, geometry)
    state.update_bm(bm, now=0.0)
    return state


@pytest.fixture
def geometry():
    return StreamGeometry(4)


class TestInequality1:
    def test_synchronized_substreams_ok(self):
        assert inequality1_ok([100, 100, 99, 100], substream=2, ts_blocks=10)

    def test_lagging_substream_violates(self):
        heads = [100, 100, 88, 100]
        assert substream_lag(heads, 2) == 12
        assert not inequality1_ok(heads, 2, ts_blocks=10)

    def test_boundary_is_strict(self):
        heads = [100, 90]
        assert not inequality1_ok(heads, 1, ts_blocks=10)  # lag == T_s fails
        assert inequality1_ok(heads, 1, ts_blocks=10.5)

    def test_most_advanced_substream_never_lags(self):
        assert inequality1_ok([50, 40, 30], substream=0, ts_blocks=1)


class TestInequality2:
    def test_parent_near_best_ok(self):
        assert inequality2_ok(parent_head_local=95, best_partner_head_local=100,
                              tp_blocks=15)

    def test_lagging_parent_violates(self):
        assert not inequality2_ok(80, 100, tp_blocks=15)

    def test_unknown_parent_head_grace(self):
        assert inequality2_ok(-1, 100, tp_blocks=15)

    def test_unknown_best_grace(self):
        assert inequality2_ok(100, -1, tp_blocks=15)

    def test_boundary_strict(self):
        assert not inequality2_ok(85, 100, tp_blocks=15)
        assert inequality2_ok(86, 100, tp_blocks=15)


class TestCooldown:
    def test_initially_ready(self):
        assert CooldownTimer(20.0).ready(now=0.0)

    def test_blocks_after_fire(self):
        timer = CooldownTimer(20.0)
        timer.fire(now=100.0)
        assert not timer.ready(now=110.0)
        assert timer.ready(now=120.0)

    def test_disabled_timer_always_ready(self):
        timer = CooldownTimer(20.0, enabled=False)
        timer.fire(now=100.0)
        assert timer.ready(now=100.1)

    def test_negative_ta_rejected(self):
        with pytest.raises(ValueError):
            CooldownTimer(-1.0)


class TestQualification:
    def test_advanced_partner_qualifies(self, geometry):
        partners = [partner(2, [100, 100, 100, 100], geometry)]
        got = qualified_parents(partners, substream=0, own_head=90,
                                best_partner_head_local=100, tp_blocks=15,
                                geometry=geometry)
        assert [s.node_id for s in got] == [2]

    def test_behind_partner_disqualified(self, geometry):
        partners = [partner(2, [80, 80, 80, 80], geometry)]
        got = qualified_parents(partners, 0, own_head=90,
                                best_partner_head_local=100, tp_blocks=15,
                                geometry=geometry)
        assert got == []

    def test_inequality2_filters_laggards(self, geometry):
        # partner is ahead of us but way behind the best partner
        partners = [
            partner(2, [60, 60, 60, 60], geometry),
            partner(3, [100, 100, 100, 100], geometry),
        ]
        got = qualified_parents(partners, 0, own_head=50,
                                best_partner_head_local=100, tp_blocks=15,
                                geometry=geometry)
        assert [s.node_id for s in got] == [3]

    def test_excluded_partner_skipped(self, geometry):
        partners = [partner(2, [100] * 4, geometry)]
        got = qualified_parents(partners, 0, own_head=90,
                                best_partner_head_local=100, tp_blocks=15,
                                geometry=geometry, exclude=(2,))
        assert got == []

    def test_partner_without_bm_skipped(self, geometry):
        state = PartnerState(node_id=5, direction=Direction.OUTGOING,
                             established_at=0.0)
        got = qualified_parents([state], 0, own_head=0,
                                best_partner_head_local=10, tp_blocks=15,
                                geometry=geometry)
        assert got == []

    def test_cache_window_disqualifies_too_old_need(self, geometry):
        # candidate head 100, window 30: it can serve from 71 onwards;
        # we need block 41 -> long gone
        partners = [partner(2, [100] * 4, geometry)]
        got = qualified_parents(partners, 0, own_head=40,
                                best_partner_head_local=100, tp_blocks=150,
                                geometry=geometry, cache_window=30)
        assert got == []

    def test_cache_window_allows_recent_need(self, geometry):
        partners = [partner(2, [100] * 4, geometry)]
        got = qualified_parents(partners, 0, own_head=80,
                                best_partner_head_local=100, tp_blocks=150,
                                geometry=geometry, cache_window=30)
        assert [s.node_id for s in got] == [2]


class TestChoice:
    def test_empty_candidates_returns_none(self, geometry, rng):
        assert choose_parent([], 0, geometry, rng) is None

    def test_random_choice_uses_all_candidates(self, geometry, rng):
        cands = [partner(i, [100] * 4, geometry) for i in range(2, 7)]
        chosen = {
            choose_parent(cands, 0, geometry, rng, policy="random").node_id
            for _ in range(200)
        }
        assert chosen == {2, 3, 4, 5, 6}

    def test_best_policy_picks_most_advanced(self, geometry, rng):
        cands = [
            partner(2, [90] * 4, geometry),
            partner(3, [110] * 4, geometry),
            partner(4, [100] * 4, geometry),
        ]
        assert choose_parent(cands, 0, geometry, rng, policy="best").node_id == 3

    def test_unknown_policy_rejected(self, geometry, rng):
        with pytest.raises(ValueError):
            choose_parent([partner(2, [1] * 4, geometry)], 0, geometry, rng,
                          policy="fifo")
