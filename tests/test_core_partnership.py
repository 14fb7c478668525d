"""Unit tests for the partnership manager."""

import pytest

from repro.core.buffer import BufferMap
from repro.core.partnership import Direction, PartnershipManager


def bm(*heads):
    return BufferMap(heads=tuple(heads), subscriptions=(False,) * len(heads))


class TestMembership:
    def test_add_and_get(self):
        pm = PartnershipManager(owner_id=1, max_partners=4)
        state = pm.add(2, Direction.OUTGOING, now=1.0)
        assert pm.get(2) is state
        assert 2 in pm
        assert len(pm) == 1

    def test_self_partnership_rejected(self):
        pm = PartnershipManager(owner_id=1, max_partners=4)
        with pytest.raises(ValueError):
            pm.add(1, Direction.OUTGOING, now=0.0)

    def test_duplicate_rejected(self):
        pm = PartnershipManager(owner_id=1, max_partners=4)
        pm.add(2, Direction.OUTGOING, now=0.0)
        with pytest.raises(ValueError):
            pm.add(2, Direction.INCOMING, now=1.0)

    def test_full_set_rejects(self):
        pm = PartnershipManager(owner_id=1, max_partners=2)
        pm.add(2, Direction.OUTGOING, now=0.0)
        pm.add(3, Direction.OUTGOING, now=0.0)
        assert pm.is_full
        with pytest.raises(OverflowError):
            pm.add(4, Direction.INCOMING, now=0.0)

    def test_remove_returns_state(self):
        pm = PartnershipManager(owner_id=1, max_partners=4)
        pm.add(2, Direction.OUTGOING, now=0.0)
        state = pm.remove(2)
        assert state.node_id == 2
        assert pm.remove(2) is None
        assert not pm.is_full

    def test_invalid_max_partners(self):
        with pytest.raises(ValueError):
            PartnershipManager(owner_id=1, max_partners=0)


class TestDirectionCounters:
    def test_incoming_counter_feeds_classifier(self):
        pm = PartnershipManager(owner_id=1, max_partners=8)
        assert pm.total_incoming_ever == 0
        pm.add(2, Direction.OUTGOING, now=0.0)
        assert pm.total_incoming_ever == 0
        pm.add(3, Direction.INCOMING, now=0.0)
        assert pm.total_incoming_ever == 1
        assert pm.total_outgoing_ever == 1

    def test_counters_survive_removal(self):
        """Section V.B classifies by *ever* having incoming partners."""
        pm = PartnershipManager(owner_id=1, max_partners=8)
        pm.add(2, Direction.INCOMING, now=0.0)
        pm.remove(2)
        assert pm.total_incoming_ever == 1


class TestBufferMaps:
    def test_record_bm_for_partner(self):
        pm = PartnershipManager(owner_id=1, max_partners=4)
        pm.add(2, Direction.OUTGOING, now=0.0)
        assert pm.record_bm(2, bm(5, 6), now=1.0)
        assert pm.get(2).bm.max_head == 6

    def test_record_bm_unknown_partner_discarded(self):
        pm = PartnershipManager(owner_id=1, max_partners=4)
        assert not pm.record_bm(9, bm(5, 6), now=1.0)

    def test_best_partner_head(self):
        pm = PartnershipManager(owner_id=1, max_partners=4)
        pm.add(2, Direction.OUTGOING, now=0.0)
        pm.add(3, Direction.OUTGOING, now=0.0)
        pm.record_bm(2, bm(5, 12), now=1.0)
        pm.record_bm(3, bm(30, 2), now=1.0)
        # max over all partners and all sub-streams (Inequality 2's left side)
        assert pm.best_partner_head() == 30

    def test_best_partner_head_without_bms(self):
        pm = PartnershipManager(owner_id=1, max_partners=4)
        pm.add(2, Direction.OUTGOING, now=0.0)
        assert pm.best_partner_head() == -1

    def test_partners_with_bm(self):
        pm = PartnershipManager(owner_id=1, max_partners=4)
        pm.add(2, Direction.OUTGOING, now=0.0)
        pm.add(3, Direction.OUTGOING, now=0.0)
        pm.record_bm(2, bm(1, 1), now=1.0)
        assert [s.node_id for s in pm.partners_with_bm()] == [2]


class TestStaleness:
    def test_bm_age_inf_before_first_bm(self):
        """A partner that never sent a BM is infinitely old: stale once its
        establishment grace period is over."""
        pm = PartnershipManager(owner_id=1, max_partners=4)
        pm.add(2, Direction.OUTGOING, now=0.0)
        assert pm.stale_partners(now=7.5, timeout_s=7.0) == [2]

    def test_fresh_partner_grace_period(self):
        """A just-established partnership is not stale even without a BM."""
        pm = PartnershipManager(owner_id=1, max_partners=4)
        pm.add(2, Direction.OUTGOING, now=100.0)
        assert pm.stale_partners(now=102.0, timeout_s=7.0) == []

    def test_silent_partner_becomes_stale(self):
        pm = PartnershipManager(owner_id=1, max_partners=4)
        pm.add(2, Direction.OUTGOING, now=0.0)
        pm.record_bm(2, bm(1), now=1.0)
        assert pm.stale_partners(now=5.0, timeout_s=7.0) == []
        assert pm.stale_partners(now=9.0, timeout_s=7.0) == [2]

    def test_chatty_partner_never_stale(self):
        pm = PartnershipManager(owner_id=1, max_partners=4)
        pm.add(2, Direction.OUTGOING, now=0.0)
        for t in range(1, 50, 2):
            pm.record_bm(2, bm(t), now=float(t))
        assert pm.stale_partners(now=50.0, timeout_s=7.0) == []
