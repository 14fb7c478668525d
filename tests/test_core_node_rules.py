"""Section III-IV protocol rules of ``PeerNode``, one test per rule.

Each test sits at the rule's boundary, so a one-site change to the rule
fails a test that names it rather than only moving a figure pin.
"""

from types import SimpleNamespace

import pytest

from repro.core.blocks import StreamGeometry
from repro.core.buffer import BufferMap
from repro.core.node import NodeState, PeerNode
from repro.core.partnership import Direction, PartnershipManager

M = 4


def _shed(parents, partner_heads):
    """Run ``PeerNode._shed_useless_partner`` on a stub node with partner
    set bound M whose partners have the given global heads (None:
    partnered, no BM yet); returns the ``_drop_partner`` calls."""
    geometry = StreamGeometry(1)
    partners = PartnershipManager(owner_id=0, max_partners=M)
    for pid, head in partner_heads.items():
        partners.add(pid, Direction.OUTGOING, now=0.0)
        if head is not None:
            partners.record_bm(
                pid, BufferMap.from_local_heads([head], geometry), now=1.0)
    dropped = []
    node = SimpleNamespace(
        parents=list(parents), partners=partners,
        _drop_partner=lambda pid, notify: dropped.append((pid, notify)))
    PeerNode._shed_useless_partner(node)
    return dropped


class TestPartnerShedding:
    """Section III: a node that finds no qualified parent drops its least
    useful non-parent partner to make room, but only when its partner set
    is full."""

    def test_below_the_bound_drops_nothing(self):
        heads = {1: 0, 2: 5, 3: 9}
        assert len(heads) == M - 1
        assert _shed([1, None], heads) == []

    @pytest.mark.parametrize("partner_heads, expected", [
        # the lowest head among non-parents goes, never parent 1 with 0
        ({1: 0, 2: 10, 3: 7, 4: 5}, 4),
        # a partner with no BM counts as head -1, below any head
        ({1: 0, 2: 10, 3: None, 4: 5}, 3),
    ])
    def test_at_the_bound_drops_the_lowest_non_parent(self, partner_heads,
                                                      expected):
        assert _shed([1, 2], partner_heads) == [(expected, True)]

    def test_never_drops_a_current_parent(self):
        assert _shed([1, 2, 3, 4], {1: 0, 2: 1, 3: None, 4: 2}) == []


class TestCooldownBypass:
    """Section IV.B: at most one adaptation per ``T_a``; the join and
    churn paths re-select with ``force``, which skips the cool-down and
    does not re-arm it."""

    @pytest.fixture
    def playing(self, small_system, monkeypatch):
        """A playing peer whose partners both advertise heads 2 blocks
        ahead of its own, so either qualifies as a parent; returns the
        node and the list its outgoing RPCs are recorded to."""
        node = None

        def spawn():
            nonlocal node
            node = small_system.spawn_peer(user_id=0)

        small_system.engine.schedule(5.0, spawn)
        small_system.run(until=120.0)
        assert node.state is NodeState.PLAYING
        ahead = BufferMap.from_local_heads([h + 2 for h in node.heads],
                                           node.geometry)
        for pid in node.partners.ids():
            node.partners.record_bm(pid, ahead, small_system.engine.now)
        sent = []
        monkeypatch.setattr(small_system, "rpc",
                            lambda *call: sent.append(call))
        return node, sent

    def test_force_bypasses_the_cooldown_without_firing_it(self, playing):
        node, sent = playing
        now = node.engine.now
        ta = node.cfg.ta_seconds
        old = node.parents[0]
        assert len(node.partners) >= 2 and old is not None

        fired_at = now - ta / 2
        node.cooldown.fire(fired_at)
        assert not node._reselect_parent(0)
        assert sent == [] and node.parents[0] == old

        assert node._reselect_parent(0, force=True)
        new = node.parents[0]
        assert new != old
        assert [call[1:3] for call in sent] == [(old, "rpc_unsubscribe"),
                                                (new, "rpc_subscribe")]
        assert sent[-1][3:5] == (node.node_id, 0)
        # a forced switch leaves the cool-down where the last fire put it
        assert node.cooldown.ready(fired_at + ta)
