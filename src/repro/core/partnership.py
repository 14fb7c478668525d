"""Partnership manager: partner state, direction bookkeeping and BM views.

A *partnership* is a long-lived control relation (a TCP connection in the
deployed system) over which two peers exchange buffer maps and gossip.  It
is distinct from the *parent-child* relation: parents are always a subset
of partners (Section III.B).

Direction matters for the measurement study: Section V.B classifies users
by whether they ever obtain *incoming* partners, so every partnership
records who initiated it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.buffer import BufferMap
from repro.core.membership import MCacheEntry

__all__ = ["Direction", "PartnerState", "PartnershipManager"]


class Direction(str, enum.Enum):
    """Who initiated the partnership, from this node's point of view."""

    OUTGOING = "out"  # we initiated
    INCOMING = "in"   # the partner initiated


@dataclass(slots=True)
class PartnerState:
    """Everything this node knows about one partner."""

    node_id: int
    direction: Direction
    established_at: float
    entry: Optional[MCacheEntry] = None
    bm: Optional[BufferMap] = None
    last_bm_time: float = field(default=-1.0)

    def update_bm(self, bm: BufferMap, now: float) -> None:
        """Store a freshly received buffer map."""
        self.bm = bm
        self.last_bm_time = now


class PartnershipManager:
    """Bounded set of partnerships with direction and BM bookkeeping."""

    __slots__ = (
        "_owner", "_max", "_partners", "total_incoming_ever",
        "total_outgoing_ever",
    )

    def __init__(self, owner_id: int, max_partners: int) -> None:
        if max_partners < 1:
            raise ValueError("max_partners must be >= 1")
        self._owner = owner_id
        self._max = int(max_partners)
        self._partners: Dict[int, PartnerState] = {}
        # counters feeding the Section V.B classifier
        self.total_incoming_ever = 0
        self.total_outgoing_ever = 0

    # --- introspection ------------------------------------------------------
    @property
    def max_partners(self) -> int:
        """The partnership bound M."""
        return self._max

    def __len__(self) -> int:
        return len(self._partners)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._partners

    def get(self, node_id: int) -> Optional[PartnerState]:
        """Look up by id (None when absent)."""
        return self._partners.get(node_id)

    def ids(self) -> List[int]:
        """Ids currently stored, in insertion order."""
        return list(self._partners.keys())

    def states(self) -> List[PartnerState]:
        """All stored states, in insertion order."""
        return list(self._partners.values())

    @property
    def is_full(self) -> bool:
        """Whether the partner set reached M."""
        return len(self._partners) >= self._max

    # --- mutation ---------------------------------------------------------------
    def add(
        self,
        node_id: int,
        direction: Direction,
        now: float,
        entry: Optional[MCacheEntry] = None,
    ) -> PartnerState:
        """Register a partnership.  Raises if full or duplicate or self."""
        if node_id == self._owner:
            raise ValueError("cannot partner with self")
        if node_id in self._partners:
            raise ValueError(f"already partnered with {node_id}")
        if self.is_full:
            raise OverflowError("partner set full")
        state = PartnerState(
            node_id=node_id, direction=direction, established_at=now, entry=entry
        )
        self._partners[node_id] = state
        if direction is Direction.INCOMING:
            self.total_incoming_ever += 1
        else:
            self.total_outgoing_ever += 1
        return state

    def remove(self, node_id: int) -> Optional[PartnerState]:
        """Drop a partnership; returns the removed state (None if absent)."""
        return self._partners.pop(node_id, None)

    # --- BM views ------------------------------------------------------------
    def record_bm(self, node_id: int, bm: BufferMap, now: float) -> bool:
        """Store a received buffer map; returns False for unknown partners
        (late messages after a drop are silently discarded, as TCP teardown
        would have done)."""
        state = self._partners.get(node_id)
        if state is None:
            return False
        # inlined update_bm: this runs once per partner per BM exchange
        state.bm = bm
        state.last_bm_time = now
        return True

    def best_partner_head(self) -> int:
        """``max{H_{S_i,q} : i <= K, q in partners}`` -- the left side of
        Inequality (2): the most advanced global head over all partners'
        sub-streams.  -1 if no BM has been heard yet."""
        best = -1
        for state in self._partners.values():
            bm = state.bm
            if bm is not None:
                h = bm.max_head
                if h > best:
                    best = h
        return best

    def partners_with_bm(self) -> List[PartnerState]:
        """Partners whose buffer map has been heard."""
        return [s for s in self._partners.values() if s.bm is not None]

    def stale_partners(self, now: float, timeout_s: float) -> List[int]:
        """Partners whose BM is older than ``timeout_s`` *and* that have been
        established long enough to have reported one -- the churn detector."""
        out = []
        for state in self._partners.values():
            if now - state.established_at < timeout_s:
                continue
            # never heard a BM (last_bm_time < 0): infinitely old
            t = state.last_bm_time
            if t < 0 or now - t > timeout_s:
                out.append(state.node_id)
        return out
