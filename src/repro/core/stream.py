"""Stream manager: push delivery, upload sharing, playback and continuity.

**Parent side** (:class:`UploadScheduler`): a parent holds one
:class:`SubscriptionConn` per (child, sub-stream).  Once per delivery
quantum it water-fills its upload capacity over the connections' demands
(a caught-up child only consumes the live sub-stream rate; a lagging child
absorbs surplus -- Eq. 3's catch-up) and pushes the resulting *interval* of
blocks to each child.  No per-block Python objects exist anywhere: the hot
path moves ``(first, last)`` index ranges, per the HPC guide's
"no per-element work in inner loops" rule.

**Child side** (:class:`PlaybackState`): tracks the playout pointer, the
blocks that missed their deadline, and the resulting continuity index --
"the number of blocks that arrive before playback deadlines over the total
number of blocks" (Section V.D).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.network.fairshare import _SMALL_N, _waterfill_py, waterfill_rates

__all__ = ["SubscriptionConn", "UploadScheduler", "PlaybackState", "Hole"]

# A lagging child's demand cap, in multiples of the nominal sub-stream rate.
# Models the finite ramp of a single TCP connection: catch-up is fast but a
# single connection cannot absorb a server's whole 100 Mbps.
CATCHUP_DEMAND_FACTOR = 12.0


@dataclass(slots=True)
class SubscriptionConn:
    """Parent-side state of one pushed sub-stream.

    ``next_index`` is the next local block index owed to the child;
    ``credit`` accumulates fractional blocks between quanta so that rates
    below one block per quantum still deliver correctly over time.
    Slotted: a busy parent touches every connection every delivery quantum,
    and slot access is measurably cheaper than dict-backed attributes.
    """

    child_id: int
    substream: int
    next_index: int
    credit: float = 0.0


class UploadScheduler:
    """Water-filled push scheduler for one parent node.

    Parameters
    ----------
    upload_bps:
        The parent's total upload capacity.
    substream_rate_bps:
        Nominal rate of one sub-stream (R/K).
    block_bits:
        Bits per block (one second of one sub-stream).
    """

    __slots__ = (
        "upload_bps", "_sub_rate", "_block_bits", "_catchup_demand", "_conns",
        "bits_uploaded", "last_saturated",
    )

    def __init__(self, upload_bps: float, substream_rate_bps: float,
                 block_bits: float) -> None:
        if upload_bps < 0:
            raise ValueError("upload capacity must be non-negative")
        if substream_rate_bps <= 0 or block_bits <= 0:
            raise ValueError("rates must be positive")
        self.upload_bps = float(upload_bps)
        self._sub_rate = float(substream_rate_bps)
        self._block_bits = float(block_bits)
        # hoisted out of the per-quantum demand loop
        self._catchup_demand = self._sub_rate * CATCHUP_DEMAND_FACTOR
        self._conns: Dict[Tuple[int, int], SubscriptionConn] = {}
        self.bits_uploaded = 0.0
        # observability: whether the last delivery quantum was demand-
        # constrained (the water-fill ran).  A plain flag so the obs layer
        # can count saturation without touching this hot loop.
        self.last_saturated = False

    # --- subscription management ------------------------------------------
    def subscribe(self, child_id: int, substream: int,
                  from_index: int) -> SubscriptionConn:
        """Open (or re-point) the connection pushing ``substream`` to
        ``child_id`` starting at local block ``from_index``.

        A parent "will always accept requests and ... simply push out all
        blocks of a sub-stream in need" (Section IV.B) -- no admission
        control happens here; competition is resolved by the water-filling.
        """
        key = (child_id, substream)
        conn = SubscriptionConn(
            child_id=child_id, substream=substream,
            next_index=max(0, int(from_index)),
        )
        self._conns[key] = conn
        return conn

    def unsubscribe(self, child_id: int, substream: int) -> Optional[SubscriptionConn]:
        """Close one pushed sub-stream connection."""
        return self._conns.pop((child_id, substream), None)

    def drop_child(self, child_id: int) -> List[SubscriptionConn]:
        """Remove every connection towards ``child_id`` (departure/churn)."""
        keys = [k for k in self._conns if k[0] == child_id]
        return [self._conns.pop(k) for k in keys]

    def children(self) -> set[int]:
        """Ids of children currently served."""
        return {child for (child, _s) in self._conns}

    @property
    def substream_degree(self) -> int:
        """``D_p``: the out-going sub-stream degree of this parent."""
        return len(self._conns)

    # --- the delivery quantum -------------------------------------------------
    def deliver(
        self,
        dt: float,
        parent_heads: List[int],
        window: int,
        push: Callable[[SubscriptionConn, int, int], None],
    ) -> float:
        """Run one delivery quantum of length ``dt`` seconds.

        ``parent_heads[s]`` is this parent's own contiguous head on
        sub-stream ``s``; ``window`` is the parent's cache window in blocks
        (the floor of deliverable indices is ``head - window + 1``);
        ``push(conn, first, last)`` delivers the block interval to the
        child (and must update the child).  Returns bits uploaded.

        A child whose ``next_index`` has fallen out of the cache window is
        fast-forwarded to the window floor -- the child will observe the
        hole via its sync buffer, exactly like the deployed system where
        playout pushed the blocks out of the parent's buffer (Section IV.A).
        """
        conns_map = self._conns
        if not conns_map:
            return 0.0
        conns = list(conns_map.values())
        sub_rate = self._sub_rate
        catchup = self._catchup_demand
        window = int(window)
        demands = []
        append = demands.append
        total = 0.0
        for conn in conns:
            head = parent_heads[conn.substream]
            if head < 0:
                append(0.0)
                continue
            floor = head - window + 1
            if 0 < floor and conn.next_index < floor:
                conn.next_index = floor  # blocks lost to the sliding window
            d = catchup if conn.next_index <= head else sub_rate
            append(d)
            total += d
        # fast path: an under-loaded parent satisfies every demand -- no
        # need for the O(n log n) waterfill (the common case for servers
        # and for contributor peers most of the time)
        if total <= self.upload_bps:
            rates = demands
            self.last_saturated = False
        else:
            # demands are non-negative by construction: call the fill
            # directly and skip waterfill_rates' validation pass
            if len(demands) <= _SMALL_N:
                rates = _waterfill_py(self.upload_bps, demands)
            else:
                rates = waterfill_rates(self.upload_bps, demands)
            self.last_saturated = True
        block_bits = self._block_bits
        bits_this_quantum = 0.0
        # a push updates the child, never this parent's heads: re-read them
        for conn, rate in zip(conns, rates):
            head = parent_heads[conn.substream]
            if head < 0:
                continue
            credit = conn.credit + rate * dt / block_bits
            n = int(credit)
            if n > 0:
                deliverable = head - conn.next_index + 1
                if n > deliverable:
                    n = deliverable
                if n > 0:
                    first = conn.next_index
                    conn.next_index = first + n
                    credit -= n
                    bits_this_quantum += n * block_bits
                    push(conn, first, first + n - 1)
            # Credit must not bank unboundedly while a child is caught up:
            # unused upload capacity is not storable bandwidth.
            if credit > 2.0:
                credit = 2.0
            conn.credit = credit
        self.bits_uploaded += bits_this_quantum
        return bits_this_quantum


@dataclass
class Hole:
    """A gap of blocks that can never arrive (evicted before subscription)."""

    substream: int
    first: int
    last: int

    @property
    def size(self) -> int:
        """Number of blocks covered."""
        return self.last - self.first + 1


class PlaybackState:
    """Playout pointer plus deadline accounting for the continuity index.

    The player consumes each sub-stream at one block per second starting
    from ``start_index``.  Blocks that were never received when the pointer
    passes them count as missed; the continuity index over a window is
    ``1 - missed / due``.  Holes (blocks skipped because they left a
    parent's cache before we subscribed) are recorded explicitly so they
    are charged as missed even though the contiguous head jumped over them.
    """

    __slots__ = (
        "k", "start_index", "position", "playing", "blocks_due",
        "blocks_missed", "_window_due", "_window_missed", "_watch_due",
        "_watch_missed", "_holes",
    )

    def __init__(self, n_substreams: int, start_index: int) -> None:
        if start_index < 0:
            raise ValueError("start_index must be non-negative")
        self.k = int(n_substreams)
        self.start_index = int(start_index)
        self.position = float(start_index)  # local-block playout pointer
        self.playing = False
        self.blocks_due = 0
        self.blocks_missed = 0
        self._window_due = 0
        self._window_missed = 0
        self._watch_due = 0
        self._watch_missed = 0
        self._holes: List[Hole] = []

    def start(self) -> None:
        """Start of the contiguous range."""
        self.playing = True

    def add_hole(self, substream: int, first: int, last: int) -> None:
        """Record a gap of permanently missing blocks."""
        if last >= first and last >= self.position:
            self._holes.append(Hole(substream, first, last))

    # ------------------------------------------------------------------
    def advance(self, dt: float, heads: List[int]) -> Tuple[int, int]:
        """Advance playout by ``dt`` seconds against current contiguous
        ``heads`` (local index per sub-stream).  Returns (due, missed) for
        this step."""
        if not self.playing or dt <= 0:
            return (0, 0)
        prev = self.position
        self.position = prev + dt
        lo = int(prev)          # first index whose deadline falls in (prev, now]
        hi = int(self.position)  # exclusive upper bound
        if hi <= lo:
            return (0, 0)
        # indices lo..hi-1 are due on every sub-stream
        due = (hi - lo) * self.k
        missed = 0
        for h in heads:
            # missed = due indices beyond the contiguous head
            first_missing = h + 1
            if first_missing < lo:
                first_missing = lo
            if first_missing < hi:
                missed += hi - first_missing
        # holes are *within* the contiguous range, so add them on top
        if self._holes:
            survivors: List[Hole] = []
            for hole in self._holes:
                overlap_lo = max(hole.first, lo)
                overlap_hi = min(hole.last, hi - 1)
                if overlap_hi >= overlap_lo:
                    missed += overlap_hi - overlap_lo + 1
                if hole.last >= hi:
                    survivors.append(hole)
            self._holes = survivors
        self.blocks_due += due
        self.blocks_missed += missed
        self._window_due += due
        self._window_missed += missed
        self._watch_due += due
        self._watch_missed += missed
        return (due, missed)

    # ------------------------------------------------------------------
    @property
    def continuity_index(self) -> float:
        """Lifetime continuity index (1.0 when nothing was ever due)."""
        if self.blocks_due == 0:
            return 1.0
        return 1.0 - self.blocks_missed / self.blocks_due

    def window_continuity(self, reset: bool = True) -> Optional[float]:
        """Continuity since the last call (the 5-minute QoS report value).

        Returns None when no blocks came due in the window (e.g. the node
        joined seconds ago) -- the deployed log simply lacks a QoS number
        in that case.
        """
        if self._window_due == 0:
            return None
        value = 1.0 - self._window_missed / self._window_due
        if reset:
            self._window_due = 0
            self._window_missed = 0
        return value

    def watchdog_continuity(self, reset: bool = True) -> Optional[float]:
        """Continuity since the last watchdog check -- the short-horizon
        signal the client uses to decide the stream became unwatchable.
        Independent of the 5-minute report window, so draining one never
        blinds the other."""
        if self._watch_due == 0:
            return None
        value = 1.0 - self._watch_missed / self._watch_due
        if reset:
            self._watch_due = 0
            self._watch_missed = 0
        return value

    def buffered_seconds(self, heads: List[int]) -> float:
        """Contiguous playable seconds ahead of the playout pointer."""
        combined = min(heads) + 1  # combination process: min over sub-streams
        return max(0.0, combined - self.position)
