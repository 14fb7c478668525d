"""Node-side buffering (Fig. 2): synchronization buffer and the 2K-tuple
buffer map.

A received block first lands in the per-sub-stream *synchronization buffer*,
which absorbs out-of-order arrival and exposes the contiguous head.  The
*combination process* merges the K sub-streams into one playable stream: it
advances as far as global sequence numbers are continuous and stalls at the
first sub-stream whose next block is missing (Fig. 2b).  Combined blocks
move to the *cache buffer*, a sliding window of the last ``B`` seconds from
which the node serves its children; the window is one int per node
(``PeerNode._cache_window``, ``int(cfg.buffer_seconds)`` local indices).

The *buffer map* (BM) is the 2K-tuple exchanged between partners: the first
K entries are the latest received global sequence numbers per sub-stream,
the second K entries flag which sub-streams the sender subscribes to from
the receiving partner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.core.blocks import StreamGeometry

__all__ = ["SyncBuffer", "BufferMap"]


class SyncBuffer:
    """Per-sub-stream reassembly buffer.

    Tracks the contiguous head of one sub-stream and a bounded set of
    out-of-order blocks beyond it.  ``count`` is the number of blocks in
    the contiguous prefix, i.e. local indices ``start .. start+count-1``
    are all present (``start`` supports mid-stream joins, where history
    before the join offset never existed).
    """

    __slots__ = ("_start", "_count", "head", "_pending")

    def __init__(self, start: int = 0) -> None:
        if start < 0:
            raise ValueError("start must be non-negative")
        self._start = start
        self._count = 0
        # local index of the newest contiguous block; ``start - 1`` if
        # empty.  A maintained attribute (not a property): the push data
        # plane reads it on every delivered interval.
        self.head = start - 1
        self._pending: set[int] = set()

    @property
    def start(self) -> int:
        """Start of the contiguous range."""
        return self._start

    @property
    def count(self) -> int:
        """Blocks in the contiguous prefix."""
        return self._count

    @property
    def pending(self) -> frozenset[int]:
        """Out-of-order blocks waiting for a gap to fill."""
        return frozenset(self._pending)

    def receive(self, local_index: int) -> int:
        """Insert one block; returns how far the contiguous head advanced.

        Duplicate and pre-``start`` blocks are ignored (the deployed system
        tolerates both: a re-selected parent re-pushes from the requested
        offset).
        """
        if local_index < self._start + self._count:
            return 0
        advanced = 0
        if local_index == self._start + self._count:
            self._count += 1
            advanced += 1
            # drain any now-contiguous pending blocks
            while (self._start + self._count) in self._pending:
                self._pending.remove(self._start + self._count)
                self._count += 1
                advanced += 1
            self.head += advanced
        else:
            self._pending.add(local_index)
        return advanced

    def receive_range(self, first: int, last: int) -> int:
        """Insert blocks ``first..last`` inclusive; returns head advance.

        Batch form used by the push data plane (a parent delivers an
        interval of blocks per scheduling quantum, never objects per block).
        """
        if last < first:
            raise ValueError("empty range")
        next_needed = self._start + self._count
        if first <= next_needed and not self._pending:
            # contiguous extension, no gaps to bridge: bulk advance (the
            # push data plane hits this path almost always)
            if last < next_needed:
                return 0
            advanced = last - next_needed + 1
            self._count += advanced
            self.head += advanced
            return advanced
        advanced = 0
        for idx in range(max(first, next_needed), last + 1):
            advanced += self.receive(idx)
        return advanced


@dataclass(frozen=True, slots=True)
class BufferMap:
    """The 2K-tuple of Fig. 2: latest sequence numbers + subscriptions.

    ``heads`` holds, per sub-stream, the latest received *global* sequence
    number (``-1`` when nothing received yet).  ``subscriptions`` flags the
    sub-streams the BM's sender currently pulls from the partner it sends
    the BM to.  ``max_head`` is the most advanced head (the ``m`` of
    Section IV.A), computed once when the map is built: the map is
    frozen, and partner adaptation reads it once per partner per control
    tick.  It takes no part in ``==``, ``hash`` or ``repr``.

    Slotted: every node builds one map per control tick, so construction
    and attribute reads are on the detailed engine's per-event path.
    """

    heads: tuple[int, ...]
    subscriptions: tuple[bool, ...]
    max_head: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.heads) != len(self.subscriptions):
            raise ValueError("heads and subscriptions must have length K each")
        if len(self.heads) == 0:
            raise ValueError("buffer map needs at least one sub-stream")
        if any(h < -1 for h in self.heads):
            raise ValueError("heads must be >= -1")
        _set_max_head(self, max(self.heads))

    @property
    def k(self) -> int:
        """Number of sub-streams."""
        return len(self.heads)

    def head_local(self, substream: int, geometry: StreamGeometry) -> int:
        """Latest received *local* index on ``substream`` (-1 if none)."""
        g = self.heads[substream]
        return -1 if g < 0 else geometry.local_index(g)

    def as_tuple(self) -> tuple[int, ...]:
        """Flat 2K-tuple wire representation."""
        return tuple(self.heads) + tuple(int(s) for s in self.subscriptions)

    @classmethod
    def from_tuple(cls, values: Sequence[int]) -> "BufferMap":
        """Parse the flat 2K-tuple representation."""
        if len(values) % 2 != 0 or len(values) == 0:
            raise ValueError("buffer map tuple must have even, positive length")
        k = len(values) // 2
        heads = tuple(int(v) for v in values[:k])
        subs = tuple(bool(v) for v in values[k:])
        return cls(heads=heads, subscriptions=subs)

    @classmethod
    def trusted(cls, heads: tuple, subscriptions: tuple) -> "BufferMap":
        """Construct without ``__post_init__`` re-validation.

        For internal builders that guarantee the invariants by construction
        (equal-length non-empty tuples, heads >= -1).  The validated
        ``BufferMap(...)`` path remains the constructor for anything parsed
        from the wire or built by user code.
        """
        bm = cls.__new__(cls)
        _set_heads(bm, heads)
        _set_subscriptions(bm, subscriptions)
        _set_max_head(bm, max(heads))
        return bm

    @classmethod
    def from_local_heads(
        cls,
        local_heads: Iterable[int],
        geometry: StreamGeometry,
        subscriptions: Optional[Sequence[bool]] = None,
    ) -> "BufferMap":
        """Build from per-sub-stream local indices (-1 = nothing yet).

        This is the per-control-tick hot constructor, so the framing
        conversion is inlined (``global = local * K + sub``) and the result
        is built through :meth:`trusted` -- every invariant
        ``__post_init__`` would re-check holds by construction here, except
        the two cheap ones still validated below.
        """
        k = geometry.n_substreams
        heads = tuple([-1 if h < 0 else h * k + sub
                       for sub, h in enumerate(local_heads)])
        n = len(heads)
        if n == 0:
            raise ValueError("buffer map needs at least one sub-stream")
        if n > k:
            raise ValueError(f"substream {k} out of range [0, {k})")
        if subscriptions is None:
            subs = (False,) * n
        else:
            subs = tuple([bool(s) for s in subscriptions])
            if len(subs) != n:
                raise ValueError("heads and subscriptions must have length K each")
        return cls.trusted(heads, subs)


# Slot setters: a frozen map is written only here, at construction, and a
# descriptor's ``__set__`` skips the frozen ``__setattr__`` and its lookup.
_set_heads = BufferMap.heads.__set__
_set_subscriptions = BufferMap.subscriptions.__set__
_set_max_head = BufferMap.max_head.__set__
