"""Peer adaptation rules: Inequalities (1) and (2) and the cool-down timer.

Section IV.B defines two monitoring conditions for node ``A``.  With all
sequence arithmetic in sub-stream-local block indices (1 block = 1 second):

* **Inequality (1)** (out-of-synchronization, threshold ``T_s``): the
  sub-stream served by parent ``p`` must not lag the most advanced
  sub-stream at ``A`` by ``T_s`` or more.  A violation signals congestion
  or insufficient upload capacity at the parent.

* **Inequality (2)** (lagging parent, threshold ``T_p``): the parent's own
  head on the sub-stream must not lag the most advanced head among *all*
  partners by ``T_p`` or more.  A violation signals that a better-supplied
  partner exists.

Adaptation (re-selecting a parent) is allowed at most once per cool-down
period ``T_a`` (Section IV.B's chain-reaction damper).  A *qualified* new
parent must itself satisfy both inequalities at selection time; among
qualified candidates the deployed system picks uniformly at random (the
``best`` policy is the ablation variant).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.partnership import PartnerState

__all__ = [
    "CooldownTimer",
    "substream_lag",
    "inequality1_ok",
    "inequality2_ok",
    "qualified_parents",
    "choose_parent",
]


class CooldownTimer:
    """Confines a node to one adaptation per ``T_a`` (Section IV.B)."""

    __slots__ = ("_ta", "_enabled", "_last")

    def __init__(self, ta_seconds: float, enabled: bool = True) -> None:
        if ta_seconds < 0:
            raise ValueError("T_a must be non-negative")
        self._ta = float(ta_seconds)
        self._enabled = bool(enabled)
        self._last: float = float("-inf")

    def ready(self, now: float) -> bool:
        """Whether an adaptation may be performed now."""
        if not self._enabled:
            return True
        return (now - self._last) >= self._ta

    def fire(self, now: float) -> None:
        """Record that an adaptation was performed."""
        self._last = now


def substream_lag(own_heads: Sequence[int], substream: int) -> int:
    """How far ``substream`` lags the most advanced sub-stream at this node
    (local blocks).  This is the left side of Inequality (1) restricted to
    the monitored sub-stream."""
    return max(own_heads) - own_heads[substream]


def inequality1_ok(own_heads: Sequence[int], substream: int, ts_blocks: float) -> bool:
    """Inequality (1): the monitored sub-stream is within ``T_s`` of the
    most advanced sub-stream at this node."""
    return substream_lag(own_heads, substream) < ts_blocks


def inequality2_ok(
    parent_head_local: int,
    best_partner_head_local: int,
    tp_blocks: float,
) -> bool:
    """Inequality (2): the parent's head on the sub-stream is within ``T_p``
    of the best head among all partners.

    Heads are local indices; ``best_partner_head_local`` is
    ``max_head // K`` of the best partner BM.  An unknown parent head
    (``-1`` = no BM yet) never triggers -- the establishment grace period.
    """
    if parent_head_local < 0 or best_partner_head_local < 0:
        return True
    return (best_partner_head_local - parent_head_local) < tp_blocks


def qualified_parents(
    partners: Sequence[PartnerState],
    substream: int,
    own_head: int,
    best_partner_head_local: int,
    tp_blocks: float,
    geometry,
    exclude: Sequence[int] = (),
    cache_window: Optional[int] = None,
) -> List[PartnerState]:
    """Partners qualified to become the parent of ``substream``.

    A candidate must (per Section IV.B's "the selected partner must satisfy
    the two inequalities"):

    * have reported a BM (we know its heads);
    * be at least as advanced as us on the sub-stream (it can supply the
      next block we need);
    * still hold our next needed block in its cache window, when
      ``cache_window`` is given;
    * satisfy Inequality (2) as a parent: its head within ``T_p`` of the
      best partner head.
    """
    excl = set(exclude)
    k = geometry.n_substreams
    out: List[PartnerState] = []
    for state in partners:
        bm = state.bm
        if state.node_id in excl or bm is None:
            continue
        g = bm.heads[substream]  # inlined BufferMap.head_local
        head = -1 if g < 0 else g // k
        if head < own_head:
            continue
        if not inequality2_ok(head, best_partner_head_local, tp_blocks):
            continue
        if cache_window is not None and own_head + 1 < head - cache_window + 1:
            # our next needed block has already left the candidate's cache
            continue
        out.append(state)
    return out


def choose_parent(
    candidates: Sequence[PartnerState],
    substream: int,
    geometry,
    rng: np.random.Generator,
    policy: str = "random",
) -> Optional[PartnerState]:
    """Pick the new parent among qualified candidates.

    ``random`` is the deployed policy ("the peer will choose one of them
    randomly"); ``best`` picks the most advanced head and is used by the
    ablation benchmark to quantify what randomness costs/buys.
    """
    if not candidates:
        return None
    if policy == "random":
        return candidates[int(rng.integers(len(candidates)))]
    if policy == "best":
        return max(
            candidates, key=lambda s: (s.bm.head_local(substream, geometry), -s.node_id)
        )
    raise ValueError(f"unknown parent choice policy {policy!r}")
