"""Join-funnel analysis: where sessions stall in the join pipeline.

Section V.C defines the session event chain -- join, start-subscription,
media-player-ready, leave -- and Sections V.C/V.E discuss the users that
fall out before readiness (impatient re-tries, flash-crowd victims).
This module quantifies the funnel from the log: how many sessions reach
each stage, the per-stage conversion, and how the funnel tightens with
load -- the diagnostic the paper's "possible improvement" paragraph calls
for when tuning the mCache policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.sessions import SessionTable

__all__ = ["JoinFunnel", "funnel_of_table"]


@dataclass(frozen=True)
class JoinFunnel:
    """Session counts at each stage of the Section V.C event chain."""

    joined: int
    subscribed: int
    ready: int
    completed: int  # reached ready AND reported a leave (a normal session)

    def __post_init__(self) -> None:
        if not (self.joined >= self.subscribed >= self.ready >= self.completed
                >= 0):
            raise ValueError("funnel stages must be monotone non-increasing")

    def rows(self) -> List[Tuple[str, int, str]]:
        """(stage, sessions, conversion-from-join) table rows."""
        out = []
        for name, count in (
            ("join", self.joined),
            ("start-subscription", self.subscribed),
            ("player-ready", self.ready),
            ("normal (ready + leave)", self.completed),
        ):
            frac = count / self.joined if self.joined else float("nan")
            out.append((name, count, f"{frac * 100:.1f}%"))
        return out


def funnel_of_table(table: SessionTable) -> JoinFunnel:
    """Count the funnel stages of an already-reconstructed table (what
    :class:`~repro.analysis.streaming.JoinFunnelFold` returns)."""
    joined = subscribed = ready = completed = 0
    for sess in table:
        if sess.join_time is None:
            continue
        joined += 1
        if sess.subscription_time is not None:
            subscribed += 1
            if sess.ready_time is not None:
                ready += 1
                if sess.leave_time is not None:
                    completed += 1
    return JoinFunnel(joined=joined, subscribed=subscribed, ready=ready,
                      completed=completed)
