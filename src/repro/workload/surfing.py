"""Channel-surfing audience for multi-channel deployments.

Viewers pick a program with Zipf-skewed popularity ("the users contact a
web server to select the program", Section V.A), watch for an intended
duration, and may *zap* to another channel instead of leaving -- a new
session on a different overlay, which in the platform-wide log looks
exactly like the measured join/leave churn.  Staggered per-channel
program endings recreate Fig. 5a's partial audience collapse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.multichannel import MultiChannelDeployment
from repro.core.node import PeerNode, SessionOutcome
from repro.telemetry.reports import LeaveReason
from repro.workload.sessions import SessionDurationModel

__all__ = ["ChannelAudience", "zipf_popularity"]


def zipf_popularity(n_channels: int, skew: float = 1.0) -> np.ndarray:
    """Zipf channel-popularity weights (normalized)."""
    if n_channels < 1:
        raise ValueError("need at least one channel")
    if skew < 0:
        raise ValueError("skew must be non-negative")
    ranks = np.arange(1, n_channels + 1, dtype=float)
    weights = ranks ** (-skew)
    return weights / weights.sum()


@dataclass
class _Viewer:
    user_id: int
    deadline: float
    attempts: int = 0
    channel: int = -1
    #: the live session's node; None between sessions and once done
    node: Optional[PeerNode] = None
    done: bool = False


class ChannelAudience:
    """Drives a zapping audience against a multi-channel deployment."""

    def __init__(
        self,
        deployment: MultiChannelDeployment,
        *,
        arrival_times: Sequence[float],
        duration_model: Optional[SessionDurationModel] = None,
        popularity_skew: float = 1.0,
        zap_probability: float = 0.3,
        zap_after_s: float = 120.0,
        max_retries: int = 3,
        retry_backoff_s: float = 5.0,
    ) -> None:
        if not (0.0 <= zap_probability <= 1.0):
            raise ValueError("zap_probability must be a probability")
        self.deployment = deployment
        self.engine = deployment.engine
        self._rng = deployment.hub.stream("surfing")
        self.popularity = zipf_popularity(deployment.n_channels, popularity_skew)
        self.zap_probability = float(zap_probability)
        self.zap_after_s = float(zap_after_s)
        self.max_retries = int(max_retries)
        self.retry_backoff_s = float(retry_backoff_s)
        durations = (duration_model or SessionDurationModel()).sample(
            deployment.hub.stream("surfing.durations"), len(arrival_times)
        )
        self.viewers: List[_Viewer] = []
        for i, (t, dur) in enumerate(zip(arrival_times, durations)):
            viewer = _Viewer(user_id=i, deadline=float(t) + float(dur))
            self.viewers.append(viewer)
            self.engine.schedule_at(float(t), lambda v=viewer: self._join(v))
        self.zap_count = 0

    # ------------------------------------------------------------------
    def _pick_channel(self, exclude: int = -1) -> int:
        weights = self.popularity.copy()
        if 0 <= exclude < weights.size and weights.size > 1:
            weights[exclude] = 0.0
            weights = weights / weights.sum()
        return int(self._rng.choice(weights.size, p=weights))

    def _join(self, viewer: _Viewer, channel: Optional[int] = None) -> None:
        if viewer.done:
            return
        now = self.engine.now
        if now >= viewer.deadline:
            viewer.done = True
            return
        if channel is None:
            channel = self._pick_channel()
        viewer.channel = channel
        viewer.attempts += 1
        system = self.deployment.channel(channel)
        node = system.spawn_peer(user_id=viewer.user_id,
                                 attempt=viewer.attempts)
        node.on_session_end = lambda n, v=viewer: self._session_ended(v, n)
        viewer.node = node
        # schedule the zap-or-stay decision and the final departure; the
        # events name the session, not the node, so they do not keep a
        # departed node alive
        self.engine.schedule(
            self.zap_after_s,
            lambda v=viewer, s=node.session_id: self._maybe_zap(v, s)
        )
        self.engine.schedule_at(
            viewer.deadline,
            lambda v=viewer, s=node.session_id: self._depart(v, s)
        )

    def _maybe_zap(self, viewer: _Viewer, session_id: int) -> None:
        node = viewer.node
        if (viewer.done or node is None or node.session_id != session_id
                or not node.alive):
            return
        if self.deployment.n_channels < 2:
            return
        if self._rng.random() < self.zap_probability:
            self.zap_count += 1
            target = self._pick_channel(exclude=viewer.channel)
            node.on_session_end = None  # the zap handles the follow-up
            node.leave(LeaveReason.NORMAL)
            viewer.node = None
            self._join(viewer, channel=target)

    def _depart(self, viewer: _Viewer, session_id: int) -> None:
        node = viewer.node
        if viewer.done or node is None or node.session_id != session_id:
            return
        viewer.done = True
        if node.alive:
            node.on_session_end = None
            node.leave(LeaveReason.NORMAL)
        viewer.node = None

    def _session_ended(self, viewer: _Viewer, node: PeerNode) -> None:
        viewer.node = None
        if viewer.done:
            return
        if node.outcome in (SessionOutcome.NORMAL, SessionOutcome.PROGRAM_END):
            viewer.done = True
            return
        # failed/impatient: retry on a (possibly different) channel
        if viewer.attempts > self.max_retries:
            viewer.done = True
            return
        backoff = self.retry_backoff_s * (0.5 + self._rng.random())
        self.engine.schedule(backoff, lambda v=viewer: self._join(v))
