"""Session reconstruction from activity reports (Section V.C).

"For each pair of join/leave event, a *session* is counted.  The session
duration is the time between join and leave events.  For a normal session,
the sequences of reported events include: (1) join, (2) start
subscription, (3) media player ready, and (4) leave."

This module rebuilds exactly that view from the raw log: sessions that
never reach readiness, sessions with missing leave events (abrupt
departures -- their duration is unknowable from the log, as in the real
data set), retry chains linked by user id, and the timing metrics of
Figs. 5, 6, 7 and 10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.telemetry.reports import LeaveReason

__all__ = ["Session", "SessionTable"]


@dataclass(slots=True)
class Session:
    """One reconstructed session (all times are *report* times)."""

    session_id: int
    user_id: int
    node_id: int
    attempt: int
    address_public: bool
    join_time: Optional[float] = None
    subscription_time: Optional[float] = None
    ready_time: Optional[float] = None
    leave_time: Optional[float] = None
    leave_reason: Optional[LeaveReason] = None

    # --- derived metrics -------------------------------------------------
    @property
    def is_normal(self) -> bool:
        """A *normal session* reported all four events in order."""
        return (
            self.join_time is not None
            and self.subscription_time is not None
            and self.ready_time is not None
            and self.leave_time is not None
        )

    @property
    def duration(self) -> Optional[float]:
        """Join-to-leave time; None when either endpoint is missing."""
        if self.join_time is None or self.leave_time is None:
            return None
        return self.leave_time - self.join_time

    @property
    def start_subscription_delay(self) -> Optional[float]:
        """join-to-subscription delay (None if unknown)."""
        if self.join_time is None or self.subscription_time is None:
            return None
        return self.subscription_time - self.join_time

    @property
    def ready_delay(self) -> Optional[float]:
        """The *media player ready time* of Fig. 6."""
        if self.join_time is None or self.ready_time is None:
            return None
        return self.ready_time - self.join_time

    @property
    def buffering_delay(self) -> Optional[float]:
        """ready - start_subscription: the buffer-fill wait of Fig. 6."""
        if self.subscription_time is None or self.ready_time is None:
            return None
        return self.ready_time - self.subscription_time


class SessionTable:
    """All sessions of a log, with the paper's aggregate views.

    Built by :class:`repro.analysis.streaming.SessionTableFold`:
    ``(table,) = fold_log(log, SessionTableFold())``.
    """

    def __init__(self, sessions: Dict[int, Session]) -> None:
        self._sessions = sessions

    # --- access -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._sessions)

    def __iter__(self):
        return iter(self._sessions.values())

    def get(self, session_id: int) -> Optional[Session]:
        """Look up by id (None when absent)."""
        return self._sessions.get(session_id)

    def sessions(self) -> List[Session]:
        """All reconstructed sessions."""
        return list(self._sessions.values())

    def normal_sessions(self) -> List[Session]:
        """Sessions that reported all four events."""
        return [s for s in self._sessions.values() if s.is_normal]

    # --- Fig. 5: concurrent users over time ---------------------------------
    def concurrent_users(
        self, *, t0: float = 0.0, t1: Optional[float] = None, step_s: float = 60.0
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Concurrent-session counts on a regular grid.

        Sessions without a leave event are treated as still present until
        ``t1`` -- matching the paper's methodology, where abrupt departures
        inflate the apparent tail population slightly.
        """
        joins = [s.join_time for s in self._sessions.values()
                 if s.join_time is not None]
        if t1 is None:
            all_t = joins + [
                s.leave_time for s in self._sessions.values()
                if s.leave_time is not None
            ]
            t1 = max(all_t) + step_s if all_t else t0 + step_s
        grid = np.arange(t0, t1 + step_s / 2, step_s)
        # a session counts from the first grid point past its join to the
        # first past its leave; +1/-1 per endpoint, summed in any order,
        # is exact
        leaves = np.array([s.leave_time for s in self._sessions.values()
                           if s.join_time is not None
                           and s.leave_time is not None], dtype=float)
        delta = np.zeros(grid.size + 1)
        np.add.at(delta, np.searchsorted(
            grid, np.array(joins, dtype=float), side="right"), 1)
        np.add.at(delta, np.searchsorted(grid, leaves, side="right"), -1)
        counts = np.cumsum(delta[:-1])
        return grid, counts

    # --- Figs. 6/7: join timing ------------------------------------------------
    def subscription_delays(self) -> List[float]:
        """All observed start-subscription delays (s)."""
        out = [s.start_subscription_delay for s in self._sessions.values()]
        return [d for d in out if d is not None]

    def ready_delays(self, *, join_after: float = -np.inf,
                     join_before: float = np.inf) -> List[float]:
        """Media-player-ready times, optionally windowed by join time
        (Fig. 7 slices the day into four periods this way)."""
        out = []
        for s in self._sessions.values():
            d = s.ready_delay
            if d is None or s.join_time is None:
                continue
            if join_after <= s.join_time < join_before:
                out.append(d)
        return out

    def buffering_delays(self) -> List[float]:
        """All observed ready-minus-subscription waits (s)."""
        out = [s.buffering_delay for s in self._sessions.values()]
        return [d for d in out if d is not None]

    # --- Fig. 10: durations & retries -------------------------------------------
    def durations(self) -> List[float]:
        """All observed join-to-leave durations (s)."""
        out = [s.duration for s in self._sessions.values()]
        return [d for d in out if d is not None]

    def short_session_fraction(self, threshold_s: float = 60.0) -> float:
        """Fraction of sessions shorter than the threshold."""
        durs = self.durations()
        if not durs:
            return float("nan")
        return sum(1 for d in durs if d < threshold_s) / len(durs)

    def retry_histogram(self) -> Dict[int, int]:
        """retries -> user count, from join events linked by user id.

        A user with ``n`` join events retried ``n - 1`` times; this is how
        the paper derives Fig. 10b (it cannot see intent, only joins).
        """
        joins_per_user: Dict[int, int] = {}
        for s in self._sessions.values():
            if s.join_time is not None:
                joins_per_user[s.user_id] = joins_per_user.get(s.user_id, 0) + 1
        hist: Dict[int, int] = {}
        for n in joins_per_user.values():
            hist[n - 1] = hist.get(n - 1, 0) + 1
        return hist
