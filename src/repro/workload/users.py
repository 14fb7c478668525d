"""User agents: the human behind the peer.

A *user* arrives once, intends to watch for some duration, and may run
several *sessions*: when a join attempt times out (impatience) or the
stream becomes unwatchable (stall departure), the user re-tries after a
short backoff -- "many users initiate joining multiple times before
successfully obtaining the video program" (Section V.E, Fig. 10b).

The agent also implements departures: a scheduled normal leave when the
intended watch time is up, probabilistic leaves at program endings (the
22:00 cliff), and a configurable share of *abrupt* departures that send no
leave report -- the log-visibility artefact Section V.D leans on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.node import PeerNode, SessionOutcome
from repro.core.system import PeerHost
from repro.telemetry.reports import LeaveReason
from repro.workload.sessions import ProgramSchedule, SessionDurationModel

__all__ = ["UserAgent", "UserPopulation"]


@dataclass(slots=True)
class SessionRecord:
    """Ground-truth record of one session of one user (simulator-side).

    The end fields are copied off the node when the session ends, so the
    record outlives the node."""

    session_id: int
    attempt: int
    ended_at: Optional[float] = None
    outcome: Optional[SessionOutcome] = None
    player_ready_at: Optional[float] = None


class UserAgent:
    """One user: arrival, watch intent, retries, departure."""

    def __init__(
        self,
        system: PeerHost,
        *,
        user_id: int,
        arrival_time: float,
        intended_duration_s: float,
        max_retries: int,
        retry_backoff_s: float,
        silent_leave_prob: float = 0.1,
    ) -> None:
        self.system = system
        self.user_id = user_id
        self.arrival_time = float(arrival_time)
        self.departure_deadline = self.arrival_time + float(intended_duration_s)
        self.max_retries = int(max_retries)
        self.retry_backoff_s = float(retry_backoff_s)
        self.silent_leave_prob = float(silent_leave_prob)
        self._rng = system.rng.stream(f"user.{user_id}")
        self.attempts = 0
        self.sessions: List[SessionRecord] = []
        #: the live session's node; None between sessions and once done
        #: (an ended session is read from its :class:`SessionRecord`)
        self.node: Optional[PeerNode] = None
        self.done = False

    # ------------------------------------------------------------------
    def schedule_arrival(self) -> None:
        """Put the user's first join on the engine."""
        self.system.engine.schedule_at(self.arrival_time, self._join)

    def _join(self) -> None:
        if self.done:
            return
        now = self.system.engine.now
        if now >= self.departure_deadline:
            self.done = True  # patience/backoff ate the whole watch window
            return
        self.attempts += 1
        node = self.system.spawn_peer(user_id=self.user_id, attempt=self.attempts)
        node.on_session_end = self._on_session_end
        self.node = node
        self.sessions.append(
            SessionRecord(session_id=node.session_id, attempt=self.attempts)
        )
        # normal departure when the intended watch time is up; the event
        # names the session, not the node, so it does not keep a departed
        # node alive until the deadline
        self.system.engine.schedule_at(
            self.departure_deadline,
            lambda s=node.session_id: self._depart_normally(s),
        )

    def _depart_normally(self, session_id: int) -> None:
        node = self.node
        if node is not None and node.session_id == session_id and node.alive:
            silent = bool(self._rng.random() < self.silent_leave_prob)
            node.leave(LeaveReason.NORMAL, silent=silent)

    def program_ended(self, leave_probability: float) -> None:
        """A program just finished; this user leaves with the given
        probability (and does not rejoin)."""
        if self.done or self.node is None or not self.node.alive:
            return
        if self._rng.random() < leave_probability:
            self.done = True
            self.node.leave(LeaveReason.PROGRAM_END)

    # ------------------------------------------------------------------
    def _on_session_end(self, node: PeerNode) -> None:
        record = self.sessions[-1]
        record.ended_at = self.system.engine.now
        record.outcome = node.outcome
        record.player_ready_at = node.player_ready_at
        self.node = None
        if self.done:
            return
        if node.outcome in (SessionOutcome.NORMAL, SessionOutcome.PROGRAM_END):
            self.done = True
            return
        # impatient/failed: retry while the user still wants to watch
        if self.attempts > self.max_retries:
            self.done = True
            return
        backoff = self.retry_backoff_s * (0.5 + self._rng.random())
        self.system.engine.schedule(backoff, self._join)

    # ------------------------------------------------------------------
    @property
    def ever_played(self) -> bool:
        """Whether the user watched: a session that ended normally or at a
        program end, or a latest session that reached playback."""
        if any(
            s.outcome in (SessionOutcome.NORMAL, SessionOutcome.PROGRAM_END)
            for s in self.sessions
        ):
            return True
        if self.node is not None:
            return self.node.player_ready_at is not None
        return bool(self.sessions) and \
            self.sessions[-1].player_ready_at is not None

    @property
    def retry_count(self) -> int:
        """Join attempts beyond the first (the Fig. 10b statistic)."""
        return max(0, self.attempts - 1)


class UserPopulation:
    """Drives a whole audience against one system.

    Construction samples nothing; :meth:`attach` schedules every arrival,
    program-ending wave and departure on the system's engine.
    """

    def __init__(
        self,
        system: PeerHost,
        *,
        arrival_times: np.ndarray,
        durations: Optional[np.ndarray] = None,
        duration_model: Optional[SessionDurationModel] = None,
        schedule: Optional[ProgramSchedule] = None,
        silent_leave_prob: float = 0.1,
        user_id_base: int = 0,
    ) -> None:
        self.system = system
        self.duration_model = duration_model or SessionDurationModel()
        self.schedule = schedule or ProgramSchedule()
        self.users: List[UserAgent] = []
        if durations is None:
            # legacy path: sample here from the system hub's canonical
            # stream -- byte-identical to what repro.runtime pre-samples
            # from a standalone hub with the same seed
            rng = system.rng.stream("workload.durations")
            durations = self.duration_model.sample(rng, len(arrival_times))
        elif len(durations) != len(arrival_times):
            raise ValueError("durations must align with arrival_times")
        cfg = system.cfg
        for i, (t, dur) in enumerate(zip(np.asarray(arrival_times), durations)):
            self.users.append(
                UserAgent(
                    system,
                    user_id=user_id_base + i,
                    arrival_time=float(t),
                    intended_duration_s=float(dur),
                    max_retries=cfg.max_join_retries,
                    retry_backoff_s=cfg.retry_backoff_s,
                    silent_leave_prob=silent_leave_prob,
                )
            )
        self._attached = False

    def attach(self) -> None:
        """Schedule all arrivals and program endings.  Idempotent-guarded."""
        if self._attached:
            raise RuntimeError("population already attached")
        self._attached = True
        for user in self.users:
            user.schedule_arrival()
        for time_s, prob in self.schedule.endings:
            self.system.engine.schedule_at(
                time_s, lambda p=prob: self._program_ending(p)
            )

    def _program_ending(self, leave_probability: float) -> None:
        for user in self.users:
            user.program_ended(leave_probability)

    # --- ground-truth statistics --------------------------------------------
    def retry_histogram(self) -> dict[int, int]:
        """retries -> number of users (only users whose arrival has passed)."""
        now = self.system.engine.now
        hist: dict[int, int] = {}
        for user in self.users:
            if user.arrival_time > now:
                continue
            hist[user.retry_count] = hist.get(user.retry_count, 0) + 1
        return hist

    def success_fraction(self) -> float:
        """Fraction of arrived users that ever reached playback."""
        now = self.system.engine.now
        arrived = [u for u in self.users if u.arrival_time <= now]
        if not arrived:
            return float("nan")
        return sum(1 for u in arrived if u.ever_played) / len(arrived)
