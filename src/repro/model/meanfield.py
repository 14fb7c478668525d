"""Mean-field ODE backend: population dynamics at O(1) cost in N.

The third engine.  Where the detailed engine tracks protocol messages
and the fluid engine tracks per-peer arrays, this backend integrates
*population-level* mean-field equations built from the paper's own
adaptation model (Section IV.C, :mod:`repro.model.dynamics`), in the
spirit of the swarming mean-field treatment of KhudaBukhsh et al.
(PAPERS.md): the per-peer stochastic system converges, as N grows, to a
deterministic flow over class-stratified population densities.

State and flows
---------------
The population splits into stage stocks -- joining (bootstrap control),
buffering (filling the player buffer), playing -- stratified by
connectivity class ``c``.  Per step ``dt``:

* **Supply** ``S = S_servers + sum_c P_c * u_c * e_c`` where ``u_c`` is
  the class's mean upload in sub-stream units (capped by the children
  cap ``M*K``) and ``e_c`` its reachability (1 for contributor classes,
  ``nat_parent_prob`` for NAT/firewall) -- the same discount the fluid
  engine applies per candidate.
* **Demand** is the engines' two-tier water-fill taken to its population
  limit: ``K*(P+B)`` connections, playing connections demanding 1
  block/s and buffering connections ``catchup_factor``.  The closed-form
  water level ``L`` gives the per-connection rates ``r_play = min(L,1)``
  and ``r_buf = min(L, catchup_factor)``.
* **Continuity** is the degraded-rate dynamics (Eq. 5) in the limit:
  blocks arrive before their deadline at rate ``r_play`` of the nominal
  rate, so the instantaneous continuity index is ``clip(r_play, 0, 1)``.
  A population deficit ``l`` (blocks behind, per playing peer) grows at
  ``K*(1 - c_inst)`` while starved and drains at the Eq. 3 catch-up rate
  ``l / catchup_time(l, r_up, R/K)`` when supply allows.
* **Abandonment** (Eq. 4): while oversubscribed, a playing peer's slack
  to the ``T_s`` out-of-sync threshold erodes in
  ``abandon_time(T_s, r_play, R/K)`` seconds; the implied hazard
  ``1/t_down`` drives failure departures (which retry with backoff, up
  to ``max_join_retries``), the mechanism behind the paper's Fig. 10
  retry tail.
* **Arrival/departure forcing** comes from the *sampled* workload
  realization -- the same arrays the other engines consume -- so the
  audience trajectory is common-random-number comparable across engines.

Telemetry: the characteristic panel
-----------------------------------
Analysis code consumes logs, not engine internals, so the backend
solves the transport part of the mean-field equations by the method of
characteristics: a panel of up to ``max_logged_users`` representative
users (an evenly strided sample of the workload, each carrying weight
``N/M``) rides the population rates -- identical deterministic fill and
hazard rates for every panel member, per-member phases for report
cadence -- and emits the standard activity/QoS/traffic/partner reports.
At parity scale the panel is the whole audience and the log is complete;
at millions of users the log is a stratified sample (as the measured
system's own log servers effectively were) while
:meth:`MeanFieldBackend.snapshot_metrics` reports exact population
numbers.

Validity limits
---------------
The mean-field limit drops per-peer variance: no overlay topology, no
per-parent competition (Eq. 6 enters only through the calibrated
bands), no heavy-tailed outliers.  Expect tight agreement on
population-scale metrics (peak audience, mean continuity) and only
order-of-magnitude agreement on tail statistics (retries, stalls) --
exactly the split the parity tolerance bands encode.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.fastsim import FastSimConfig
from repro.fastsim.engine import PHASE_TIMING_ENV
from repro.model.dynamics import abandon_time, catchup_time
from repro.network.capacity import CapacityModel
from repro.network.connectivity import ConnectivityClass, ConnectivityMix
from repro.sim.rng import RngHub
from repro.telemetry.reports import (
    ActivityEvent,
    ActivityReport,
    LeaveReason,
    PartnerReport,
    QoSReport,
    TrafficReport,
)
from repro.telemetry.server import LogServer

__all__ = [
    "MeanFieldConfig",
    "MeanFieldBackend",
    "PHASE_NAMES",
    "PHASE_TOTALS",
    "reset_phase_totals",
]

#: step phases, in execution order (``--engine ode`` profile breakdown)
PHASE_NAMES: Tuple[str, ...] = (
    "forcing", "waterfill", "continuity", "transitions",
    "traffic", "departures", "reports",
)

#: cumulative wall seconds per phase, across every backend instance in
#: this process; populated only when ``REPRO_PROFILE_PHASES`` is set
PHASE_TOTALS: Dict[str, float] = {}


def reset_phase_totals() -> None:
    """Clear the module-level phase accumulator."""
    PHASE_TOTALS.clear()

# panel member stages
_PENDING, _JOINING, _BUFFERING, _PLAYING, _RETRY_WAIT, _LEFT = 0, 1, 2, 3, 4, 5

_CONTRIBUTOR = (ConnectivityClass.DIRECT, ConnectivityClass.UPNP)
_PUBLIC = (ConnectivityClass.DIRECT, ConnectivityClass.FIREWALL)


@dataclass(frozen=True)
class MeanFieldConfig:
    """Integration knobs for the mean-field backend."""

    dt: float = 1.0                 # integration step, seconds
    max_logged_users: int = 25_000  # characteristic-panel cap (log size)
    catchup_factor: float = 16.0    # buffering-tier demand multiplier
    nat_parent_prob: float = FastSimConfig.nat_parent_prob  # reachability
                                    # discount for NAT/firewall upload supply
                                    # (same constant the fluid engine uses
                                    # per sampled candidate)

    def __post_init__(self) -> None:
        # each check is written so that NaN fails it
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.max_logged_users >= 1:
            raise ValueError("max_logged_users must be >= 1")
        if not self.catchup_factor >= 1:
            raise ValueError("catchup_factor must be >= 1")
        if not (0.0 <= self.nat_parent_prob <= 1.0):
            raise ValueError("nat_parent_prob must be a probability")


class MeanFieldBackend:
    """Population-ODE engine behind the :class:`StreamingBackend` contract."""

    name = "ode"

    def __init__(self, scenario, seed: int = 0, *,
                 ode: Optional[MeanFieldConfig] = None) -> None:
        self.scenario = scenario
        self.seed = int(seed)
        self.cfg = scenario.cfg
        self.ode = ode or MeanFieldConfig()
        self.mix = scenario.connectivity_mix or ConnectivityMix()
        self.capacity_model = scenario.capacity_model or CapacityModel()
        self.rng = RngHub(seed)
        self._rng = self.rng.stream("meanfield")
        self.log = LogServer()
        self.now = 0.0
        self.steps_run = 0
        self.phase_timing = bool(os.environ.get(PHASE_TIMING_ENV))

        cfg = self.cfg
        # class-stratified mean-field supply parameters: mean upload in
        # sub-stream units, capped by the children cap, discounted by
        # reachability (contributor classes serve freely; NAT/firewall
        # only over partnerships they initiated)
        child_cap = float(cfg.max_partners * cfg.n_substreams)
        self._classes = list(self.mix.fractions)
        self._class_frac = np.array(
            [self.mix.fractions[c] for c in self._classes], dtype=float)
        u = np.array(
            [min(self.capacity_model.mean_upload(c)
                 / cfg.substream_rate_bps, child_cap)
             for c in self._classes], dtype=float)
        e = np.array(
            [1.0 if c in _CONTRIBUTOR else self.ode.nat_parent_prob
             for c in self._classes], dtype=float)
        self._class_supply = u * e        # usable slots per playing peer
        server_cap = float(cfg.server_max_partners * cfg.n_substreams)
        self._server_supply = cfg.n_servers * min(
            cfg.upload_slots(cfg.server_upload_bps), server_cap)

        # population ODE state (exact, O(#classes) memory)
        self.deficit_blocks = 0.0         # l: mean blocks behind, per peer
        self._continuity_integral = 0.0   # C(t) = int c_inst dt
        self._play_time = 0.0             # int 1{playing>0} dt
        self._cont_play_integral = 0.0    # int c_inst over play time
        self.sessions_spawned = 0
        self._c_inst = 1.0

        # workload (applied once) and program endings
        self._times: Optional[np.ndarray] = None
        self._durations: Optional[np.ndarray] = None
        self._endings: List[Tuple[float, float]] = []
        self._weight = 1.0
        self._materialized = False

    # ------------------------------------------------------------------
    # workload API
    # ------------------------------------------------------------------
    def apply_workload(self, times: np.ndarray, durations: np.ndarray) -> None:
        """Register the sampled audience (forcing terms of the ODE)."""
        if self._times is not None:
            raise RuntimeError("workload already applied")
        times = np.asarray(times, dtype=float)
        durations = np.asarray(durations, dtype=float)
        if times.shape != durations.shape:
            raise ValueError("times and durations must align")
        order = np.argsort(times, kind="stable")
        self._times = times[order]
        self._durations = durations[order]

    def add_program_ending(self, time_s: float, leave_probability: float) -> None:
        """Schedule a program-end departure wave."""
        if self._materialized:
            raise RuntimeError("cannot add program endings after run()")
        self._endings.append((float(time_s), float(leave_probability)))

    # ------------------------------------------------------------------
    # characteristic panel
    # ------------------------------------------------------------------
    def _materialize(self) -> None:
        if self._materialized:
            return
        if self._times is None:
            raise RuntimeError("apply_workload() must be called before run()")
        self._materialized = True
        self._endings.sort(reverse=True)
        n = int(self._times.size)
        m = min(n, self.ode.max_logged_users)
        if n:
            # evenly spaced and nondecreasing, so dropping repeats of the
            # previous index is np.unique -- without the numpy.ma import
            # np.unique makes on first call, which would land inside run()
            idx = np.linspace(0, n - 1, m).astype(np.int64)
            pick = idx[np.r_[True, idx[1:] != idx[:-1]]]
        else:
            pick = np.zeros(0, dtype=np.int64)
        m = int(pick.size)
        self._weight = (n / m) if m else 1.0
        self.n_users = n
        self.m_panel = m

        rng = self._rng
        self.t_arr = self._times[pick]
        self.deadline = self.t_arr + self._durations[pick]
        self.user_id = pick
        self.stage = np.full(m, _PENDING, dtype=np.int8)
        self.attempt = np.ones(m, dtype=np.int32)
        self.joined_at = np.zeros(m, dtype=np.float64)
        self.buffered = np.zeros(m, dtype=np.float64)
        self.ever_ready = np.zeros(m, dtype=bool)
        self.retry_at = np.full(m, np.inf, dtype=np.float64)
        self.session_id = np.zeros(m, dtype=np.int64)
        self.retries = np.zeros(m, dtype=np.int32)
        # class draw per panel member (log classification only; the ODE
        # itself uses expected class shares)
        ci = rng.choice(len(self._classes), size=m, p=self._class_frac)
        self.cls = np.fromiter(
            (int(self._classes[i]) for i in ci), dtype=np.int8, count=m)
        self.public_addr = np.isin(self.cls, [int(c) for c in _PUBLIC])
        self.incoming = np.isin(self.cls, [int(c) for c in _CONTRIBUTOR])
        self.report_phase = rng.uniform(
            0, self.cfg.status_report_period_s, m)
        self.next_watch = np.full(m, np.inf, dtype=np.float64)
        self.watch_c0 = np.zeros(m, dtype=np.float64)   # C at window start
        self.watch_t0 = np.zeros(m, dtype=np.float64)
        self.bits_down = np.zeros(m, dtype=np.float64)
        self.bits_up = np.zeros(m, dtype=np.float64)
        self.bits_down_rep = np.zeros(m, dtype=np.float64)
        self.bits_up_rep = np.zeros(m, dtype=np.float64)
        self._arrival_ptr = 0
        self._next_session = 1

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def _activities(self, idx: np.ndarray, event: ActivityEvent,
                    reason: Optional[LeaveReason] = None) -> None:
        """One activity report per panel member of ``idx``, in that order,
        rendered from one gathered column per field."""
        now = self.now
        self.log.receive_lines(now, ActivityReport.log_strings(
            now, (idx + 200_000).tolist(), self.user_id[idx].tolist(),
            self.session_id[idx].tolist(), event, self.attempt[idx].tolist(),
            self.public_addr[idx].tolist(), reason))

    def _join(self, idx: np.ndarray) -> None:
        """Activate panel members (first join or retry)."""
        if idx.size == 0:
            return
        self.stage[idx] = _JOINING
        self.joined_at[idx] = self.now
        self.buffered[idx] = 0.0
        self.session_id[idx] = np.arange(
            self._next_session, self._next_session + idx.size)
        self._next_session += idx.size
        self.sessions_spawned += idx.size
        self._activities(idx, ActivityEvent.JOIN)

    def _leave(self, idx: np.ndarray, reason: LeaveReason, *,
               retry: bool, silent: Optional[np.ndarray] = None) -> None:
        """Retire panel members; failures/impatience requeue with backoff."""
        if idx.size == 0:
            return
        loud = idx if silent is None else idx[~silent]
        self._activities(loud, ActivityEvent.LEAVE, reason)
        self.stage[idx] = _LEFT
        self.next_watch[idx] = np.inf
        if retry:
            can = idx[self.attempt[idx] <= self.cfg.max_join_retries]
            if can.size:
                backoff = self.cfg.retry_backoff_s * (
                    0.5 + self._rng.random(can.size))
                self.retry_at[can] = self.now + backoff
                self.attempt[can] += 1
                self.retries[can] += 1
                self.stage[can] = _RETRY_WAIT

    # ------------------------------------------------------------------
    # the step
    # ------------------------------------------------------------------
    def _counts(self) -> Tuple[int, int, int]:
        nj = int((self.stage == _JOINING).sum())
        nb = int((self.stage == _BUFFERING).sum())
        np_ = int((self.stage == _PLAYING).sum())
        return nj, nb, np_

    def _mark_phase(self, name: str, t0: float) -> float:
        t1 = perf_counter()  # repro: noqa[DET002] opt-in phase timing only
        dt = t1 - t0
        PHASE_TOTALS[name] = PHASE_TOTALS.get(name, 0.0) + dt
        return t1

    def _step(self) -> None:
        cfg = self.cfg
        ode = self.ode
        dt = ode.dt
        now = self.now
        k = cfg.n_substreams
        w = self._weight
        timing = self.phase_timing
        if timing:
            _pt = perf_counter()  # repro: noqa[DET002] opt-in phase timing only

        # 1. arrivals / retries (forcing) ---------------------------------
        ptr = self._arrival_ptr
        end = ptr
        t = self.t_arr
        while end < t.size and t[end] <= now:
            end += 1
        if end > ptr:
            fresh = np.arange(ptr, end)
            fresh = fresh[self.deadline[fresh] > now]
            self._arrival_ptr = end
            self._join(fresh)
            gone = np.arange(ptr, end)
            self.stage[gone[self.deadline[gone] <= now]] = _LEFT
        due_retry = np.nonzero(
            (self.stage == _RETRY_WAIT) & (self.retry_at <= now))[0]
        if due_retry.size:
            live = due_retry[self.deadline[due_retry] > now]
            dead = due_retry[self.deadline[due_retry] <= now]
            self.stage[dead] = _LEFT
            self._join(live)
        if timing:
            _pt = self._mark_phase("forcing", _pt)

        # 2. population water-fill (the fluid engines' two-tier closed
        #    form in the mean-field limit) -------------------------------
        nj, nb, np_ = self._counts()
        supply = self._server_supply + w * (nb + np_) * float(
            self._class_frac @ self._class_supply)
        n1 = w * np_ * k                  # playing connections, demand 1
        nc = w * nb * k                   # buffering connections, demand c
        if n1 + nc > 0:
            level_low = supply / (n1 + nc)
            if level_low <= 1.0:
                level = level_low
            elif nc > 0:
                level = min((supply - n1) / nc, ode.catchup_factor)
            else:
                level = ode.catchup_factor
        else:
            level = ode.catchup_factor
        r_play = max(0.0, min(level, 1.0))
        r_buf = max(0.0, min(level, ode.catchup_factor))
        if timing:
            _pt = self._mark_phase("waterfill", _pt)

        # 3. continuity + deficit ODE (Eqs. 3/5 in the limit) ------------
        c_inst = r_play                   # degraded-rate continuity
        if c_inst < 1.0:
            self.deficit_blocks += k * (1.0 - c_inst) * dt
        elif self.deficit_blocks > 0.0 and r_buf > 1.0:
            # Eq. 3: the deficit drains in catchup_time(l, r_up, R/K)
            t_up = catchup_time(self.deficit_blocks, r_buf, 1.0)
            self.deficit_blocks = max(
                0.0, self.deficit_blocks * (1.0 - dt / max(t_up, dt)))
        self._c_inst = c_inst
        self._continuity_integral += c_inst * dt
        if np_:
            self._play_time += dt
            self._cont_play_integral += c_inst * dt
        if timing:
            _pt = self._mark_phase("continuity", _pt)

        # 4. stage transitions -------------------------------------------
        joining = np.nonzero(self.stage == _JOINING)[0]
        if joining.size:
            up = joining[now - self.joined_at[joining]
                         >= FastSimConfig.join_overhead_s]
            if up.size:
                self.stage[up] = _BUFFERING
                self._activities(up, ActivityEvent.START_SUBSCRIPTION)
        buffering = np.nonzero(self.stage == _BUFFERING)[0]
        if buffering.size:
            self.buffered[buffering] += r_buf * dt
            ready = buffering[self.buffered[buffering]
                              >= cfg.player_buffer_s]
            if ready.size:
                self.stage[ready] = _PLAYING
                self.ever_ready[ready] = True
                self.next_watch[ready] = now + cfg.stall_window_s
                self.watch_c0[ready] = self._continuity_integral
                self.watch_t0[ready] = now
                self._activities(ready, ActivityEvent.PLAYER_READY)
        if timing:
            _pt = self._mark_phase("transitions", _pt)

        # 5. traffic integrals (population shares) -----------------------
        active_play = np.nonzero(self.stage == _PLAYING)[0]
        if active_play.size:
            down = c_inst * k * cfg.block_bits * dt
            self.bits_down[active_play] += down
            # peer-carried share, split by class supply weight
            served = (n1 * r_play + nc * r_buf)
            sigma = self._server_supply / supply if supply > 0 else 1.0
            mean_cs = float(self._class_frac @ self._class_supply)
            if mean_cs > 0 and np_ + nb > 0:
                per_peer = served * (1.0 - sigma) / (w * (np_ + nb))
                cls_w = self._class_supply_for(self.cls[active_play]) / mean_cs
                self.bits_up[active_play] += (
                    per_peer * cls_w * cfg.block_bits * dt)
        if timing:
            _pt = self._mark_phase("traffic", _pt)

        # 6. departures ---------------------------------------------------
        act = np.nonzero((self.stage == _JOINING) | (self.stage == _BUFFERING)
                         | (self.stage == _PLAYING))[0]
        due = act[self.deadline[act] <= now]
        if due.size:
            silent = self._rng.random(due.size) < self.scenario.silent_leave_prob
            self._leave(due, LeaveReason.NORMAL, retry=False, silent=silent)
        while self._endings and self._endings[-1][0] <= now:
            _te, prob = self._endings.pop()
            watchers = np.nonzero(
                (self.stage == _BUFFERING) | (self.stage == _PLAYING))[0]
            if watchers.size:
                going = watchers[self._rng.random(watchers.size) < prob]
                self.deadline[going] = now
                self._leave(going, LeaveReason.PROGRAM_END, retry=False)
        # patience: joiners/bufferers that never reached playback
        waiting = np.nonzero(
            (self.stage == _JOINING) | (self.stage == _BUFFERING))[0]
        impatient = waiting[
            now - self.joined_at[waiting] > cfg.join_patience_s]
        if impatient.size:
            self._leave(impatient, LeaveReason.IMPATIENCE, retry=True)
        # Eq. 4 abandonment hazard: oversubscription erodes the T_s slack
        playing = np.nonzero(self.stage == _PLAYING)[0]
        if playing.size and c_inst < 1.0:
            t_down = abandon_time(float(cfg.ts_seconds), c_inst, 1.0)
            p_fail = 1.0 - float(np.exp(-dt / t_down))
            hit = playing[self._rng.random(playing.size) < p_fail]
            if hit.size:
                self._leave(hit, LeaveReason.FAILURE, retry=True)
        # stall watchdog on window continuity
        playing = np.nonzero(self.stage == _PLAYING)[0]
        if playing.size:
            check = playing[self.next_watch[playing] <= now]
            if check.size:
                span = np.maximum(now - self.watch_t0[check], dt)
                wc = (self._continuity_integral - self.watch_c0[check]) / span
                stalled = check[wc < cfg.stall_exit_continuity]
                self.next_watch[check] = now + cfg.stall_window_s
                self.watch_c0[check] = self._continuity_integral
                self.watch_t0[check] = now
                if stalled.size:
                    self._leave(stalled, LeaveReason.FAILURE, retry=True)
        if timing:
            _pt = self._mark_phase("departures", _pt)

        # 7. status reports ----------------------------------------------
        period = cfg.status_report_period_s
        alive = np.nonzero((self.stage == _JOINING) | (self.stage == _BUFFERING)
                           | (self.stage == _PLAYING))[0]
        if alive.size:
            age = now - self.joined_at[alive]
            phase = self.report_phase[alive]
            fires = alive[(np.floor((age + phase) / period)
                           > np.floor((age - dt + phase) / period))
                          & (age >= dt)]
            self._send_status_reports(fires)
        if timing:
            self._mark_phase("reports", _pt)

        self.now = now + dt
        self.steps_run += 1

    def _class_supply_for(self, cls: np.ndarray) -> np.ndarray:
        out = np.zeros(cls.size, dtype=float)
        for c, s in zip(self._classes, self._class_supply):
            out[cls == int(c)] = s
        return out

    def _send_status_reports(self, fires: np.ndarray) -> None:
        """The QoS/traffic/partner triple of every panel member of
        ``fires``, in that order, rendered from one gathered column per
        field."""
        now = self.now
        k = self.cfg.n_substreams
        cont = max(0.0, min(1.0, self._c_inst))
        up = self.bits_up[fires]
        down = self.bits_down[fires]
        header = ((fires + 200_000).tolist(), self.user_id[fires].tolist(),
                  self.session_id[fires].tolist())
        playing = (self.stage[fires] == _PLAYING).tolist()
        lines = [""] * (3 * len(playing))
        lines[0::3] = QoSReport.log_strings(
            now, *header, [cont if p else None for p in playing],
            self.buffered[fires].tolist(), [k if p else 0 for p in playing],
            playing)
        lines[1::3] = TrafficReport.log_strings(
            now, *header,
            ((up - self.bits_up_rep[fires]) / 8.0).tolist(),
            ((down - self.bits_down_rep[fires]) / 8.0).tolist(),
            (up / 8.0).tolist(), (down / 8.0).tolist())
        k_column = [k] * len(playing)
        lines[2::3] = PartnerReport.log_strings(
            now, *header, k_column,
            self.incoming[fires].astype(np.int64).tolist(), k_column)
        self.log.receive_lines(now, lines)
        self.bits_up_rep[fires] = up
        self.bits_down_rep[fires] = down

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: float) -> None:
        """Integrate the population ODE (and its panel) to ``until``."""
        self._materialize()
        while self.now < until:
            self._step()

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def concurrent_users(self) -> float:
        """Population estimate of currently active users."""
        nj, nb, np_ = self._counts()
        return self._weight * (nj + nb + np_)

    def mean_continuity(self) -> float:
        """Play-time-weighted mean of the instantaneous continuity."""
        if self._play_time <= 0:
            return float("nan")
        return self._cont_play_integral / self._play_time

    def snapshot_metrics(self) -> Dict[str, float]:
        """Population-level ground truth (exact even when the log is a
        panel sample)."""
        nj, nb, np_ = self._counts()
        w = self._weight
        return {
            "concurrent_users": w * (nj + nb + np_),
            "playing_users": w * np_,
            "sessions_spawned": w * float(self.sessions_spawned),
            "mean_continuity": self.mean_continuity(),
            "mean_deficit_blocks": float(self.deficit_blocks),
            "success_fraction": (
                float(self.ever_ready[self.stage != _PENDING].mean())
                if (self.stage != _PENDING).any() else float("nan")),
            "adaptations": float("nan"),
            "panel_users": float(self.m_panel),
            "panel_weight": w,
        }
