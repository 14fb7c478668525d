"""Array-state fluid engine.

One step of length ``dt``, every phase batched over the population
(struct-of-arrays state, numpy kernels, O(1) Python overhead per step):

1. **Arrivals / retries** -- activate peers whose (re-)join time passed;
   the whole due batch spawns at once (vector class/capacity draws,
   order-preserving batch slot allocation).
2. **Join pipeline** -- joiners sample a candidate-parent *matrix* from
   the reachable pool; once they hold at least one parent they pick the
   ``m - T_p`` offset and start buffering.  Parent assignment is batched:
   masked random keys pick one candidate per (peer, sub-stream) and an
   argsort group-rank pass enforces children caps across the whole batch
   at once (contenders are randomly permuted first, so intra-step
   contention resolves uniformly).
3. **Rates** -- per-connection demand (1 sub-stream unit when caught up,
   ``catchup_factor`` when behind); each parent's upload slots are split
   max-min fairly.  With only two demand tiers the water level has a
   closed form per parent, so the whole allocation is a handful of
   ``np.bincount`` scatters -- no per-parent Python loop.
4. **Heads** -- ``H += rate * dt``, capped by the *previous* step's parent
   head (one-step lag = per-hop latency; also makes accidental cycles
   harmless).  Children fallen behind a parent's cache window are
   fast-forwarded and charged the hole as missed blocks.
5. **Playback** -- the playout pointer advances 1 block/s per sub-stream;
   time spent with a head behind the pointer accrues missed blocks
   (continuity index), in the same continuous form the paper's Eqs. 3-4
   use.
6. **Adaptation** -- vectorized Inequality (1)/(2) detection; violators
   re-select parents in one batch under the ``T_a`` cool-down (voluntary
   adaptations replace their single worst sub-stream, forced ones --
   dead or missing parents -- refill every broken sub-stream).
7. **Departures** -- intended-duration leaves, program endings, patience
   and stall watchdogs, each as one batched leave (failed sessions retry
   with backoff).
8. **Telemetry** -- activity events immediately, status reports on each
   peer's 5-minute phase, to a standard :class:`LogServer`.  Each report
   kind is rendered straight from the gathered columns by its class's
   ``log_strings`` (no report object per line) and handed over as one
   batch.  Per-event Python cost is O(events), never O(population).

Set ``REPRO_PROFILE_PHASES=1`` (or flip :attr:`FastSimulation.
phase_timing`) to accumulate per-phase wall-clock into
:data:`PHASE_TOTALS` -- ``python -m repro profile --engine fast`` uses
this for its phase breakdown table.

Layout rules.  Per-slot state is ``(cap, k)`` C-order arrays, and the
step reaches numpy only through its fast paths:

* no ``axis=`` reduction over the short sub-stream (or candidate) axis:
  ``_max_last`` and its siblings fold the k columns with k-1 elementwise
  ufunc calls (the float sum falls back to numpy from 8 terms on, where
  numpy's unrolled summation rounds differently).  ``argmax`` stays
  numpy's: by columns it measured slower;
* row gathers are ``np.take(a, idx, axis=0)``, never ``a[idx, :]``;
* live connections are one ``np.flatnonzero`` over ``parent[:hi] >= 0``
  per step; the parent and both heads are read through that flat index
  once, and element pairs are addressed as ``row * k + col`` in the
  raveled arrays, never as ``a[rows, cols]``;
* every per-step scan, scatter and ``np.bincount`` stops at the
  high-water mark ``_hi`` (one more than the highest slot ever
  allocated), not at the capacity.

Microbenchmarks behind these rules (numpy 2.4.6, CPython 3.11.7,
2 vCPUs, microseconds per call):

=================================  ================  ======  =================================  ======
replaced                           shape             us      by                                 us
=================================  ================  ======  =================================  ======
``a.min(axis=1)``                  (12000, 4) f8        613  ``np.minimum`` over the 4 columns      20
``c.max(axis=2)``                  (6000, 10, 4) f8   3,254  ``np.maximum`` over the 4 columns     629
``b.nonzero()``                    (33398, 4) bool    1,179  ``np.flatnonzero``, ``// k``          120
``b.any(axis=1)``                  (33398, 4) bool    ~1000  by columns                            160
``H[cand, :]``                     cand (3000, 10)      363  ``np.take(H, cand, axis=0)``           47
``H[rows, cols]``                  48k pairs            191  ``H.ravel()[flat]``                   103
``keys.argmax(axis=1)``            (6000, 10, 4)      1,437  by columns (kept numpy's)           1,718
=================================  ================  ======  =================================  ======
"""

from __future__ import annotations

import heapq
import itertools
import os
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.config import SystemConfig
from repro.obs import context as _obs_context
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
    "FastSimConfig",
    "FastSimulation",
    "PHASE_NAMES",
    "PHASE_TOTALS",
    "reset_phase_totals",
]

# lifecycle states
_EMPTY, _JOINING, _BUFFERING, _PLAYING, _LEFT = 0, 1, 2, 3, 4

# per-class flags, indexed by class value (the classes number 0, 1, ...)
_PUBLIC_CLASS = np.array(
    [c.has_public_address for c in sorted(ConnectivityClass)])
_CONTRIBUTOR_CLASS = np.array(
    [c.is_contributor_class for c in sorted(ConnectivityClass)])

#: Step phases, in execution order (keys of the timing breakdown).
PHASE_NAMES: Tuple[str, ...] = (
    "arrivals", "join", "rates", "heads", "playback", "ready",
    "adaptation", "departures", "reports",
)

#: Process-wide per-phase wall-clock accumulator (seconds), fed by every
#: :class:`FastSimulation` whose ``phase_timing`` is on.
PHASE_TOTALS: Dict[str, float] = {}

#: Environment switch for phase timing (any non-empty value enables it).
PHASE_TIMING_ENV = "REPRO_PROFILE_PHASES"


def reset_phase_totals() -> None:
    """Zero the process-wide phase-timing accumulator."""
    PHASE_TOTALS.clear()


# Reductions over a short last axis (the k sub-streams, or the candidates
# of one attempt), done as elementwise ufunc calls over its columns:
# numpy's ``axis=`` reductions take a slow path there (module docstring).
def _fold_last(op: np.ufunc, a: np.ndarray) -> np.ndarray:
    n = a.shape[-1]
    if n == 1:
        return a[..., 0].copy()
    out = op(a[..., 0], a[..., 1])
    for j in range(2, n):
        op(out, a[..., j], out=out)
    return out


def _max_last(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1)``."""
    return _fold_last(np.maximum, a)


def _min_last(a: np.ndarray) -> np.ndarray:
    """``a.min(axis=-1)``."""
    return _fold_last(np.minimum, a)


def _any_last(a: np.ndarray) -> np.ndarray:
    """``a.any(axis=-1)`` of a bool array."""
    return _fold_last(np.logical_or, a)


def _count_last(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-1)`` of a bool array (platform-int counts)."""
    out = a[..., 0].astype(np.intp)
    for j in range(1, a.shape[-1]):
        out += a[..., j]
    return out


def _sum_last(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-1)`` of a float array, bit for bit.  Below 8 terms
    numpy adds them one after another onto ``0.0``, which the column loop
    repeats; from 8 on its unrolled pairwise summation rounds differently,
    so those widths stay with numpy."""
    n = a.shape[-1]
    if n >= 8:
        return a.sum(axis=-1)
    out = a[..., 0] + 0.0
    for j in range(1, n):
        out += a[..., j]
    return out


@dataclass(frozen=True)
class FastSimConfig:
    """Fastsim-specific knobs on top of :class:`SystemConfig`."""

    dt: float = 1.0                 # step length, seconds
    catchup_factor: float = 16.0    # lagging-connection demand multiplier
    candidates_per_try: int = 10    # parent candidates sampled per attempt
    nat_parent_prob: float = 0.35   # chance a NAT/firewall candidate is
                                    # reachable as a parent (partnerships it
                                    # initiated earlier); calibrated so the
                                    # NAT+firewall classes carry roughly the
                                    # ~20% byte share of Fig. 3b
    join_overhead_s: float = 1.5    # bootstrap + establishment control time
    max_children_factor: int = 1    # children cap = max_partners * factor

    def __post_init__(self) -> None:
        # each check is written so that NaN fails it
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.catchup_factor >= 1:
            raise ValueError("catchup_factor must be >= 1")
        if not self.candidates_per_try >= 1:
            raise ValueError("candidates_per_try must be >= 1")
        if not (0.0 <= self.nat_parent_prob <= 1.0):
            raise ValueError("nat_parent_prob must be a probability")
        if not self.join_overhead_s >= 0:
            raise ValueError("join_overhead_s must be non-negative")
        if not self.max_children_factor >= 1:
            raise ValueError("max_children_factor must be >= 1")


class FastSimulation:
    """Vectorized Coolstreaming dynamics for large populations."""

    def __init__(
        self,
        cfg: Optional[SystemConfig] = None,
        fast: Optional[FastSimConfig] = None,
        *,
        seed: int = 0,
        capacity_model: Optional[CapacityModel] = None,
        connectivity_mix: Optional[ConnectivityMix] = None,
        capacity_hint: int = 4096,
    ) -> None:
        self.cfg = cfg or SystemConfig()
        self.fast = fast or FastSimConfig()
        self.rng = RngHub(seed)
        self._rng = self.rng.stream("fastsim")
        self.capacity_model = capacity_model or CapacityModel()
        self.mix = connectivity_mix or ConnectivityMix()
        self.log = LogServer()
        self.now = 0.0
        self.steps_run = 0

        # opt-in per-phase wall-clock accounting (profile CLI breakdown)
        self.phase_timing = bool(os.environ.get(PHASE_TIMING_ENV))

        # observability: auto-attach to an active repro.obs session; the
        # step keeps a single ``is None`` guard per instrumented block, so
        # a disabled run executes no metrics code at all
        self._obs = _obs_context.current()
        if self._obs is not None:
            self._obs.note_seed(seed)
            self._obs.note_config(self.cfg)
            self._obs.note_config(self.fast)
            if (self._obs.progress is not None
                    and self._obs.progress.live_peers_fn is None):
                self._obs.progress.live_peers_fn = lambda: self.concurrent_users
            if "run.live_peers" not in self._obs.gauge_providers:
                self._obs.register_gauge_provider(
                    "run.live_peers", lambda: self.concurrent_users)
                self._obs.register_gauge_provider(
                    "run.mean_continuity", self.mean_continuity)

        k = self.cfg.n_substreams
        n0 = max(64, int(capacity_hint))
        self._cap = n0
        self.k = k

        # --- per-slot arrays (slot 0..n_servers are infrastructure) -------
        self.state = np.full(n0, _EMPTY, dtype=np.int8)
        self.cls = np.zeros(n0, dtype=np.int8)
        self.upload_slots = np.zeros(n0, dtype=np.float64)
        self.H = np.full((n0, k), -1.0, dtype=np.float64)
        self.parent = np.full((n0, k), -1, dtype=np.int64)
        self.q = np.zeros(n0, dtype=np.float64)            # playout pointer
        self.start_idx = np.zeros(n0, dtype=np.float64)
        self.joined_at = np.zeros(n0, dtype=np.float64)
        self.ready_at = np.full(n0, np.nan, dtype=np.float64)
        self.depart_at = np.full(n0, np.inf, dtype=np.float64)
        self.user_id = np.full(n0, -1, dtype=np.int64)
        self.session_id = np.full(n0, -1, dtype=np.int64)
        self.attempt = np.zeros(n0, dtype=np.int32)
        self.children = np.zeros(n0, dtype=np.int64)       # sub-stream degree
        self.cool_until = np.zeros(n0, dtype=np.float64)
        self.due = np.zeros(n0, dtype=np.float64)          # lifetime blocks due
        self.missed = np.zeros(n0, dtype=np.float64)
        self.win_due = np.zeros(n0, dtype=np.float64)      # 5-min report window
        self.win_missed = np.zeros(n0, dtype=np.float64)
        self.watch_due = np.zeros(n0, dtype=np.float64)    # stall watchdog
        self.watch_missed = np.zeros(n0, dtype=np.float64)
        self.bits_up = np.zeros(n0, dtype=np.float64)
        self.bits_down = np.zeros(n0, dtype=np.float64)
        self.bits_up_rep = np.zeros(n0, dtype=np.float64)
        self.bits_down_rep = np.zeros(n0, dtype=np.float64)
        self.report_phase = np.zeros(n0, dtype=np.float64)
        self.ever_incoming = np.zeros(n0, dtype=bool)
        self.public_addr = np.zeros(n0, dtype=bool)
        self.next_watch = np.zeros(n0, dtype=np.float64)
        self.is_contrib = np.zeros(n0, dtype=bool)   # contributor-class slot
        self.next_try = np.zeros(n0, dtype=np.float64)  # selection back-off

        self._free: List[int] = []
        # one more than the highest slot ever allocated: every slot at or
        # above it is EMPTY and holds no connection, so per-step scans,
        # scatters and bincounts stop there instead of at the capacity
        self._hi = 0
        self._next_session = 1
        self.sessions_spawned = 0

        # pending (re-)joins: a (time, user_id, attempt, intended_depart)
        # min-heap -- retries trickle in every step, so O(log n) pushes
        # beat re-sorting the whole queue
        self._pending_joins: List[Tuple[float, int, int, float]] = []
        self._program_endings: List[Tuple[float, float]] = []
        self._retries_by_user: Dict[int, int] = {}
        self._user_deadline: Dict[int, float] = {}
        # success_fraction's ground truth: users whose first session
        # spawned, users with a session that reached PLAYING, and the users
        # who retried after playing (so a second playback is not counted)
        self.users_spawned = 0
        self.users_played = 0
        self._retried_after_playing: Set[int] = set()

        # --- infrastructure slots --------------------------------------------
        self.n_servers = self.cfg.n_servers
        self._setup_servers()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _mark_phase(self, name: str, t0: float) -> float:
        """Charge the wall-clock since ``t0`` to phase ``name``."""
        t1 = perf_counter()  # repro: noqa[DET002] opt-in phase-timing instrumentation only
        span = t1 - t0
        PHASE_TOTALS[name] = PHASE_TOTALS.get(name, 0.0) + span
        return t1

    # ------------------------------------------------------------------
    # setup helpers
    # ------------------------------------------------------------------
    def _setup_servers(self) -> None:
        cfg = self.cfg
        for i in range(self.n_servers):
            slot = i  # 0..n_servers-1 reserved
            self.state[slot] = _PLAYING
            self.cls[slot] = int(ConnectivityClass.SERVER)
            self.upload_slots[slot] = cfg.upload_slots(cfg.server_upload_bps)
            self.H[slot, :] = 0.0
            self.depart_at[slot] = np.inf
            self.public_addr[slot] = True
            self.is_contrib[slot] = True
        self._hi = self.n_servers
        self._user_base = self.n_servers

    def _grow(self) -> None:
        new_cap = self._cap * 2
        for name in (
            "state", "cls", "upload_slots", "q", "start_idx", "joined_at",
            "ready_at", "depart_at", "user_id", "session_id", "attempt",
            "children", "cool_until", "due", "missed", "win_due",
            "win_missed", "watch_due", "watch_missed", "bits_up",
            "bits_down", "bits_up_rep", "bits_down_rep", "report_phase",
            "ever_incoming", "public_addr", "next_watch", "is_contrib",
            "next_try",
        ):
            old = getattr(self, name)
            grown = np.zeros(new_cap, dtype=old.dtype)
            if name == "depart_at":
                grown[:] = np.inf
            elif name == "ready_at":
                grown[:] = np.nan
            elif name in ("user_id", "session_id"):
                grown[:] = -1
            grown[: self._cap] = old
            setattr(self, name, grown)
        H = np.full((new_cap, self.k), -1.0)
        H[: self._cap] = self.H
        self.H = H
        parent = np.full((new_cap, self.k), -1, dtype=np.int64)
        parent[: self._cap] = self.parent
        self.parent = parent
        self._cap = new_cap

    def _alloc_slots(self, n: int) -> np.ndarray:
        """Allocate ``n`` slots: free-list (LIFO) first, then the lowest
        never-used slots, growing when exhausted -- the same order a
        one-at-a-time allocation produces, so slot numbering (and with it
        every logged node_id) is independent of batch boundaries and of
        the capacity hint.  Every slot below :attr:`_hi` that is EMPTY is
        on the free list, so the never-used slots start at ``_hi``."""
        reuse = min(n, len(self._free))
        out = np.empty(n, dtype=np.int64)
        if reuse:
            out[:reuse] = self._free[-reuse:][::-1]
            del self._free[-reuse:]
        need = n - reuse
        if need:
            while self._hi + need > self._cap:
                self._grow()
            out[reuse:] = np.arange(self._hi, self._hi + need)
            self._hi += need
        return out

    # ------------------------------------------------------------------
    # workload API
    # ------------------------------------------------------------------
    def add_arrivals(
        self,
        arrival_times: np.ndarray,
        intended_durations: np.ndarray,
        *,
        user_id_base: int = 0,
    ) -> None:
        """Register a batch of users (their first join attempts)."""
        times = np.asarray(arrival_times, dtype=float)
        durs = np.asarray(intended_durations, dtype=float)
        if times.shape != durs.shape:
            raise ValueError("arrival_times and intended_durations must align")
        for i, (t, d) in enumerate(zip(times, durs)):
            self._pending_joins.append(
                (float(t), user_id_base + i, 1, float(t + d))
            )
        heapq.heapify(self._pending_joins)

    def add_program_ending(self, time_s: float, leave_probability: float) -> None:
        """Schedule a program-end departure wave."""
        self._program_endings.append((float(time_s), float(leave_probability)))
        self._program_endings.sort(reverse=True)

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def _activities(self, slots: np.ndarray, event: ActivityEvent,
                    reason: Optional[LeaveReason] = None) -> None:
        """One activity report per peer of ``slots``, in that order,
        rendered from one gathered column per field."""
        now = self.now
        self.log.receive_lines(now, ActivityReport.log_strings(
            now, (slots + 100_000).tolist(), self.user_id[slots].tolist(),
            self.session_id[slots].tolist(), event,
            self.attempt[slots].tolist(), self.public_addr[slots].tolist(),
            reason))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _retry_deadline(self, uid: int) -> float:
        """Departure deadline for a retry attempt (the NaN sentinel in the
        pending-joins queue).  A retry can only be queued by a leave that
        happened *after* the user's first spawn recorded its deadline, so
        a missing entry means the queue and the deadline bookkeeping are
        out of sync -- fail loudly instead of inventing a deadline."""
        try:
            return self._user_deadline[uid]
        except KeyError:
            raise RuntimeError(
                f"retry for user {uid} has no recorded departure deadline; "
                "_pending_joins and _user_deadline are out of sync"
            ) from None

    def _spawn_batch(self, uids: np.ndarray, atts: np.ndarray,
                     departs: np.ndarray) -> None:
        """Activate a batch of (re-)joining users in one shot."""
        n = int(uids.size)
        if n == 0:
            return
        slots = self._alloc_slots(n)
        rng = self._rng
        cfg = self.cfg
        drawn = self.mix.sample_many(n, rng)
        classes = np.array(drawn, dtype=np.int64)
        ups = self.capacity_model.sample_uploads(drawn, rng)
        self.state[slots] = _JOINING
        self.cls[slots] = classes
        self.upload_slots[slots] = ups / cfg.substream_rate_bps
        self.H[slots, :] = -1.0
        self.parent[slots, :] = -1
        self.q[slots] = 0.0
        self.start_idx[slots] = 0.0
        self.joined_at[slots] = self.now
        self.ready_at[slots] = np.nan
        self.depart_at[slots] = departs
        self.user_id[slots] = uids
        self.session_id[slots] = np.arange(
            self._next_session, self._next_session + n, dtype=np.int64
        )
        self.attempt[slots] = atts
        self.children[slots] = 0
        self.cool_until[slots] = 0.0
        for arr in (self.due, self.missed, self.win_due, self.win_missed,
                    self.watch_due, self.watch_missed, self.bits_up,
                    self.bits_down, self.bits_up_rep, self.bits_down_rep):
            arr[slots] = 0.0
        self.report_phase[slots] = rng.uniform(
            0, cfg.status_report_period_s, n
        )
        self.ever_incoming[slots] = False
        self.public_addr[slots] = _PUBLIC_CLASS[classes]
        self.next_watch[slots] = self.now + cfg.stall_window_s
        self.is_contrib[slots] = _CONTRIBUTOR_CLASS[classes]
        self.next_try[slots] = 0.0
        self._next_session += n
        self.sessions_spawned += n
        self.users_spawned += int(np.count_nonzero(atts == 1))
        self._activities(slots, ActivityEvent.JOIN)
        if self._obs is not None:
            self._obs.registry.counter("fastsim.joins").inc(n)

    def _leave_batch(self, slots: np.ndarray, reason: LeaveReason, *,
                     silent: Optional[np.ndarray] = None,
                     retry: bool = True) -> None:
        """Remove a batch of peers; one scatter per bookkeeping array."""
        live = (self.state[slots] != _EMPTY) & (self.state[slots] != _LEFT)
        slots = slots[live]
        if silent is not None:
            silent = silent[live]
        if slots.size == 0:
            return
        hi = self._hi
        # release our own subscriptions (parents regain child capacity)
        par = np.take(self.parent, slots, axis=0)
        held = par[par >= 0]
        if held.size:
            self.children[:hi] -= np.bincount(held, minlength=hi)
        # orphan the children: their parent pointer dies; adaptation deals.
        # ``leaving`` has one spare False entry at index ``hi``, which is
        # where the -1 of every unused parent pointer lands
        leaving = np.zeros(hi + 1, dtype=bool)
        leaving[slots] = True
        parent = self.parent[:hi]
        parent[np.take(leaving, parent)] = -1
        self.children[slots] = 0
        uids = self.user_id[slots]
        atts = self.attempt[slots]
        if self._obs is not None:
            reg = self._obs.registry
            reg.counter("fastsim.leaves").inc(int(slots.size))
            reg.counter(f"fastsim.leaves.{reason.name.lower()}").inc(
                int(slots.size))
        if silent is None:
            loud = slots
        else:
            loud = slots[~silent]
        self._activities(loud, ActivityEvent.LEAVE, reason)
        self.state[slots] = _EMPTY
        self.parent[slots, :] = -1
        self.depart_at[slots] = np.inf
        self._free.extend(slots.tolist())
        if retry and reason in (LeaveReason.IMPATIENCE, LeaveReason.FAILURE):
            draws = self._rng.random(slots.size)
            again = atts <= self.cfg.max_join_retries
            if not again.any():
                return
            retry_at = self.now + self.cfg.retry_backoff_s * (0.5 + draws[again])
            uids = uids[again].tolist()
            retries = self._retries_by_user
            for uid in uids:
                retries[uid] = retries.get(uid, 0) + 1
            played = ~np.isnan(self.ready_at[slots[again]])
            self._retried_after_playing.update(
                itertools.compress(uids, played.tolist()))
            # keep the user's original departure deadline (NaN sentinel)
            nan = float("nan")
            for t, uid, att in zip(retry_at.tolist(), uids,
                                   (atts[again] + 1).tolist()):
                heapq.heappush(self._pending_joins, (t, uid, att, nan))

    # ------------------------------------------------------------------
    # parent selection
    # ------------------------------------------------------------------
    def _candidate_pool(self) -> np.ndarray:
        """Slots usable as parents this step."""
        state = self.state[: self._hi]
        return np.flatnonzero((state == _PLAYING) | (state == _BUFFERING))

    def _sample_candidate_matrix(
        self, slots: np.ndarray, pool: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample a ``(len(slots), candidates_per_try)`` candidate-parent
        matrix plus its validity mask (the per-peer effective partner set
        for this attempt): reachable, below the children cap, not self."""
        fast = self.fast
        cfg = self.cfg
        rng = self._rng
        n_cand = min(fast.candidates_per_try, pool.size)
        cand = pool[rng.integers(0, pool.size, size=(slots.size, n_cand))]
        # reachability: contributor classes always; NAT/firewall rarely
        reach = self.is_contrib[cand] | (
            rng.random(cand.shape) < fast.nat_parent_prob
        )
        # capacity gate: parents at their children cap reject (M partners)
        max_children = cfg.max_partners * self.k * fast.max_children_factor
        server_cap = cfg.server_max_partners * self.k
        caps = np.where(
            self.cls[cand] == int(ConnectivityClass.SERVER),
            server_cap, max_children,
        )
        valid = reach & (self.children[cand] < caps) & (cand != slots[:, None])
        return cand, valid

    def _select_parents_batch(
        self,
        slots: np.ndarray,
        want: np.ndarray,
        cand: np.ndarray,
        valid: np.ndarray,
        best_head: np.ndarray,
    ) -> np.ndarray:
        """Fill the wanted ``(peer, sub-stream)`` pairs from the sampled
        candidate matrix in one batch; returns per-peer filled counts.

        Each pair draws a random key per candidate, masks out candidates
        failing the buffer-window and Inequality-(2) filters, and takes
        the argmax key (= uniform choice among the survivors).  Children
        caps are then enforced across the whole batch: contenders are
        randomly permuted, argsort-grouped by chosen parent, ranked
        within their group, and accepted while the parent has capacity
        left -- so no parent ever exceeds its cap, and which contenders
        win under contention is uniform."""
        cfg = self.cfg
        n, n_cand = cand.shape
        k = self.k
        heads = np.take(self.H, cand, axis=0)          # (n, C, k)
        need = np.take(self.H, slots, axis=0)          # (n, k)
        # Inequality (2) as a selection filter: a qualified parent's head
        # on the sub-stream must be within T_p of the best head among the
        # candidate (partner) set -- this is what keeps starved peers from
        # being chosen as parents even though capacity itself is ignored
        ok = (
            valid[:, :, None]
            & want[:, None, :]
            & (heads >= need[:, None, :])
            & (need[:, None, :] + 1.0 >= heads - cfg.buffer_seconds + 1.0)
            & (best_head[:, None, None] - heads < cfg.tp_seconds)
        )
        # keys lie in [0, 1); masked-out candidates drop below 0, so the
        # argmax lands on a survivor whenever the pair has one
        keys = self._rng.random((n, n_cand, k))
        keys -= ~ok
        ci = keys.argmax(axis=1)                       # (n, k) winning column
        got = np.take_along_axis(keys, ci[:, None, :], axis=1)[:, 0, :] >= 0.0
        flat = np.flatnonzero(got)                     # into the (n, k) pairs
        if flat.size == 0:
            return np.zeros(n, dtype=np.int64)
        rows = flat // k
        subs = flat - rows * k
        par = np.take(cand, rows * n_cand + np.take(ci, flat))
        caps = np.where(
            self.cls[par] == int(ConnectivityClass.SERVER),
            cfg.server_max_partners * k,
            cfg.max_partners * k * self.fast.max_children_factor,
        )
        contend = self._rng.permutation(rows.size)
        order = np.argsort(par[contend], kind="stable")
        picked = contend[order]                        # grouped by parent
        par_g = par[picked]
        idx = np.arange(par_g.size)
        group_first = np.ones(par_g.size, dtype=bool)
        group_first[1:] = par_g[1:] != par_g[:-1]
        rank = idx - np.maximum.accumulate(np.where(group_first, idx, 0))
        accepted = picked[self.children[par_g] + rank < caps[picked]]
        if accepted.size == 0:
            return np.zeros(n, dtype=np.int64)
        a_rows = rows[accepted]
        a_par = par[accepted]
        a_flat = slots[a_rows] * k + subs[accepted]    # into self.parent
        parent = self.parent.reshape(-1)               # a view: C order
        old = parent[a_flat]
        old = old[old >= 0]
        hi = self._hi
        if old.size:
            self.children[:hi] -= np.bincount(old, minlength=hi)
        parent[a_flat] = a_par
        self.children[:hi] += np.bincount(a_par, minlength=hi)
        # classifier signal: a contributor-class parent got this child
        # through an *incoming* partnership (the child initiated); a
        # NAT/firewall parent could only be reached over a partnership
        # it initiated itself, so it earns no incoming credit
        contrib = self.is_contrib[a_par]
        if contrib.any():
            self.ever_incoming[a_par[contrib]] = True
        if self._obs is not None:
            self._obs.registry.counter("fastsim.parent_selections").inc(
                int(accepted.size))
        return np.bincount(a_rows, minlength=n)

    # ------------------------------------------------------------------
    # the step
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the simulation by one time step."""
        _obs = self._obs
        _t0 = perf_counter() if _obs is not None else 0.0  # repro: noqa[DET002] obs step-timer instrumentation only
        timing = self.phase_timing
        _pt = perf_counter() if timing else 0.0  # repro: noqa[DET002] opt-in phase-timing instrumentation only
        dt = self.fast.dt
        cfg = self.cfg
        k = self.k
        now = self.now
        rng = self._rng

        # 1. arrivals / retries -------------------------------------------------
        if self._pending_joins and self._pending_joins[0][0] <= now:
            uids: List[int] = []
            atts: List[int] = []
            deps: List[float] = []
            pending = self._pending_joins
            deadlines = self._user_deadline
            while pending and pending[0][0] <= now:
                _t, uid, att, depart = heapq.heappop(pending)
                if depart != depart:  # NaN: a retry keeps its deadline
                    depart = self._retry_deadline(uid)
                else:
                    deadlines[uid] = depart
                if depart <= now:
                    continue  # watch window already over
                uids.append(uid)
                atts.append(att)
                deps.append(depart)
            if uids:
                self._spawn_batch(
                    np.asarray(uids, dtype=np.int64),
                    np.asarray(atts, dtype=np.int64),
                    np.asarray(deps, dtype=np.float64),
                )
        if timing:
            _pt = self._mark_phase("arrivals", _pt)

        # 2. join pipeline -----------------------------------------------------
        # nothing below allocates a slot, so every scan stops at ``hi``;
        # ``state`` is a view, so it sees each phase's transitions
        hi = self._hi
        state = self.state[:hi]
        joining = np.flatnonzero(state == _JOINING)
        pool = self._candidate_pool()
        if joining.size:
            eligible = joining[
                (now - self.joined_at[joining] >= self.fast.join_overhead_s)
                & (now >= self.next_try[joining])
            ]
            if eligible.size and pool.size == 0:
                self.next_try[eligible] = now + cfg.bm_exchange_period_s
            elif eligible.size:
                cand, valid = self._sample_candidate_matrix(eligible, pool)
                has_cand = _any_last(valid)
                self.next_try[eligible[~has_cand]] = (
                    now + cfg.bm_exchange_period_s
                )
                sel = eligible[has_cand]
                if sel.size:
                    cand = cand[has_cand]
                    valid = valid[has_cand]
                    # best head among this attempt's candidate set
                    rowmax = _max_last(self.H[:hi])
                    headmax = _max_last(
                        np.where(valid, np.take(rowmax, cand), -np.inf))
                    # Section IV.A: offset = (max head among partners) - T_p;
                    # peers whose candidates hold no data yet wait for a
                    # better sample (no back-off: the pool is still warming)
                    need_offset = self.H[sel, 0] < 0.0
                    usable = ~(need_offset & (headmax < 0.0))
                    sel = sel[usable]
                    cand = cand[usable]
                    valid = valid[usable]
                    headmax = headmax[usable]
                    need_offset = need_offset[usable]
                if sel.size:
                    if need_offset.any():
                        off_rows = sel[need_offset]
                        start = np.maximum(
                            0.0, headmax[need_offset] - cfg.tp_seconds
                        )
                        self.H[off_rows, :] = (start - 1.0)[:, None]
                        self.start_idx[off_rows] = start
                        self.q[off_rows] = start
                    want = np.take(self.parent, sel, axis=0) < 0
                    filled = self._select_parents_batch(
                        sel, want, cand, valid, headmax
                    )
                    hooked = sel[filled > 0]
                    if hooked.size:
                        self.state[hooked] = _BUFFERING
                        self._activities(
                            hooked, ActivityEvent.START_SUBSCRIPTION)
                    short = sel[filled < _count_last(want)]
                    self.next_try[short] = now + cfg.bm_exchange_period_s
        if timing:
            _pt = self._mark_phase("join", _pt)

        # 3. rates ------------------------------------------------------------------
        active = (state == _BUFFERING) | (state == _PLAYING)
        conn = self.parent[:hi] >= 0  # (hi, K) live connections
        conn &= active[:, None]
        # one flat (row-major) index per live connection; the parent and
        # both heads are read through it once, for this phase and the next
        flat = np.flatnonzero(conn)
        any_conn = flat.size > 0
        if any_conn:
            H_flat = self.H.reshape(-1)              # a view: C order
            rows = flat // k
            pidx = np.take(self.parent, flat)
            own = np.take(H_flat, flat)              # the child's head
            # the parent's head, read before any head moves this step
            up = np.take(H_flat, pidx * k + (flat - rows * k))
            lag = up - own
            c = self.fast.catchup_factor
            is_catchup = lag > 0.5
            # max-min fair share with two demand tiers (1 and c) has a
            # closed form per parent: water level L solves
            #   sum min(demand_i, L) = capacity
            n_tot = np.bincount(pidx, minlength=hi)
            nc = np.bincount(pidx, weights=is_catchup, minlength=hi)
            n1 = n_tot - nc                          # exact: small integers
            cap_p = self.upload_slots[:hi]
            with np.errstate(divide="ignore", invalid="ignore"):
                # tier 1: everyone below demand 1 -> L = cap / n_tot
                level_low = np.where(n_tot > 0, cap_p / n_tot, 0.0)
                # tier 2: demand-1 conns saturated -> L = (cap - n1) / nc
                level_high = np.where(nc > 0, (cap_p - n1) / nc, np.inf)
            level = np.where(level_low <= 1.0, level_low,
                             np.minimum(level_high, c))
            conn_level = level[pidx]
            rate_flat = np.minimum(conn_level, np.where(is_catchup, c, 1.0))
            rate_flat = np.maximum(0.0, rate_flat)
        if timing:
            _pt = self._mark_phase("rates", _pt)

        # 4. advance heads ------------------------------------------------------------
        if any_conn:
            # capped by the one-step-lagged parent head, floored by its
            # cache window
            floor = up - cfg.buffer_seconds + 1.0
            newH = own + rate_flat * dt
            newH = np.minimum(newH, up)
            # fast-forward over evicted blocks; charge the hole as missed,
            # but only the part the playout pointer has not already charged
            jumped = np.maximum(0.0, floor - np.maximum(newH, self.q[rows]))
            hole = np.bincount(rows, weights=jumped, minlength=hi)
            self.missed[:hi] += hole
            self.win_missed[:hi] += hole
            self.watch_missed[:hi] += hole
            newH = np.maximum(newH, floor)
            # account downloaded bits / uploaded bits
            delivered = np.maximum(0.0, newH - own)
            self.bits_down[:hi] += cfg.block_bits * np.bincount(
                rows, weights=delivered, minlength=hi)
            self.bits_up[:hi] += cfg.block_bits * np.bincount(
                pidx, weights=delivered, minlength=hi)
            H_flat[flat] = newH
        # servers track the live edge directly (fed by the source off-model)
        edge = max(0.0, (now + dt) - 1.0)
        self.H[: self.n_servers, :] = edge
        if timing:
            _pt = self._mark_phase("heads", _pt)

        # 5. playback -----------------------------------------------------------------
        prows = np.flatnonzero(state == _PLAYING)
        if prows.size:
            q_prev = self.q[prows]
            q_new = q_prev + dt
            self.q[prows] = q_new
            # per sub-stream: time in (q_prev, q_new] not covered by the head
            heads = np.take(self.H, prows, axis=0)
            miss = _sum_last(np.clip(
                q_new[:, None] - np.maximum(heads, q_prev[:, None]), 0.0, dt
            ))
            due = dt * k
            self.due[prows] += due
            self.missed[prows] += miss
            self.win_due[prows] += due
            self.win_missed[prows] += miss
            self.watch_due[prows] += due
            self.watch_missed[prows] += miss
        if timing:
            _pt = self._mark_phase("playback", _pt)

        # 6. ready check --------------------------------------------------------------
        buffering = np.flatnonzero(state == _BUFFERING)
        if buffering.size:
            combined = _min_last(np.take(self.H, buffering, axis=0)) + 1.0
            ready = combined - self.start_idx[buffering] >= cfg.player_buffer_s
            ready_rows = buffering[ready]
            if ready_rows.size:
                self.state[ready_rows] = _PLAYING
                self.ready_at[ready_rows] = now
                self.q[ready_rows] = self.start_idx[ready_rows]
                self._activities(ready_rows, ActivityEvent.PLAYER_READY)
                replayed = self._retried_after_playing
                if replayed:
                    self.users_played += sum(
                        1 for uid in self.user_id[ready_rows].tolist()
                        if uid not in replayed)
                else:
                    self.users_played += int(ready_rows.size)
        if timing:
            _pt = self._mark_phase("ready", _pt)

        # 7. adaptation ---------------------------------------------------------------
        # each peer re-evaluates Inequalities (1)/(2) once per buffer-map
        # exchange period (the event that carries partner heads in the
        # detailed engine), phase-staggered by slot -- not on every dt:
        # this step's slots are those with (slot + steps_run) % every == 0
        adapt_every = max(1, int(round(cfg.bm_exchange_period_s / dt)))
        first = -self.steps_run % adapt_every
        act = np.flatnonzero(active[first::adapt_every]) * adapt_every + first
        if act.size:
            rowmax = _max_last(self.H[:hi])         # every slot's best head
            heads = np.take(self.H, act, axis=0)
            best = np.take(rowmax, act)
            lag_bad = (best[:, None] - heads) >= cfg.ts_seconds  # Inequality (1)
            par = np.take(self.parent, act, axis=0)
            has_parent = par >= 0
            par_safe = np.maximum(par, 0)
            pstate = np.where(has_parent, np.take(self.state, par_safe), _EMPTY)
            parent_dead = has_parent & ~(
                (pstate == _PLAYING) | (pstate == _BUFFERING)
            )
            # Inequality (2): parent head lags the best head among the
            # node's partners.  A node's partner set is a random sample of
            # the population, so its best head is statistically close to an
            # upper quantile of the population's heads; we use that quantile
            # (plus the node's own local view) as the vectorizable stand-in
            # for "best partner head".  Without the population term, whole
            # sub-trees under an oversubscribed parent would drift behind
            # uniformly and never trigger adaptation -- which the real
            # protocol's BM exchange does not allow.
            phead = np.where(
                has_parent, np.take(self.H, par_safe * k + np.arange(k)),
                -np.inf,
            )
            peer_best = best[act >= self.n_servers]
            if peer_best.size >= 4:
                # 75th-percentile stand-in via O(n) partition (nearest-rank;
                # the threshold is a heuristic, interpolation adds nothing)
                q = int(0.75 * (peer_best.size - 1))
                population_ref = float(np.partition(peer_best, q)[q])
            else:
                population_ref = -np.inf
            local_best = np.maximum(_max_last(phead), best)
            local_best = np.maximum(local_best, population_ref)
            ineq2_bad = (local_best[:, None] - phead) >= cfg.tp_seconds
            ineq2_bad &= has_parent
            need_fix = (lag_bad & has_parent) | parent_dead | ineq2_bad | ~has_parent
            if _obs is not None:
                reg = _obs.registry
                reg.counter("fastsim.ineq1_violations").inc(
                    int((lag_bad & has_parent).sum())
                )
                reg.counter("fastsim.ineq2_violations").inc(int(ineq2_bad.sum()))
                reg.counter("fastsim.dead_parent_links").inc(int(parent_dead.sum()))
            rows_fix = np.flatnonzero(_any_last(need_fix))
            if rows_fix.size:
                slots_fix = act[rows_fix]
                forced = _any_last(
                    np.take(parent_dead, rows_fix, axis=0)
                    | ~np.take(has_parent, rows_fix, axis=0)
                )
                # forced re-selection honours the bm-exchange back-off,
                # voluntary adaptation the T_a cool-down
                open_now = np.where(
                    forced,
                    now >= self.next_try[slots_fix],
                    now >= self.cool_until[slots_fix],
                )
                rows_fix = rows_fix[open_now]
                slots_fix = slots_fix[open_now]
                forced = forced[open_now]
            if rows_fix.size:
                want = np.take(need_fix, rows_fix, axis=0)
                vol = np.flatnonzero(~forced)
                if vol.size:
                    # voluntary adaptation: one sub-stream per cool-down --
                    # the one lagging its row's best head the most
                    rows_vol = rows_fix[vol]
                    gap = np.where(
                        np.take(want, vol, axis=0),
                        best[rows_vol][:, None]
                        - np.take(heads, rows_vol, axis=0),
                        -np.inf,
                    )
                    want[vol] = gap.argmax(axis=1)[:, None] == np.arange(k)
                    self.cool_until[slots_fix[vol]] = now + cfg.ta_seconds
                # release the parents being replaced before re-selecting
                wflat = np.flatnonzero(want)
                wr = wflat // k
                pflat = slots_fix[wr] * k + (wflat - wr * k)
                parent = self.parent.reshape(-1)     # a view: C order
                rel = parent[pflat]
                rel = rel[rel >= 0]
                if rel.size:
                    self.children[:hi] -= np.bincount(rel, minlength=hi)
                parent[pflat] = -1
                if pool.size:
                    cand, valid = self._sample_candidate_matrix(
                        slots_fix, pool)
                    headmax = _max_last(
                        np.where(valid, np.take(rowmax, cand), -np.inf))
                    filled = self._select_parents_batch(
                        slots_fix, want, cand, valid, headmax)
                else:
                    filled = np.zeros(slots_fix.size, dtype=np.int64)
                short = slots_fix[filled < _count_last(want)]
                self.next_try[short] = now + cfg.bm_exchange_period_s
                if _obs is not None:
                    _obs.registry.counter("fastsim.adaptations").inc(
                        int(rows_fix.size))
        if timing:
            _pt = self._mark_phase("adaptation", _pt)

        # 8. departures ----------------------------------------------------------------
        active_or_joining = state != _EMPTY
        active_or_joining[: self.n_servers] = False
        # scheduled departures
        due_leave = np.flatnonzero(
            active_or_joining & (self.depart_at[:hi] <= now))
        if due_leave.size:
            silent = rng.random(due_leave.size) < 0.1
            self._leave_batch(due_leave, LeaveReason.NORMAL,
                              silent=silent, retry=False)
        # program endings
        while self._program_endings and self._program_endings[-1][0] <= now:
            _t, prob = self._program_endings.pop()
            watchers = np.flatnonzero(
                (state == _PLAYING) | (state == _BUFFERING))
            watchers = watchers[watchers >= self.n_servers]
            if watchers.size:
                going = watchers[rng.random(watchers.size) < prob]
                self._user_deadline.update(
                    dict.fromkeys(self.user_id[going].tolist(), now))
                self._leave_batch(going, LeaveReason.PROGRAM_END, retry=False)
        # patience
        waiting = (state == _JOINING) | (state == _BUFFERING)
        waiting[: self.n_servers] = False
        impatient = np.flatnonzero(
            waiting & (now - self.joined_at[:hi] > cfg.join_patience_s))
        if impatient.size:
            self._leave_batch(impatient, LeaveReason.IMPATIENCE)
        # stall watchdog
        players = np.flatnonzero(state[self.n_servers:] == _PLAYING)
        players += self.n_servers
        if players.size:
            check = players[self.next_watch[players] <= now]
            if check.size:
                self.next_watch[check] = now + cfg.stall_window_s
                wdue = self.watch_due[check]
                wmiss = self.watch_missed[check]
                with np.errstate(divide="ignore", invalid="ignore"):
                    cont = np.where(wdue > 0, 1.0 - wmiss / wdue, 1.0)
                stalled = check[(wdue > 0) & (cont < cfg.stall_exit_continuity)]
                self.watch_due[check] = 0.0
                self.watch_missed[check] = 0.0
                if stalled.size:
                    self._leave_batch(stalled, LeaveReason.FAILURE)
        if timing:
            _pt = self._mark_phase("departures", _pt)

        # 9. status reports ---------------------------------------------------------------
        period = cfg.status_report_period_s
        alive = np.flatnonzero(active_or_joining & (state != _EMPTY))
        if alive.size:
            joined = self.joined_at[alive]
            phase = self.report_phase[alive]
            age = now - joined
            fires = alive[
                (np.floor((age + phase) / period)
                 > np.floor((now - dt - joined + phase) / period))
                & (age >= dt)
            ]
            self._send_status_reports(fires)
        if timing:
            self._mark_phase("reports", _pt)

        self.now = now + dt
        self.steps_run += 1
        if _obs is not None:
            dur = perf_counter() - _t0  # repro: noqa[DET002] obs step-timer instrumentation only
            reg = _obs.registry
            reg.counter("fastsim.steps").inc()
            reg.counter("fastsim.peers_stepped").inc(int(np.count_nonzero(active)))
            reg.timer("fastsim.step_s").observe(dur)
            live = self.concurrent_users
            reg.gauge("fastsim.live_peers").set(live)
            reg.gauge("fastsim.live_peers_max").max(live)
            if _obs.trace is not None:
                _obs.trace.complete("fastsim.step", _obs.trace.rel_us(_t0),
                                    dur * 1e6, cat="fastsim", sim_time=self.now)
            if _obs.progress is not None:
                _obs.progress.maybe_beat(self.now, self.steps_run, "steps")

    def _send_status_reports(self, fires: np.ndarray) -> None:
        """The QoS/traffic/partner triple of every peer of ``fires``, in
        that order, rendered from one gathered column per field."""
        now = self.now
        due = self.win_due[fires]
        with np.errstate(divide="ignore", invalid="ignore"):
            window = 1.0 - self.win_missed[fires] / due
        n_parents = _count_last(np.take(self.parent, fires, axis=0) >= 0)
        up = self.bits_up[fires]
        down = self.bits_down[fires]
        header = ((fires + 100_000).tolist(), self.user_id[fires].tolist(),
                  self.session_id[fires].tolist())
        parents = n_parents.tolist()
        lines = [""] * (3 * len(parents))
        lines[0::3] = QoSReport.log_strings(
            now, *header,
            [max(0.0, min(1.0, cont)) if measured else None
             for measured, cont in zip((due > 0).tolist(), window.tolist())],
            (_min_last(np.take(self.H, fires, axis=0)) + 1.0
             - self.q[fires]).tolist(),
            parents, (self.state[fires] == _PLAYING).tolist())
        lines[1::3] = TrafficReport.log_strings(
            now, *header,
            ((up - self.bits_up_rep[fires]) / 8.0).tolist(),
            ((down - self.bits_down_rep[fires]) / 8.0).tolist(),
            (up / 8.0).tolist(), (down / 8.0).tolist())
        # partner report: fastsim tracks direction via ever_incoming (set
        # when a contributor-class node accepts a child's partnership)
        lines[2::3] = PartnerReport.log_strings(
            now, *header, (n_parents + (self.children[fires] > 0)).tolist(),
            self.ever_incoming[fires].astype(np.int64).tolist(), parents)
        self.log.receive_lines(now, lines)
        self.win_due[fires] = 0.0
        self.win_missed[fires] = 0.0
        self.bits_up_rep[fires] = up
        self.bits_down_rep[fires] = down

    # ------------------------------------------------------------------
    def run(self, until: float) -> None:
        """Step until ``self.now >= until``."""
        while self.now < until:
            self.step()

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def concurrent_users(self) -> int:
        """Alive user peers right now."""
        return int(np.count_nonzero(
            self.state[self.n_servers: self._hi] != _EMPTY))

    @property
    def playing_users(self) -> int:
        """User peers currently in the PLAYING state."""
        return int(np.count_nonzero(
            self.state[self.n_servers: self._hi] == _PLAYING))

    def mean_continuity(self) -> float:
        """Mean lifetime continuity over playing peers."""
        mask = (self.state == _PLAYING) & (self.due > 0)
        mask[: self.n_servers] = False
        if not mask.any():
            return float("nan")
        return float((1.0 - self.missed[mask] / self.due[mask]).mean())

    def success_fraction(self) -> float:
        """Fraction of spawned users with a session that reached PLAYING
        (NaN before the first spawn).  Every spawn logs a JOIN and every
        PLAYING transition a READY at once, so this is the fraction the
        log's session table gives, without reading the log."""
        if not self.users_spawned:
            return float("nan")
        return self.users_played / self.users_spawned

    def retry_histogram(self) -> Dict[int, int]:
        """retries -> user count, from the retry bookkeeping."""
        hist: Dict[int, int] = {}
        seen_users = set()
        for uid, retries in self._retries_by_user.items():
            hist[retries] = hist.get(retries, 0) + 1
            seen_users.add(uid)
        zero = len(self._user_deadline) - len(seen_users)
        if zero > 0:
            hist[0] = hist.get(0, 0) + zero
        return hist
