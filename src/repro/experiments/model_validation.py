"""Validation of the Section IV analytical model against the simulator.

Two experiments:

* :func:`validate_dynamics_equations` -- builds controlled micro-scenarios
  with the reference engine's primitives (one parent, known capacity,
  known deficit) and compares measured catch-up / abandon times against
  Eqs. (3)-(5), and the measured competition-loss frequency against
  Eq. (6).
* :func:`validate_convergence_model` -- runs a steady audience, samples
  the fraction of sub-stream subscriptions held under contributor-class
  parents over time, and compares it with the two-state Markov chain of
  :class:`repro.model.convergence.ConvergenceModel`.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.analysis.topology import snapshot_overlay
from repro.core.stream import SubscriptionConn, UploadScheduler
from repro.experiments.render import FigureResult, render_series, render_table
from repro.model.convergence import ConvergenceModel
from repro.model.dynamics import (
    abandon_time,
    catchup_time,
    competition_loss_probability,
    degraded_rate,
    loss_time,
)
from repro.runtime import build_backend
from repro.workload.scenarios import steady_audience

__all__ = ["validate_dynamics_equations", "validate_convergence_model"]


def _simulate_transfer(
    upload_slots: float,
    n_children: int,
    deficit_blocks: int,
    *,
    sub_rate: float = 1.0,
    dt: float = 0.1,
    max_t: float = 500.0,
) -> Optional[float]:
    """Drive one :class:`UploadScheduler` parent with ``n_children``
    children, one of which starts ``deficit_blocks`` behind, and measure
    the time for that child to catch up to the live edge.  Returns None if
    it never does within ``max_t`` (the Eq. 4 regime)."""
    block_bits = 1.0
    sched = UploadScheduler(upload_slots * sub_rate, sub_rate, block_bits)
    # the parent is `deficit_blocks` ahead of the measured child at t=0
    parent_head = float(deficit_blocks)
    heads = {}
    sched.subscribe(0, 0, 1, now=0.0)
    heads[0] = 0
    for c in range(1, n_children):
        sched.subscribe(c, 0, deficit_blocks + 1, now=0.0)
        heads[c] = deficit_blocks

    t = 0.0
    caught_at = None

    def push(conn: SubscriptionConn, first: int, last: int) -> None:
        """Deliver a block interval to the measured child."""
        heads[conn.child_id] = last

    while t < max_t:
        t += dt
        parent_head += sub_rate * dt
        sched.deliver(dt, [int(parent_head)], 10_001, push)
        if heads[0] >= int(parent_head):
            caught_at = t
            break
    return caught_at


def validate_dynamics_equations(*, seed: int = 0) -> FigureResult:
    """Eqs. (3)-(6) vs micro-simulation."""
    rng = np.random.default_rng(seed)
    result = FigureResult(
        "Eqs. 3-6", "Analytical adaptation dynamics vs simulation"
    )

    # --- Eq. 3: catch-up time ----------------------------------------------
    rows = []
    errors = []
    for slots, l in ((3.0, 10), (2.0, 20), (5.0, 15), (1.5, 8)):
        # single child: r_up = min(slots, catch-up cap) in block/s units
        from repro.core.stream import CATCHUP_DEMAND_FACTOR
        r_up = min(slots, CATCHUP_DEMAND_FACTOR)
        predicted = catchup_time(l, r_up, 1.0)
        measured = _simulate_transfer(slots, 1, l)
        rows.append((
            f"{slots:g}", str(l), f"{predicted:.1f}",
            "-" if measured is None else f"{measured:.1f}",
        ))
        if measured is not None:
            errors.append(abs(measured - predicted) / predicted)
    result.add_block("Eq. 3 (catch-up time): parent slots / deficit l")
    result.add_block(render_table(
        ("slots (r_up)", "l (blocks)", "predicted t_up", "measured"), rows
    ))
    result.metrics["eq3_max_rel_error"] = float(np.max(errors)) if errors else float("nan")

    # --- Eq. 5: degraded rate ----------------------------------------------
    rows = []
    for d_p in (1, 2, 4, 8):
        # a parent exactly provisioned for d_p children accepts one more
        slots = float(d_p)
        r_pred = degraded_rate(d_p, 1.0)
        # measure: d_p + 1 caught-up children on a d_p-slot parent
        sched = UploadScheduler(slots, 1.0, 1.0)
        for c in range(d_p + 1):
            sched.subscribe(c, 0, 1, now=0.0)
        delivered = {c: 0 for c in range(d_p + 1)}

        def push(conn, first, last):
            """Deliver a block interval to the measured child."""
            delivered[conn.child_id] += last - first + 1

        head = 0
        horizon = 200
        for step in range(horizon):
            head += 1
            sched.deliver(1.0, [head], 10_001, push)
        r_meas = np.mean([delivered[c] / horizon for c in delivered])
        rows.append((str(d_p), f"{r_pred:.3f}", f"{r_meas:.3f}"))
    result.add_block("Eq. 5 (degraded rate r_down = D_p/(D_p+1) * R/K)")
    result.add_block(render_table(
        ("D_p", "predicted r_down", "measured mean rate"), rows
    ))

    # --- Eq. 4: abandon time -----------------------------------------------
    rows = []
    for d_p, ts in ((2, 10.0), (4, 10.0), (8, 10.0)):
        r_down = degraded_rate(d_p, 1.0)
        t_pred = abandon_time(ts, r_down, 1.0)
        t_lose = loss_time(d_p, ts, 0.0, 1.0)
        rows.append((str(d_p), f"{r_down:.3f}", f"{t_pred:.1f}", f"{t_lose:.1f}"))
    result.add_block(
        "Eq. 4 (abandon time for slack T_s) and t_lose (competition loss)"
    )
    result.add_block(render_table(
        ("D_p", "r_down", "t_down(T_s)", "t_lose(t_delta=0)"), rows
    ))

    # --- Eq. 6: competition-loss probability --------------------------------
    rows = []
    eq6_err = []
    ts, ta = 10.0, 20.0
    for d_p in (1, 2, 4, 8):
        # empirical t_delta ~ Uniform[0, T_s) sampling, Monte Carlo of the
        # defining event t_lose <= T_a
        samples = rng.uniform(0.0, ts, size=20_000)
        t_lose_samples = (d_p + 1) * (ts - samples) / 1.0
        mc = float((t_lose_samples <= ta).mean())
        closed = competition_loss_probability(d_p, ts, ta, 1.0)
        rows.append((str(d_p), f"{closed:.3f}", f"{mc:.3f}"))
        eq6_err.append(abs(closed - mc))
    result.add_block("Eq. 6 (P(lose within T_a)), uniform t_delta prior")
    result.add_block(render_table(
        ("D_p", "closed form", "Monte Carlo"), rows
    ))
    result.metrics["eq6_max_abs_error"] = float(np.max(eq6_err))
    result.note(
        "larger D_p lowers the loss probability: children of high-degree "
        "(contributor) parents are safer -- the clogging mechanism of Fig. 4"
    )
    return result


def validate_convergence_model(
    *, seed: int = 0, rate_per_s: float = 0.4, horizon_s: float = 1500.0,
    snapshot_every_s: float = 100.0,
) -> FigureResult:
    """Measured contributor-parent fraction vs the Markov-chain transient."""
    scenario = steady_audience(rate_per_s=rate_per_s, horizon_s=horizon_s)
    backend = build_backend(scenario, seed=seed, engine="detailed")
    backend.materialize()
    system = backend.system
    times: List[float] = []
    fractions: List[float] = []
    t = snapshot_every_s
    while t <= horizon_s + 1e-9:
        system.run(until=t)
        snap = snapshot_overlay(system)
        times.append(t)
        fractions.append(snap.contributor_parent_fraction())
        t += snapshot_every_s

    mix = system.mix
    model = ConvergenceModel.from_populations(mix.contributor_fraction)
    # map adaptation rounds onto wall clock: one round per T_a
    rounds = max(2, int(horizon_s / system.cfg.ta_seconds))
    transient = model.transient(initial_stable=fractions[0], n_rounds=rounds)
    stationary = model.stationary_stable_fraction()

    result = FigureResult(
        "Convergence", "Random selection converges peers under stable parents"
    )
    result.add_block(render_series("measured fraction", times, fractions, fmt="%.2f"))
    result.add_block(render_series(
        "model transient", list(range(rounds + 1)), transient, fmt="%.2f"
    ))
    result.metrics["measured_final_fraction"] = fractions[-1]
    result.metrics["model_stationary_fraction"] = stationary
    result.metrics["abs_gap"] = abs(fractions[-1] - stationary)
    result.note(
        "paper: 'if the system runs long enough, most of peers will likely "
        "become children of direct-connect/UPnP peers'"
    )
    return result
