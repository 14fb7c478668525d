"""Per-figure regeneration functions.

Each function runs a scenario sized to finish in tens of seconds on a
laptop (pass ``scale``/duration arguments to go bigger), analyses the
resulting log with :mod:`repro.analysis` exactly as Section V does, and
returns a :class:`~repro.experiments.render.FigureResult`.

Every figure routes through :func:`repro.runtime.run_scenario`, so the
``engine`` keyword switches any of them between the event-driven
reference engine (``"detailed"``) and the vectorized fluid engine
(``"fast"``).  Defaults preserve each figure's historical engine:
protocol-microscope figures (3, 4, 6, 8) default to detailed,
population-scale figures (5, 7, 9, 10) to fast.

The paper-vs-measured record produced by these functions is kept in
EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.analysis import (
    Cdf,
    SessionTable,
    classify_users,
    continuity_by_type,
    snapshot_overlay,
)
from repro.analysis.classification import UserType, type_distribution
from repro.analysis.continuity import mean_continuity
from repro.analysis.contribution import (
    contribution_by_type,
    contributor_class_share,
    lorenz_curve,
    top_contributor_share,
    upload_totals,
)
from repro.core.config import SystemConfig
from repro.experiments.render import FigureResult, render_series, render_table
from repro.runtime import build_backend, run_scenario
from repro.workload.arrivals import FlashCrowd
from repro.workload.scenarios import (
    Scenario,
    diurnal_day,
    flash_crowd_storm,
    steady_audience,
    uniform_ramp,
)
from repro.workload.sessions import SessionDurationModel

__all__ = [
    "table1",
    "fig3_user_types_and_contribution",
    "fig4_overlay_structure",
    "fig5_user_evolution",
    "fig6_join_time_cdfs",
    "fig7_ready_time_by_period",
    "fig8_continuity_by_type",
    "fig9_size_point",
    "fig9_rate_point",
    "fig9_scalability",
    "fig10_sessions_and_retries",
]


# ---------------------------------------------------------------------------
# Table I
# ---------------------------------------------------------------------------
def table1(cfg: Optional[SystemConfig] = None) -> FigureResult:
    """Table I: system parameters of Coolstreaming."""
    cfg = cfg or SystemConfig()
    result = FigureResult("Table I", "System parameters of Coolstreaming")
    result.add_block(
        render_table(("symbol", "meaning", "value"), cfg.table1())
    )
    result.metrics["R_kbps"] = cfg.stream_rate_bps / 1000
    result.metrics["K"] = cfg.n_substreams
    return result


# ---------------------------------------------------------------------------
# Fig. 3: user types and upload contribution
# ---------------------------------------------------------------------------
def fig3_user_types_and_contribution(
    *, seed: int = 0, rate_per_s: float = 0.4, horizon_s: float = 1200.0,
    engine: str = "detailed",
) -> FigureResult:
    """Fig. 3a/3b: user type distribution and upload-byte shares.

    Paper: direct+UPnP are ~30% of peers yet contribute >80% of bytes.
    """
    scenario = steady_audience(rate_per_s=rate_per_s, horizon_s=horizon_s)
    log = run_scenario(scenario, seed=seed, engine=engine).log
    types = classify_users(log)
    dist = type_distribution(types)
    per_type = contribution_by_type(log, types)
    pop_frac, up_frac = contributor_class_share(log, types)

    result = FigureResult(
        "Fig. 3", "User type distribution and upload contribution"
    )
    result.add_block(render_table(
        ("user type", "population share", "upload-bytes share"),
        [
            (t.value, f"{per_type[t][0]*100:.1f}%", f"{per_type[t][1]*100:.1f}%")
            for t in UserType
        ],
    ))
    uploads = list(upload_totals(log).values())
    x, y = lorenz_curve(uploads)
    result.add_block(render_series("Lorenz (upload bytes)", x, y, fmt="%.2f"))
    result.metrics["contributor_population_share"] = pop_frac
    result.metrics["contributor_upload_share"] = up_frac
    result.metrics["top30pct_upload_share"] = top_contributor_share(uploads, 0.30)
    result.metrics["classified_users"] = float(len(types))
    result.note(
        "paper: ~30% of peers (direct+UPnP) contribute >80% of upload bytes"
    )
    return result


# ---------------------------------------------------------------------------
# Fig. 4: overlay structure
# ---------------------------------------------------------------------------
def fig4_overlay_structure(
    *, seed: int = 0, rate_per_s: float = 0.4, horizon_s: float = 1200.0,
    snapshot_every_s: float = 300.0,
) -> FigureResult:
    """Fig. 4 (conceptual overlay) made quantitative: clogging under
    contributor parents, rarity of NAT<->NAT links, convergence over time."""
    scenario = steady_audience(rate_per_s=rate_per_s, horizon_s=horizon_s)
    backend = build_backend(scenario, seed=seed, engine="detailed")
    backend.materialize()
    system = backend.system
    snapshots = []
    t = snapshot_every_s
    while t <= horizon_s + 1e-9:
        system.run(until=t)
        snapshots.append(snapshot_overlay(system))
        t += snapshot_every_s

    result = FigureResult("Fig. 4", "Overlay structure statistics over time")
    rows = []
    for snap in snapshots:
        rows.append((
            f"{snap.time:.0f}",
            f"{snap.n_peers}",
            f"{snap.contributor_parent_fraction()*100:.1f}%",
            f"{snap.random_link_fraction()*100:.1f}%",
            f"{snap.mean_depth():.2f}",
        ))
    result.add_block(render_table(
        ("t (s)", "peers", "subs under contributor parents",
         "NAT<->NAT links", "mean depth"),
        rows,
    ))
    final = snapshots[-1]
    degs = final.out_degree_by_class()
    result.add_block(render_table(
        ("class", "mean sub-stream out-degree D_p"),
        [(cls.name, f"{d:.2f}") for cls, d in sorted(degs.items())],
    ))
    result.metrics["final_contributor_parent_fraction"] = (
        final.contributor_parent_fraction()
    )
    result.metrics["final_random_link_fraction"] = final.random_link_fraction()
    result.metrics["final_mean_depth"] = final.mean_depth()
    result.note(
        "paper: peers clog under direct/UPnP parents; NAT-NAT 'random links' rare"
    )
    return result


# ---------------------------------------------------------------------------
# Fig. 5: audience evolution
# ---------------------------------------------------------------------------
def fig5_user_evolution(
    *, seed: int = 0, day_seconds: float = 14_400.0, peak_rate: float = 2.0,
    n_servers: int = 6, engine: str = "fast",
) -> FigureResult:
    """Fig. 5a/5b: concurrent users over a (scaled) day and its evening.

    A diurnal arrival profile with a program-end cliff at "22:00" (here
    scaled onto ``day_seconds``); the curve must ramp steeply to the peak
    and collapse at the ending, as measured on 2006-09-27.
    """
    program_end = 22.0 / 24.0 * day_seconds
    scenario = diurnal_day(
        day_seconds=day_seconds, peak_rate=peak_rate, n_servers=n_servers,
        program_ending=(program_end, 0.75),
    )
    res = run_scenario(scenario, seed=seed, engine=engine,
                       capacity_hint=8192)

    table = SessionTable.from_log(res.log)
    grid, counts = table.concurrent_users(step_s=day_seconds / 288, t1=day_seconds)
    evening0 = 18.0 / 24.0 * day_seconds
    mask = grid >= evening0

    result = FigureResult("Fig. 5", "Evolution of the number of users")
    result.add_block(render_series("5a: whole day", grid, counts, fmt="%.0f"))
    result.add_block(render_series("5b: evening", grid[mask], counts[mask], fmt="%.0f"))
    peak_idx = int(np.argmax(counts))
    after_end = counts[np.searchsorted(grid, min(program_end + 0.02 * day_seconds,
                                                 grid[-1]))]
    result.metrics["peak_concurrent"] = float(counts[peak_idx])
    result.metrics["peak_time_frac_of_day"] = float(grid[peak_idx] / day_seconds)
    result.metrics["drop_after_program_end"] = float(
        1.0 - after_end / max(1.0, counts[peak_idx])
    )
    result.metrics["arrived_users"] = float(res.workload.n_users)
    result.note("paper: ramp to ~40,000 peak; sharp drop at ~22:00 program end")
    return result


# ---------------------------------------------------------------------------
# Fig. 6: join-time CDFs (reference engine: real control-plane latencies)
# ---------------------------------------------------------------------------
def fig6_join_time_cdfs(
    *, seed: int = 0, burst_users_per_s: float = 1.2, horizon_s: float = 900.0,
    engine: str = "detailed",
) -> FigureResult:
    """Fig. 6: CDFs of start-subscription time, media-player-ready time and
    their difference (the buffer-fill wait).

    Paper: most users subscribe within seconds; ready time has a heavy
    tail; the difference concentrates around 10-20 s.
    """
    scenario = flash_crowd_storm(
        burst_users_per_s=burst_users_per_s, horizon_s=horizon_s, n_servers=3
    )
    res = run_scenario(scenario, seed=seed, engine=engine)
    table = SessionTable.from_log(res.log)
    subs = table.subscription_delays()
    ready = table.ready_delays()
    diff = table.buffering_delays()

    result = FigureResult(
        "Fig. 6", "Start-subscription vs media-player-ready time CDFs"
    )
    grid = [1, 2, 5, 10, 15, 20, 30, 45, 60, 90]
    rows = []
    cdf_subs = Cdf.from_samples(subs)
    cdf_ready = Cdf.from_samples(ready)
    cdf_diff = Cdf.from_samples(diff)
    for g in grid:
        rows.append((
            f"{g}",
            f"{cdf_subs.at(g):.3f}",
            f"{cdf_ready.at(g):.3f}",
            f"{cdf_diff.at(g):.3f}",
        ))
    result.add_block(render_table(
        ("seconds", "P(start-sub <= x)", "P(ready <= x)", "P(diff <= x)"), rows
    ))
    result.metrics["median_start_subscription_s"] = cdf_subs.median
    result.metrics["median_ready_s"] = cdf_ready.median
    result.metrics["median_buffering_s"] = cdf_diff.median
    result.metrics["p90_ready_s"] = cdf_ready.quantile(0.9)
    result.metrics["n_sessions"] = float(len(table))
    result.note("paper: buffering difference averages 10-20 s; ready heavy-tailed")
    return result


# ---------------------------------------------------------------------------
# Fig. 7: ready time by day period
# ---------------------------------------------------------------------------
def fig7_ready_time_by_period(
    *, seed: int = 0, day_seconds: float = 14_400.0, peak_rate: float = 2.0,
    n_servers: int = 6, engine: str = "fast",
) -> FigureResult:
    """Fig. 7: media-player-ready-time distribution in four day periods.

    Paper's periods (i) 01:00-13:29, (ii) 13:30-17:29, (iii) 17:30-20:29,
    (iv) 20:30-23:59, scaled onto our day; period (iii) -- the steep ramp
    -- shows the longest ready times.
    """
    scenario = diurnal_day(
        day_seconds=day_seconds, peak_rate=peak_rate, n_servers=n_servers,
    )
    res = run_scenario(scenario, seed=seed, engine=engine,
                       capacity_hint=8192)

    table = SessionTable.from_log(res.log)
    h = day_seconds / 24.0
    periods = {
        "(i) 01:00-13:29": (1.0 * h, 13.49 * h),
        "(ii) 13:30-17:29": (13.5 * h, 17.49 * h),
        "(iii) 17:30-20:29": (17.5 * h, 20.49 * h),
        "(iv) 20:30-23:59": (20.5 * h, 24.0 * h),
    }
    result = FigureResult("Fig. 7", "Ready-time distribution by day period")
    rows = []
    medians: Dict[str, float] = {}
    for name, (a, b) in periods.items():
        delays = table.ready_delays(join_after=a, join_before=b)
        if not delays:
            rows.append((name, "0", "-", "-", "-"))
            continue
        cdf = Cdf.from_samples(delays)
        medians[name] = cdf.median
        rows.append((
            name, str(cdf.n), f"{cdf.median:.1f}",
            f"{cdf.quantile(0.9):.1f}", f"{cdf.mean:.1f}",
        ))
    result.add_block(render_table(
        ("period", "n", "median ready (s)", "p90", "mean"), rows
    ))
    if "(iii) 17:30-20:29" in medians:
        others = [v for k, v in medians.items() if k != "(iii) 17:30-20:29"]
        result.metrics["peak_period_median_s"] = medians["(iii) 17:30-20:29"]
        if others:
            result.metrics["offpeak_median_s"] = float(np.mean(others))
            result.metrics["peak_to_offpeak_ratio"] = (
                medians["(iii) 17:30-20:29"] / float(np.mean(others))
            )
    result.note("paper: period (iii) -- highest join rate -- has the longest ready times")
    return result


# ---------------------------------------------------------------------------
# Fig. 8: continuity by user type
# ---------------------------------------------------------------------------
def fig8_continuity_by_type(
    *, seed: int = 0, rate_per_s: float = 0.5, horizon_s: float = 1800.0,
    engine: str = "detailed",
) -> FigureResult:
    """Fig. 8: average continuity index vs time per user connection type.

    Paper: all types >98%; *direct-connect slightly below NAT/firewall* --
    an artefact of churn plus the 5-minute report cadence (bad NAT windows
    never reach the server).  The reference engine reproduces the whole
    causal chain, so the inversion should emerge, not be injected.
    """
    scenario = steady_audience(rate_per_s=rate_per_s, horizon_s=horizon_s,
                               n_servers=3)
    log = run_scenario(scenario, seed=seed, engine=engine).log
    types = classify_users(log)
    series = continuity_by_type(log, bin_s=300.0, types=types, t1=horizon_s)

    result = FigureResult("Fig. 8", "Continuity index vs time by user type")
    means: Dict[str, float] = {}
    for ut, (centers, vals, counts) in series.items():
        result.add_block(render_series(
            f"{ut.value} (n={int(counts.sum())})", centers, vals, fmt="%.3f"
        ))
        finite = vals[np.isfinite(vals)]
        if finite.size:
            means[ut.value] = float(np.mean(finite))
    result.add_block(render_table(
        ("user type", "mean continuity"),
        [(k, f"{v:.4f}") for k, v in sorted(means.items())],
    ))
    for k, v in means.items():
        result.metrics[f"mean_continuity_{k}"] = v
    overall = mean_continuity(log, after=300.0)
    result.metrics["mean_continuity_overall"] = overall
    if "direct" in means and "nat" in means:
        result.metrics["nat_minus_direct"] = means["nat"] - means["direct"]
    result.note(
        "paper: continuity >=97-98% for all types; NAT/firewall *measured* "
        "slightly above direct (report-loss artefact)"
    )
    return result


# ---------------------------------------------------------------------------
# Fig. 9: scalability sweeps
# ---------------------------------------------------------------------------
def fig9_size_point(
    *, seed: int = 0, n_users: int = 1000, horizon_s: float = 1200.0,
    n_servers: int = 4, engine: str = "fast",
) -> FigureResult:
    """One Fig. 9a sweep point: mean continuity at ``n_users`` arrivals.

    Independent of every other point (own simulation, own seed), which is
    what lets the campaign executor fan the sweep out across workers
    bit-identically to the sequential loop.
    """
    scenario = uniform_ramp(n_users=n_users, horizon_s=horizon_s,
                            n_servers=n_servers)
    res = run_scenario(scenario, seed=seed, engine=engine)
    cont = mean_continuity(res.log, after=0.4 * horizon_s)
    result = FigureResult("Fig. 9a point", f"continuity at N={n_users}")
    result.metrics["continuity"] = cont
    result.metrics["n_users"] = float(n_users)
    result.metrics["playing_at_end"] = res.metrics()["playing_users"]
    return result


def fig9_rate_point(
    *, seed: int = 0, rate: float = 1.0, horizon_s: float = 1200.0,
    n_servers: int = 4, engine: str = "fast",
) -> FigureResult:
    """One Fig. 9b sweep point: mean continuity at join rate ``rate``/s."""
    n_users = int(rate * 0.25 * horizon_s)
    scenario = uniform_ramp(n_users=n_users, horizon_s=horizon_s,
                            n_servers=n_servers)
    res = run_scenario(scenario, seed=seed, engine=engine)
    cont = mean_continuity(res.log, after=0.4 * horizon_s)
    result = FigureResult("Fig. 9b point", f"continuity at {rate:g}/s")
    result.metrics["continuity"] = cont
    result.metrics["rate"] = float(rate)
    result.metrics["arrivals"] = float(n_users)
    return result


def fig9_scalability(
    *, seed: int = 0, sizes: tuple = (250, 500, 1000, 2000, 4000),
    join_rates: tuple = (0.5, 1.0, 2.0, 4.0, 8.0),
    horizon_s: float = 1200.0, jobs: int = 1, engine: str = "fast",
) -> FigureResult:
    """Fig. 9a/9b: average continuity vs system size and vs join rate.

    Paper: flat at ~97% across sizes and arrival bursts -- the self-scaling
    claim.  Server fleet is held *constant* while the population grows, so
    flatness is carried by peer capacity, as in the deployment.

    Every sweep point is an independent simulation
    (:func:`fig9_size_point` at seed ``seed+i``, :func:`fig9_rate_point`
    at ``seed+100+i``); ``jobs > 1`` fans them out over the campaign
    executor's worker pool with results bit-identical to ``jobs=1``.
    A non-default ``engine`` is threaded into every point's overrides
    (and hence into campaign run keys).
    """
    # only non-default engines enter the overrides: the default sweep's
    # content-addressed run keys (and cached results) stay valid
    extra = {} if engine == "fast" else {"engine": engine}
    point_specs = [
        ("fig9_size", seed + i,
         {"n_users": int(n), "horizon_s": horizon_s, **extra})
        for i, n in enumerate(sizes)
    ] + [
        ("fig9_rate", seed + 100 + i,
         {"rate": float(r), "horizon_s": horizon_s, **extra})
        for i, r in enumerate(join_rates)
    ]

    if jobs != 1:
        # lazy import: repro.campaign's registry imports this module
        from repro.campaign.runner import run_campaign
        from repro.campaign.spec import CampaignSpec, RunSpec, run_key

        spec = CampaignSpec(name="fig9", code_version=None)
        spec.runs = [
            RunSpec(experiment=exp, seed=s, overrides=ov,
                    key=run_key(exp, s, ov, None))
            for exp, s, ov in point_specs
        ]
        report = run_campaign(spec, store=None, jobs=jobs)
        if not report.ok:
            failed = [r for r in report.results if r.status == "failed"]
            detail = failed[0].error if failed else "interrupted"
            raise RuntimeError(f"fig9 campaign failed: {detail}")
        point_metrics = [r.metrics for r in report.results]
    else:
        point_fns = {"fig9_size": fig9_size_point, "fig9_rate": fig9_rate_point}
        point_metrics = [
            dict(point_fns[exp](seed=s, **ov).metrics)
            for exp, s, ov in point_specs
        ]

    result = FigureResult("Fig. 9", "Continuity vs system size / join rate")
    size_points = point_metrics[:len(sizes)]
    rate_points = point_metrics[len(sizes):]

    size_rows = []
    size_metrics = []
    for n_users, m in zip(sizes, size_points):
        cont = m["continuity"]
        size_rows.append((str(n_users), f"{int(m['playing_at_end'])}",
                          f"{cont:.4f}"))
        size_metrics.append(cont)
        result.metrics[f"continuity_N{n_users}"] = cont
    result.add_block(render_table(
        ("arrivals (9a)", "playing at end", "mean continuity"), size_rows
    ))

    rate_rows = []
    rate_metrics = []
    for rate, m in zip(join_rates, rate_points):
        cont = m["continuity"]
        rate_rows.append((f"{rate:g}/s", str(int(m["arrivals"])),
                          f"{cont:.4f}"))
        rate_metrics.append(cont)
        result.metrics[f"continuity_rate{rate:g}"] = cont
    result.add_block(render_table(
        ("join rate (9b)", "arrivals", "mean continuity"), rate_rows
    ))
    result.metrics["size_sweep_min"] = float(np.min(size_metrics))
    result.metrics["size_sweep_spread"] = float(
        np.max(size_metrics) - np.min(size_metrics)
    )
    result.metrics["rate_sweep_min"] = float(np.min(rate_metrics))
    result.note("paper: continuity stays ~97% across sizes and join rates")
    return result


# ---------------------------------------------------------------------------
# Fig. 10: session durations and retries
# ---------------------------------------------------------------------------
def fig10_sessions_and_retries(
    *, seed: int = 0, burst_users_per_s: float = 3.0, horizon_s: float = 1800.0,
    n_servers: int = 4, engine: str = "fast",
) -> FigureResult:
    """Fig. 10a/10b: session-duration distribution and retry counts.

    Paper: heavy-tailed durations plus a spike of <1-minute sessions
    (failed joins); ~20% of users retried 1-2 times.
    """
    scenario = Scenario(
        name="fig10_flash",
        cfg=SystemConfig(n_servers=n_servers),
        arrivals=FlashCrowd(
            start_s=0.02 * horizon_s, ramp_s=0.15 * horizon_s,
            hold_s=0.4 * horizon_s, decay_s=0.15 * horizon_s,
            peak_rate=burst_users_per_s, base_rate=0.1,
        ),
        horizon_s=horizon_s,
        duration_model=SessionDurationModel(
            lognorm_median_s=0.2 * horizon_s, pareto_scale_s=0.5 * horizon_s
        ),
    )
    res = run_scenario(scenario, seed=seed, engine=engine,
                       capacity_hint=8192)

    table = SessionTable.from_log(res.log)
    durs = table.durations()
    cdf = Cdf.from_samples(durs)
    result = FigureResult("Fig. 10", "Session durations and re-try sessions")
    grid = [30, 60, 120, 300, 600, 900, 1200, horizon_s]
    result.add_block(render_table(
        ("duration x (s)", "P(D <= x)"),
        [(f"{g:.0f}", f"{cdf.at(g):.3f}") for g in grid],
    ))
    hist = table.retry_histogram()
    total_users = sum(hist.values())
    result.add_block(render_table(
        ("retries", "users", "fraction"),
        [
            (str(r), str(n), f"{n / total_users:.3f}")
            for r, n in sorted(hist.items())
        ],
    ))
    result.metrics["short_session_fraction"] = table.short_session_fraction(60.0)
    result.metrics["median_duration_s"] = cdf.median
    retried = sum(n for r, n in hist.items() if r >= 1)
    result.metrics["retried_user_fraction"] = retried / total_users
    result.metrics["retried_1or2_fraction"] = (
        (hist.get(1, 0) + hist.get(2, 0)) / total_users
    )
    result.metrics["n_users"] = float(total_users)
    result.note("paper: heavy tail + <1min spike; ~20% of users retried 1-2 times")
    return result
