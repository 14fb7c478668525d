"""Ablations of the design choices DESIGN.md section 5 calls out.

Each ablation runs matched scenarios (identical seeds, workloads and
capacity draws -- the RngHub stream isolation guarantees this) with one
protocol knob flipped, and reports the metrics that knob is supposed to
move:

* ``initial_offset_mode``: the paper's ``m - T_p`` rule vs starting at the
  newest block (risking underflow) vs the oldest (risking eviction and a
  huge startup delay) -- Section IV.A's argument.
* ``parent_choice``: random among qualified (deployed) vs most-advanced.
* ``mcache_replacement``: random (deployed; flash-crowd pathology) vs
  age-biased (the paper's suggested improvement, Section V.C).
* ``cooldown_enabled``: the ``T_a`` damper on adaptation storms.
* ``n_substreams``: sub-stream diversity (Section VI claim 3).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis import (
    Cdf,
    ContinuitySamplesFold,
    SessionTableFold,
    fold_log,
    mean_continuity,
)
from repro.core.config import SystemConfig
from repro.experiments.render import FigureResult, render_table
from repro.runtime import RuntimeResult, run_scenario
from repro.workload.scenarios import flash_crowd_storm, steady_audience

__all__ = [
    "run_variant",
    "ablate_offset_mode",
    "ablate_parent_choice",
    "ablate_mcache_policy",
    "ablate_cooldown",
    "ablate_substreams",
    "ablate_delivery_mode",
]


def run_variant(
    cfg: SystemConfig,
    *,
    seed: int = 0,
    burst_users_per_s: float = 1.2,
    horizon_s: float = 700.0,
    steady: bool = False,
    engine: str = "detailed",
) -> Dict[str, float]:
    """Run one scenario under ``cfg`` and extract the comparison metrics.

    Ablations default to the detailed engine because most ablated knobs
    (mCache policy, delivery mode, offset rule) only exist there; the
    fluid engine is still available for the workload-level ones.
    """
    return _variant_run(cfg, seed, burst_users_per_s, horizon_s, steady,
                        engine)[0]


def _variant_run(
    cfg: SystemConfig, seed: int = 0, burst_users_per_s: float = 1.2,
    horizon_s: float = 700.0, steady: bool = False, engine: str = "detailed",
) -> Tuple[Dict[str, float], RuntimeResult]:
    """:func:`run_variant`'s metrics, and the run they were read from."""
    if steady:
        scenario = steady_audience(rate_per_s=burst_users_per_s,
                                   horizon_s=horizon_s, n_servers=2, cfg=cfg)
    else:
        scenario = flash_crowd_storm(
            burst_users_per_s=burst_users_per_s, horizon_s=horizon_s,
            n_servers=2, cfg=cfg,
        )
    res = run_scenario(scenario, seed=seed, engine=engine)
    engine_metrics = res.metrics()
    table, samples = fold_log(res.log, SessionTableFold(),
                              ContinuitySamplesFold())
    ready = table.ready_delays()
    out: Dict[str, float] = {
        "sessions": float(len(table)),
        "success_fraction": engine_metrics["success_fraction"],
        "continuity": mean_continuity(samples, after=0.3 * horizon_s),
        "adaptations": engine_metrics["adaptations"],
    }
    if ready:
        cdf = Cdf.from_samples(ready)
        out["ready_median_s"] = cdf.median
        out["ready_p90_s"] = cdf.quantile(0.9)
    else:
        out["ready_median_s"] = float("nan")
        out["ready_p90_s"] = float("nan")
    return out, res


def _compare(
    figure_id: str,
    title: str,
    variants: Dict[str, SystemConfig],
    *,
    seed: int = 0,
    metric_keys: Sequence[str] = (
        "ready_median_s", "ready_p90_s", "success_fraction", "continuity",
    ),
    extra: Optional[Callable[[RuntimeResult], Dict[str, float]]] = None,
    **run_kwargs,
) -> FigureResult:
    """One run per variant, tabulated over ``metric_keys``.  ``extra``
    reads more key metrics off each run; they follow the table's."""
    result = FigureResult(figure_id, title)
    rows: List[tuple] = []
    extras: Dict[str, float] = {}
    for name, cfg in variants.items():
        metrics, res = _variant_run(cfg, seed=seed, **run_kwargs)
        if extra is not None:
            for k, value in extra(res).items():
                extras[f"{name}.{k}"] = value
        del res  # one run's system in memory at a time
        rows.append((name,) + tuple(
            f"{metrics[k]:.3f}" for k in metric_keys
        ))
        for k in metric_keys:
            result.metrics[f"{name}.{k}"] = metrics[k]
    result.metrics.update(extras)
    result.add_block(render_table(("variant",) + tuple(metric_keys), rows))
    return result


def ablate_offset_mode(*, seed: int = 0, engine: str = "detailed") -> FigureResult:
    """Initial playout offset: m - T_p (paper) vs latest vs oldest."""
    base = SystemConfig(n_servers=2)
    return _compare(
        "Ablation A1", "Initial offset rule (Section IV.A)",
        {
            "tp (paper)": base.with_overrides(initial_offset_mode="tp"),
            "latest": base.with_overrides(initial_offset_mode="latest"),
            "oldest": base.with_overrides(initial_offset_mode="oldest"),
        },
        seed=seed,
        engine=engine,
    )


def ablate_parent_choice(*, seed: int = 0, engine: str = "detailed") -> FigureResult:
    """Random qualified parent (deployed) vs most-advanced-buffer parent."""
    base = SystemConfig(n_servers=2)
    return _compare(
        "Ablation A2", "Parent selection among qualified partners",
        {
            "random (paper)": base.with_overrides(parent_choice="random"),
            "best": base.with_overrides(parent_choice="best"),
        },
        seed=seed,
        engine=engine,
    )


def ablate_mcache_policy(*, seed: int = 0, engine: str = "detailed") -> FigureResult:
    """Random mCache replacement (deployed) vs age-biased (suggested)."""
    base = SystemConfig(n_servers=2)
    return _compare(
        "Ablation A3", "mCache replacement under a flash crowd (Section V.C)",
        {
            "random (paper)": base.with_overrides(mcache_replacement="random"),
            "age (suggested)": base.with_overrides(mcache_replacement="age"),
        },
        seed=seed,
        engine=engine,
        burst_users_per_s=1.6,
    )


def ablate_cooldown(*, seed: int = 0, engine: str = "detailed") -> FigureResult:
    """The T_a cool-down damper on adaptation chain reactions."""
    base = SystemConfig(n_servers=2)
    return _compare(
        "Ablation A4", "Adaptation cool-down T_a (Section IV.B)",
        {
            "cooldown on (paper)": base.with_overrides(cooldown_enabled=True),
            "cooldown off": base.with_overrides(cooldown_enabled=False),
        },
        seed=seed,
        engine=engine,
        metric_keys=(
            "ready_median_s", "success_fraction", "continuity", "adaptations",
        ),
    )


def ablate_delivery_mode(*, seed: int = 0, engine: str = "detailed",
                         burst_users_per_s: float = 1.2,
                         horizon_s: float = 700.0) -> FigureResult:
    """Push (the measured system) vs pull (the DONet [3] baseline).

    The paper's lineage moved from per-block pulling to sub-stream
    pushing; this ablation quantifies the trade: push should win on
    steady-state smoothness and control-message economy, pull pays a
    per-round request latency on every scheduling decision.
    ``burst_users_per_s`` and ``horizon_s`` size every flash crowd it runs.
    """
    base = SystemConfig(n_servers=2)
    return _compare(
        "Ablation A6", "Delivery discipline: sub-stream push vs block pull",
        {
            "push (paper)": base.with_overrides(delivery_mode="push"),
            "pull (DONet)": base.with_overrides(delivery_mode="pull"),
        },
        seed=seed,
        engine=engine,
        burst_users_per_s=burst_users_per_s,
        horizon_s=horizon_s,
        extra=_data_control_msgs,
    )


def _data_control_msgs(res: RuntimeResult) -> Dict[str, float]:
    """The control-overhead comparison: pull requests against the
    subscriptions push needs (adaptations plus parents held).  They are
    counted on the detailed engine, so a run on another engine is
    repeated there."""
    if res.engine != "detailed":
        res = run_scenario(res.scenario, seed=res.seed, engine="detailed")
    system = res.system
    if system.cfg.delivery_mode == "pull":
        msgs = system.pull_requests_sent
    else:
        msgs = system.adaptations + system.parents_held
    return {"data_control_msgs": float(msgs)}


def ablate_substreams(*, seed: int = 0, engine: str = "detailed",
                      k_values: Sequence[int] = (1, 2, 4, 8)) -> FigureResult:
    """Sub-stream count K: delivery diversity vs per-stream granularity."""
    base = SystemConfig(n_servers=2)
    return _compare(
        "Ablation A5", "Number of sub-streams K (Section VI claim 3)",
        {f"K={k}": base.with_overrides(n_substreams=k) for k in k_values},
        seed=seed,
        engine=engine,
    )
