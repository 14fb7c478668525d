"""Fold per-run campaign results into figure-ready aggregates.

The campaign executor returns raw per-run payloads; this module turns
them into the same :class:`~repro.experiments.replication.MetricSummary`
/ :class:`~repro.experiments.replication.ReplicationResult` objects the
sequential ``replicate()`` path produces (including per-seed raw
samples), plus sweep series (param value → metric summary) and a JSON
artifact for plotting pipelines.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.campaign.runner import CampaignReport, RunResult
from repro.experiments.replication import MetricSummary, ReplicationResult

__all__ = [
    "successful_results",
    "to_replication",
    "report_to_dict",
    "write_metrics_json",
]


def successful_results(report: CampaignReport) -> List[RunResult]:
    """Results with a payload (executed or cache-served), spec order."""
    return [r for r in report.results if r.status in ("done", "cached")]


def to_replication(
    report: CampaignReport,
    *,
    experiment: Optional[str] = None,
    name: str = "",
) -> ReplicationResult:
    """Aggregate a (single-experiment) campaign across seeds.

    Mirrors ``replicate()``: one sample per seed per metric, NaN where a
    run lacks the metric, summaries via :class:`MetricSummary`.  With a
    multi-experiment campaign pass ``experiment=`` to select one.
    """
    rows = successful_results(report)
    if experiment is not None:
        rows = [r for r in rows if r.spec.experiment == experiment]
    if not rows:
        raise ValueError("campaign produced no successful runs to aggregate")
    experiments = sorted({r.spec.experiment for r in rows})
    if len(experiments) > 1:
        raise ValueError(
            f"campaign mixes experiments {experiments}; pass experiment="
        )
    seeds = [r.spec.seed for r in rows]
    per_seed = [r.metrics for r in rows]
    metric_names: List[str] = []
    for m in per_seed:
        for key in m:
            if key not in metric_names:
                metric_names.append(key)
    out = ReplicationResult(
        experiment=name or experiments[0], seeds=list(seeds)
    )
    for key in metric_names:
        values = [float(m.get(key, math.nan)) for m in per_seed]
        out.samples[key] = values
        out.summaries[key] = MetricSummary.from_samples(key, values)
    return out


def report_to_dict(report: CampaignReport) -> Dict[str, Any]:
    """Machine-readable form of a campaign report (per-run metrics kept)."""
    return {
        "campaign": report.spec.campaign_key,
        "name": report.spec.name,
        "code_version": report.spec.code_version,
        "jobs": report.jobs,
        "wall_time_s": report.wall_time_s,
        "interrupted": report.interrupted,
        "counts": {
            "total": len(report.spec.runs),
            "executed": report.executed,
            "cached": report.cached,
            "failed": report.failed,
        },
        "runs": [
            {
                "experiment": r.spec.experiment,
                "seed": r.spec.seed,
                "overrides": dict(r.spec.overrides),
                "key": r.spec.key,
                "status": r.status,
                "attempts": r.attempts,
                "wall_time_s": r.wall_time_s,
                "error": r.error,
                "metrics": r.metrics,
            }
            for r in report.results
        ],
    }


def write_metrics_json(report: CampaignReport, path) -> Path:
    """Write the figure-ready JSON artifact of a campaign; returns path."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w", encoding="utf-8") as fh:
        json.dump(report_to_dict(report), fh, indent=2, sort_keys=True,
                  default=str)
        fh.write("\n")
    return p
