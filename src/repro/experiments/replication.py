"""Seed replication: error bars for any experiment.

Every figure function is deterministic given a seed; scientific use needs
replication across seeds.  :func:`replicate` runs an experiment at
several seeds and aggregates its ``metrics`` into mean / standard
deviation / extremes, so any benchmark claim ("continuity stays above
0.9") can be checked for seed-robustness rather than anchored to one
lucky draw.

With ``jobs > 1`` (or an explicit ``store``) the seeds are fanned out
through :mod:`repro.campaign` — worker processes call the very same
experiment function with the very same seeds, so the aggregate is
bit-identical to the sequential path while the wall clock divides by the
worker count.  Either way the result keeps the raw per-seed samples, so
downstream aggregation (campaign artifacts, error bars) never re-runs
experiments to recover them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Union

import numpy as np

from repro.experiments.render import FigureResult, render_table

__all__ = ["MetricSummary", "ReplicationResult", "replicate"]


@dataclass(frozen=True)
class MetricSummary:
    """Aggregate of one metric across replicate runs (NaNs excluded)."""

    name: str
    mean: float
    std: float
    min: float
    max: float
    n: int

    @classmethod
    def from_samples(cls, name: str, samples: Sequence[float]) -> "MetricSummary":
        """Aggregate raw per-seed values; NaNs are dropped (a replicate
        may legitimately lack a metric, e.g. no continuity samples)."""
        arr = np.asarray(list(samples), dtype=float)
        arr = arr[np.isfinite(arr)]
        if arr.size == 0:
            return cls(name=name, mean=float("nan"), std=float("nan"),
                       min=float("nan"), max=float("nan"), n=0)
        return cls(
            name=name,
            mean=float(arr.mean()),
            std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
            min=float(arr.min()),
            max=float(arr.max()),
            n=int(arr.size),
        )

    def to_dict(self) -> Dict[str, float]:
        """JSON-ready form."""
        return {"mean": self.mean, "std": self.std, "min": self.min,
                "max": self.max, "n": self.n}


@dataclass
class ReplicationResult:
    """All metric summaries of a replicated experiment.

    ``samples[metric][i]`` is the raw value observed at ``seeds[i]`` (NaN
    when that replicate lacked the metric) — the error-bar inputs, kept so
    aggregation layers need not re-run anything.
    """

    experiment: str
    seeds: List[int]
    summaries: Dict[str, MetricSummary] = field(default_factory=dict)
    samples: Dict[str, List[float]] = field(default_factory=dict)

    def get(self, metric: str) -> MetricSummary:
        """Summary for one metric (KeyError if the experiment never
        produced it)."""
        return self.summaries[metric]

    def render(self) -> str:
        """ASCII table of mean +/- std (min..max) and per-seed values."""
        rows = []
        for name, s in self.summaries.items():
            raw = self.samples.get(name)
            per_seed = (
                ",".join("%.4g" % v for v in raw) if raw else "-"
            )
            rows.append((
                name, s.n, f"{s.mean:.4g}", f"{s.std:.2g}",
                f"{s.min:.4g}..{s.max:.4g}", per_seed,
            ))
        header = (f"=== replication: {self.experiment} over seeds "
                  f"{self.seeds} ===\n")
        return header + render_table(
            ("metric", "n", "mean", "std", "range", "per-seed"), rows
        )

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable form: summaries *and* raw per-seed samples."""
        return {
            "experiment": self.experiment,
            "seeds": list(self.seeds),
            "summaries": {k: s.to_dict() for k, s in self.summaries.items()},
            "samples": {k: list(v) for k, v in self.samples.items()},
        }

    def to_json(self, indent: int = 2) -> str:
        """JSON dump including raw per-seed metric values."""
        import json

        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def _aggregate_per_seed(
    experiment_name: str,
    seeds: Sequence[int],
    per_seed_metrics: Sequence[Dict[str, float]],
) -> ReplicationResult:
    """Build a ReplicationResult from one metric dict per seed."""
    out = ReplicationResult(
        experiment=experiment_name, seeds=[int(s) for s in seeds]
    )
    metric_names: List[str] = []
    for metrics in per_seed_metrics:
        for key in metrics:
            if key not in metric_names:
                metric_names.append(key)
    for key in metric_names:
        values = [float(m.get(key, float("nan"))) for m in per_seed_metrics]
        out.samples[key] = values
        out.summaries[key] = MetricSummary.from_samples(key, values)
    return out


def replicate(
    experiment: Union[Callable[..., FigureResult], str],
    *,
    seeds: Sequence[int] = (0, 1, 2),
    name: str = "",
    jobs: int = 1,
    store=None,
    **kwargs,
) -> ReplicationResult:
    """Run ``experiment(seed=s, **kwargs)`` for each seed and aggregate.

    The experiment must accept a ``seed`` keyword and return a
    :class:`FigureResult` (every function in
    :mod:`repro.experiments.figures` and the ablations qualify).

    ``jobs > 1`` routes the seeds through the campaign executor (worker
    processes, same function, same seeds — bit-identical results); the
    experiment must then be a registry name or an importable module-level
    callable.  Passing a ``store`` (a :class:`repro.campaign.ResultStore`
    or a path) caches per-seed results content-addressed on disk.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    if jobs != 1 or store is not None:
        # lazy import: repro.campaign imports this module for aggregation
        from repro.campaign.registry import experiment_ref
        from repro.campaign.runner import run_campaign
        from repro.campaign.spec import sweep
        from repro.campaign.store import ResultStore

        ref = experiment if isinstance(experiment, str) else (
            experiment_ref(experiment)
        )
        spec = sweep(ref, seeds=[int(s) for s in seeds],
                     overrides=kwargs or None,
                     name=name or f"replicate:{ref}")
        if store is not None and not isinstance(store, ResultStore):
            store = ResultStore(store)
        report = run_campaign(spec, store, jobs=jobs)
        failed = [r for r in report.results if r.status == "failed"]
        if failed or not report.ok:
            first = failed[0].error if failed else "campaign interrupted"
            raise RuntimeError(
                f"replication campaign failed "
                f"({len(failed)}/{len(spec.runs)} runs): {first}"
            )
        by_key = {r.spec.key: r for r in report.results}
        per_seed = [by_key[run.key].metrics for run in spec.runs]
        return _aggregate_per_seed(
            name or (ref if isinstance(experiment, str)
                     else getattr(experiment, "__name__", ref)),
            seeds, per_seed,
        )

    if isinstance(experiment, str):
        from repro.campaign.registry import resolve_experiment

        experiment = resolve_experiment(experiment)
    per_seed = []
    for seed in seeds:
        result = experiment(seed=int(seed), **kwargs)
        per_seed.append({k: float(v) for k, v in result.metrics.items()})
    return _aggregate_per_seed(
        name or getattr(experiment, "__name__", "experiment"),
        seeds, per_seed,
    )
