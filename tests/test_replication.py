"""Tests for the seed-replication utility."""

import math

import pytest

from repro.experiments.render import FigureResult
from repro.experiments.replication import (
    MetricSummary,
    replicate,
)


def fake_experiment(*, seed: int) -> FigureResult:
    """A deterministic pseudo-experiment with seed-dependent metrics."""
    fr = FigureResult("Fig. F", "fake")
    fr.metrics["value"] = 10.0 + seed
    fr.metrics["constant"] = 5.0
    if seed % 2 == 0:
        fr.metrics["sometimes"] = float(seed)
    else:
        fr.metrics["sometimes"] = float("nan")
    return fr


class TestMetricSummary:
    def test_basic_aggregation(self):
        s = MetricSummary.from_samples("m", [1.0, 2.0, 3.0])
        assert s.mean == 2.0
        assert s.min == 1.0 and s.max == 3.0
        assert s.n == 3
        assert s.std == pytest.approx(1.0)

    def test_single_sample_zero_std(self):
        s = MetricSummary.from_samples("m", [4.0])
        assert s.std == 0.0
        assert s.n == 1

    def test_nans_excluded(self):
        s = MetricSummary.from_samples("m", [1.0, float("nan"), 3.0])
        assert s.n == 2
        assert s.mean == 2.0

    def test_all_nan(self):
        s = MetricSummary.from_samples("m", [float("nan")])
        assert s.n == 0
        assert math.isnan(s.mean)

    def test_to_dict(self):
        d = MetricSummary.from_samples("m", [1.0, 3.0]).to_dict()
        assert d == {"mean": 2.0, "std": pytest.approx(math.sqrt(2)),
                     "min": 1.0, "max": 3.0, "n": 2}


class TestReplicate:
    def test_aggregates_across_seeds(self):
        rep = replicate(fake_experiment, seeds=(0, 1, 2))
        assert rep.get("value").mean == pytest.approx(11.0)
        assert rep.get("value").n == 3
        assert rep.get("constant").std == 0.0
        # the sometimes-NaN metric only counts the finite replicates
        assert rep.get("sometimes").n == 2

    def test_kwargs_forwarded(self):
        calls = []

        def exp(*, seed, extra):
            calls.append((seed, extra))
            fr = FigureResult("x", "x")
            fr.metrics["m"] = float(seed + extra)
            return fr

        rep = replicate(exp, seeds=(3, 4), extra=10)
        assert calls == [(3, 10), (4, 10)]
        assert rep.get("m").min == 13.0

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            replicate(fake_experiment, seeds=())

    def test_render_contains_metrics(self):
        rep = replicate(fake_experiment, seeds=(0, 1), name="fake")
        out = rep.render()
        assert "fake" in out
        assert "value" in out
        assert "mean" in out

    def test_unknown_metric_raises(self):
        rep = replicate(fake_experiment, seeds=(0,))
        with pytest.raises(KeyError):
            rep.get("nope")

    def test_per_seed_samples_kept(self):
        """Raw per-seed values ride along so aggregation layers (campaign
        artifacts, error bars) never re-run experiments."""
        rep = replicate(fake_experiment, seeds=(0, 1, 2))
        assert rep.samples["value"] == [10.0, 11.0, 12.0]
        assert rep.samples["constant"] == [5.0, 5.0, 5.0]
        # NaN replicates are preserved in samples (dropped only in summaries)
        assert rep.samples["sometimes"][0] == 0.0
        assert math.isnan(rep.samples["sometimes"][1])

    def test_render_includes_per_seed_values(self):
        rep = replicate(fake_experiment, seeds=(0, 1))
        out = rep.render()
        assert "per-seed" in out
        assert "10,11" in out

    def test_to_json_includes_samples_and_summaries(self):
        import json

        rep = replicate(fake_experiment, seeds=(0, 1))
        data = json.loads(rep.to_json())
        assert data["seeds"] == [0, 1]
        assert data["samples"]["value"] == [10.0, 11.0]
        assert data["summaries"]["value"]["mean"] == 10.5
        assert data["summaries"]["value"]["n"] == 2

    def test_real_experiment_replication(self):
        """Replicate the (cheap) dynamics validation across seeds: the
        Eq. 6 Monte Carlo error must stay small for every seed."""
        from repro.experiments import validate_dynamics_equations

        rep = replicate(validate_dynamics_equations, seeds=(0, 1, 2))
        summary = rep.get("eq6_max_abs_error")
        assert summary.n == 3
        assert summary.max < 0.02
