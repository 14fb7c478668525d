"""The cross-engine parity harness: comparisons, report, CLI plumbing.

Full-size parity runs live in CI's parity smoke job (and behind
``python -m repro parity``); here we exercise the comparison semantics
and a tiny end-to-end run so the suite stays fast.
"""

import math

import pytest

from repro.experiments.cli import main as repro_main
from repro.runtime.parity import (
    ABSOLUTE_FLOOR,
    DEFAULT_TOLERANCES,
    MetricComparison,
    paper_metrics,
    run_parity,
)
from repro.workload.scenarios import steady_audience


def tiny_scenario():
    return steady_audience(rate_per_s=0.3, horizon_s=150.0, n_servers=2)


class TestMetricComparison:
    def test_within_relative_tolerance(self):
        c = MetricComparison("m", detailed=100.0, fast=95.0, tolerance=0.10)
        assert c.rel_diff == pytest.approx(0.05)
        assert c.ok

    def test_outside_relative_tolerance(self):
        c = MetricComparison("m", detailed=100.0, fast=50.0, tolerance=0.10)
        assert not c.ok

    def test_absolute_floor_rescues_near_zero(self):
        c = MetricComparison("m", detailed=0.01, fast=0.0, tolerance=0.10,
                             absolute_floor=0.05)
        assert c.rel_diff == 1.0
        assert c.ok

    def test_nan_fails(self):
        c = MetricComparison("m", detailed=float("nan"), fast=1.0,
                             tolerance=10.0, absolute_floor=10.0)
        assert not c.ok

    def test_both_zero_ok(self):
        c = MetricComparison("m", detailed=0.0, fast=0.0, tolerance=0.0)
        assert c.rel_diff == 0.0
        assert c.ok


class TestTolerances:
    def test_every_metric_has_tolerance_and_floor(self):
        assert set(DEFAULT_TOLERANCES) == set(ABSOLUTE_FLOOR)
        assert all(t > 0 for t in DEFAULT_TOLERANCES.values())
        assert all(f >= 0 for f in ABSOLUTE_FLOOR.values())

    def test_unknown_tolerance_rejected(self):
        with pytest.raises(ValueError, match="unknown parity metrics"):
            run_parity(tiny_scenario(), tolerances={"nope": 0.1})


class TestRunParity:
    def test_report_structure_and_render(self):
        report = run_parity(tiny_scenario(), seed=0, keep_results=True)
        assert {c.name for c in report.comparisons} == set(DEFAULT_TOLERANCES)
        assert report.detailed_result.engine == "detailed"
        assert report.fast_result.engine == "fast"
        text = report.render()
        assert "detailed vs fast" in text
        assert ("PARITY OK" in text) or ("PARITY FAILED" in text)
        assert text.endswith("PARITY OK") == report.ok

    def test_identical_workload_feeds_both_engines(self):
        report = run_parity(tiny_scenario(), seed=0, keep_results=True)
        w_det = report.detailed_result.workload
        w_fast = report.fast_result.workload
        assert w_det.times.tobytes() == w_fast.times.tobytes()
        assert w_det.durations.tobytes() == w_fast.durations.tobytes()

    def test_paper_metrics_keys(self):
        report = run_parity(tiny_scenario(), seed=0, keep_results=True)
        m = paper_metrics(report.detailed_result.log, 150.0)
        assert set(m) == set(DEFAULT_TOLERANCES)
        assert m["peak_concurrent_users"] >= 1
        assert (math.isnan(m["mean_continuity"])
                or 0.0 <= m["mean_continuity"] <= 1.0)

    def test_results_dropped_by_default(self):
        report = run_parity(tiny_scenario(), seed=0)
        assert report.detailed_result is None
        assert report.fast_result is None


class TestParityCli:
    def test_unknown_scenario_is_usage_error(self, capsys):
        assert repro_main(["parity", "--scenario", "nope"]) == 2

    def test_dispatch_from_repro_cli(self, monkeypatch, capsys):
        # `python -m repro parity` reaches the parity handler
        import repro.runtime.parity as parity

        seen = {}

        def fake_suite(scenario, *, seed, engines, tolerances):
            seen.update(scenario=scenario.name, seed=seed, engines=engines)
            return []

        monkeypatch.setattr(parity, "run_parity_suite", fake_suite)
        assert repro_main(["parity", "--seed", "3",
                           "--engines", "fast,ode,fast"]) == 0
        assert seen == {"scenario": "steady_audience", "seed": 3,
                        "engines": ["fast", "ode"]}


class TestCampaignEngineKey:
    def test_engine_key_changes_run_key(self):
        from repro.campaign.spec import CampaignSpec

        plain = CampaignSpec.from_dict(
            {"name": "x", "entries": [{"experiment": "fig3"}]},
            code_version=None)
        fast = CampaignSpec.from_dict(
            {"name": "x",
             "entries": [{"experiment": "fig3", "engine": "fast"}]},
            code_version=None)
        assert fast.runs[0].overrides == {"engine": "fast"}
        assert plain.runs[0].key != fast.runs[0].key

    def test_engine_value_validated(self):
        from repro.campaign.spec import CampaignSpec, SpecError

        with pytest.raises(SpecError, match="engine"):
            CampaignSpec.from_dict(
                {"name": "x",
                 "entries": [{"experiment": "fig3", "engine": "warp"}]},
                code_version=None)

    def test_engine_conflicts_rejected(self):
        from repro.campaign.spec import CampaignSpec, SpecError

        for entry in (
            {"experiment": "fig3", "engine": "fast",
             "overrides": {"engine": "fast"}},
            {"experiment": "fig3", "engine": "fast",
             "grid": {"engine": ["fast"]}},
        ):
            with pytest.raises(SpecError, match="engine"):
                CampaignSpec.from_dict({"name": "x", "entries": [entry]},
                                       code_version=None)

    def test_engine_grid_sweeps_both(self):
        from repro.campaign.spec import CampaignSpec

        spec = CampaignSpec.from_dict(
            {"name": "x",
             "entries": [{"experiment": "fig3",
                          "grid": {"engine": ["detailed", "fast"]}}]},
            code_version=None)
        engines = sorted(r.overrides["engine"] for r in spec.runs)
        assert engines == ["detailed", "fast"]
