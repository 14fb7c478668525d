"""Tests for the campaign executor: caching, retries, timeouts, pooling."""

import pytest

from repro.campaign import (
    ResultStore,
    run_campaign,
    sweep,
    to_replication,
    write_metrics_json,
)
from repro.campaign.registry import (
    UnknownExperimentError,
    experiment_ref,
    resolve_experiment,
)
from repro.experiments.figures import fig9_size_point
from repro.experiments.replication import replicate

QUICK = "tests.campaign_helpers:quick_experiment"


def quick_sweep(seeds=(0, 1, 2, 3), **kwargs):
    return sweep(QUICK, seeds=list(seeds), code_version=None, **kwargs)


class TestRegistry:
    def test_registry_name_resolves(self):
        assert resolve_experiment("fig9_size") is fig9_size_point

    def test_module_path_resolves(self):
        fn = resolve_experiment(QUICK)
        assert fn(seed=2).metrics["value"] == 12.0

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownExperimentError):
            resolve_experiment("not-an-experiment")
        with pytest.raises(UnknownExperimentError):
            resolve_experiment("tests.campaign_helpers:nope")
        with pytest.raises(UnknownExperimentError):
            resolve_experiment("no.such.module:fn")

    def test_experiment_ref_roundtrips(self):
        assert experiment_ref(fig9_size_point) == "fig9_size"
        from tests.campaign_helpers import quick_experiment

        assert experiment_ref(quick_experiment) == QUICK

    def test_experiment_ref_rejects_closures(self):
        def local(*, seed):  # pragma: no cover - never called
            pass

        with pytest.raises(UnknownExperimentError):
            experiment_ref(local)


class TestRunCampaign:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_executes_all_runs(self, tmp_path, jobs):
        store = ResultStore(tmp_path / "store")
        report = run_campaign(quick_sweep(), store, jobs=jobs)
        assert report.ok
        assert report.executed == 4 and report.cached == 0
        values = sorted(r.metrics["value"] for r in report.results)
        assert values == [10.0, 11.0, 12.0, 13.0]

    def test_rerun_served_entirely_from_cache(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = quick_sweep()
        first = run_campaign(spec, store, jobs=1)
        second = run_campaign(spec, store, jobs=2)
        assert first.executed == 4
        assert second.executed == 0 and second.cached == 4
        assert [r.metrics for r in first.results] == \
            [r.metrics for r in second.results]

    def test_force_bypasses_cache(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = quick_sweep()
        run_campaign(spec, store, jobs=1)
        again = run_campaign(spec, store, jobs=1, force=True)
        assert again.executed == 4 and again.cached == 0

    def test_without_store_is_ephemeral(self):
        report = run_campaign(quick_sweep(), store=None, jobs=1)
        assert report.ok and report.executed == 4

    def test_overrides_reach_the_experiment(self, tmp_path):
        spec = sweep(QUICK, seeds=[0], overrides={"offset": 5.0},
                     code_version=None)
        report = run_campaign(spec, ResultStore(tmp_path), jobs=1)
        assert report.results[0].metrics["value"] == 15.0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_deterministic_failure_fails_fast(self, tmp_path, jobs):
        spec = sweep("tests.campaign_helpers:broken_experiment",
                     seeds=[0, 1], code_version=None)
        report = run_campaign(spec, ResultStore(tmp_path), jobs=jobs,
                              retries=3)
        assert report.failed == 2 and not report.ok
        failed = [r for r in report.results if r.status == "failed"]
        assert all(r.attempts == 1 for r in failed)  # ValueError: no retry
        assert "deterministic failure" in failed[0].error

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_transient_failure_retries_with_backoff(self, tmp_path, jobs):
        counter = tmp_path / "counter.txt"
        spec = sweep(
            "tests.campaign_helpers:flaky_experiment", seeds=[0],
            overrides={"counter_file": str(counter), "fail_times": 2},
            code_version=None,
        )
        report = run_campaign(spec, ResultStore(tmp_path / "s"), jobs=jobs,
                              retries=3, backoff_s=0.01)
        assert report.ok
        (result,) = report.results
        assert result.attempts == 3
        assert result.metrics["attempts"] == 3.0

    def test_retries_exhausted_fails(self, tmp_path):
        counter = tmp_path / "counter.txt"
        spec = sweep(
            "tests.campaign_helpers:flaky_experiment", seeds=[0],
            overrides={"counter_file": str(counter), "fail_times": 5},
            code_version=None,
        )
        report = run_campaign(spec, ResultStore(tmp_path / "s"), jobs=1,
                              retries=1, backoff_s=0.01)
        assert report.failed == 1
        assert report.results[0].attempts == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_per_run_timeout(self, tmp_path, jobs):
        spec = sweep("tests.campaign_helpers:sleepy_experiment",
                     seeds=[0], overrides={"sleep_s": 30.0},
                     code_version=None)
        report = run_campaign(spec, ResultStore(tmp_path), jobs=jobs,
                              timeout_s=0.3, retries=0)
        assert report.failed == 1
        assert "RunTimeout" in report.results[0].error

    def test_journal_records_lifecycle(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = quick_sweep(seeds=(0, 1))
        run_campaign(spec, store, jobs=1)
        events = [r["event"] for r in store.read_journal()]
        assert events.count("start") == 2
        assert events.count("done") == 2
        assert events[0] == "campaign-start"
        assert events[-1] == "campaign-end"
        run_campaign(spec, store, jobs=1)
        events = [r["event"] for r in store.read_journal()]
        assert events.count("cached") == 2

    def test_progress_heartbeat_line(self, tmp_path):
        import io

        stream = io.StringIO()
        run_campaign(quick_sweep(seeds=(0, 1)), None, jobs=1,
                     progress=True, stream=stream)
        out = stream.getvalue()
        assert "[campaign]" in out
        assert "2/2" in out


class TestAggregation:
    def test_to_replication_matches_sequential_replicate(self, tmp_path):
        from tests.campaign_helpers import quick_experiment

        report = run_campaign(quick_sweep(), ResultStore(tmp_path), jobs=2)
        via_campaign = to_replication(report, name="quick")
        sequential = replicate(quick_experiment, seeds=(0, 1, 2, 3),
                               name="quick")
        assert via_campaign.seeds == sequential.seeds
        assert via_campaign.samples == sequential.samples
        assert via_campaign.summaries == sequential.summaries

    def test_write_metrics_json_artifact(self, tmp_path):
        import json

        report = run_campaign(quick_sweep(seeds=(0, 1)),
                              ResultStore(tmp_path / "s"), jobs=1)
        path = write_metrics_json(report, tmp_path / "out" / "artifact.json")
        data = json.loads(path.read_text())
        assert data["counts"] == {"total": 2, "executed": 2, "cached": 0,
                                  "failed": 0}
        assert len(data["runs"]) == 2
        assert data["runs"][0]["metrics"]["value"] == 10.0

    def test_mixed_experiments_require_selector(self, tmp_path):
        from repro.campaign.spec import CampaignSpec

        spec = CampaignSpec.from_dict({
            "name": "mixed",
            "entries": [
                {"experiment": QUICK, "seeds": [0]},
                {"experiment": "tests.campaign_helpers:busy_experiment",
                 "seeds": [0], "overrides": {"spin_s": 0.01}},
            ],
        }, code_version=None)
        report = run_campaign(spec, None, jobs=1)
        with pytest.raises(ValueError, match="mixes experiments"):
            to_replication(report)
        rep = to_replication(report, experiment=QUICK)
        assert rep.get("value").n == 1


class TestReplicateRouting:
    def test_replicate_jobs_matches_inprocess(self):
        from tests.campaign_helpers import quick_experiment

        seq = replicate(quick_experiment, seeds=(0, 1, 2))
        par = replicate(quick_experiment, seeds=(0, 1, 2), jobs=2)
        assert par.samples == seq.samples
        assert par.summaries == seq.summaries

    def test_replicate_accepts_registry_name(self):
        rep = replicate("model", seeds=(0, 1))
        assert rep.get("eq6_max_abs_error").n == 2

    def test_replicate_with_store_caches(self, tmp_path):
        from tests.campaign_helpers import quick_experiment

        store = ResultStore(tmp_path)
        replicate(quick_experiment, seeds=(0, 1), store=store)
        events = [r["event"] for r in store.read_journal()]
        assert events.count("done") == 2
        replicate(quick_experiment, seeds=(0, 1), store=store)
        events = [r["event"] for r in store.read_journal()]
        assert events.count("cached") == 2

    def test_replicate_jobs_propagates_failure(self):
        with pytest.raises(RuntimeError, match="replication campaign failed"):
            replicate("tests.campaign_helpers:broken_experiment",
                      seeds=(0,), jobs=2)

    def test_replicate_rejects_unimportable_callable(self):
        def local(*, seed):  # pragma: no cover - never called
            pass

        with pytest.raises(UnknownExperimentError):
            replicate(local, seeds=(0,), jobs=2)
