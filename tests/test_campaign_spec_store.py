"""Tests for the campaign spec layer and the content-addressed store."""

import json

import pytest

from repro.campaign.spec import CampaignSpec, SpecError, run_key, sweep
from repro.campaign.store import ResultStore


class TestRunKey:
    def test_insertion_order_does_not_change_key(self):
        a = run_key("fig3", 0, {"alpha": 1, "beta": 2.5}, "rev")
        b = run_key("fig3", 0, {"beta": 2.5, "alpha": 1}, "rev")
        assert a == b

    def test_every_component_matters(self):
        base = run_key("fig3", 0, {"a": 1}, "rev")
        assert run_key("fig4", 0, {"a": 1}, "rev") != base
        assert run_key("fig3", 1, {"a": 1}, "rev") != base
        assert run_key("fig3", 0, {"a": 2}, "rev") != base
        assert run_key("fig3", 0, {"a": 1}, "other-rev") != base
        assert run_key("fig3", 0, {"a": 1}, None) != base

    def test_negative_zero_collapses(self):
        assert run_key("e", 0, {"x": -0.0}, None) == \
            run_key("e", 0, {"x": 0.0}, None)


class TestSpecExpansion:
    def test_grid_times_seeds(self):
        spec = sweep("fig9_size", seeds=[0, 1],
                     grid={"n_users": [100, 200, 300]},
                     overrides={"horizon_s": 300.0},
                     code_version=None)
        assert len(spec.runs) == 6
        combos = {(r.seed, r.overrides["n_users"]) for r in spec.runs}
        assert combos == {(s, n) for s in (0, 1) for n in (100, 200, 300)}
        assert all(r.overrides["horizon_s"] == 300.0 for r in spec.runs)
        assert len({r.key for r in spec.runs}) == 6

    def test_campaign_key_stable_across_instances(self):
        d = {"name": "c", "entries": [
            {"experiment": "fig3", "seeds": [0, 1],
             "overrides": {"horizon_s": 300.0, "rate_per_s": 0.2}},
        ]}
        d_reordered = {"entries": [
            {"overrides": {"rate_per_s": 0.2, "horizon_s": 300.0},
             "seeds": [0, 1], "experiment": "fig3"},
        ], "name": "c"}
        k1 = CampaignSpec.from_dict(d, code_version=None).campaign_key
        k2 = CampaignSpec.from_dict(d_reordered, code_version=None).campaign_key
        assert k1 == k2

    def test_from_file_roundtrip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "name": "filespec",
            "entries": [{"experiment": "model", "seeds": [3, 4]}],
        }))
        spec = CampaignSpec.from_file(path, code_version=None)
        assert spec.name == "filespec"
        assert [r.seed for r in spec.runs] == [3, 4]

    @pytest.mark.parametrize("bad", [
        [],                                            # not an object
        {"entries": []},                               # empty entries
        {"name": "", "entries": [{"experiment": "x"}]},
        {"name": "c", "entries": [{"seeds": [1]}]},    # missing experiment
        {"name": "c", "entries": [{"experiment": "x", "seeds": []}]},
        {"name": "c", "entries": [{"experiment": "x", "seeds": ["zap"]}]},
        {"name": "c", "entries": [{"experiment": "x", "grid": {"p": []}}]},
        {"name": "c", "entries": [{"experiment": "x", "typo": 1}]},
        {"name": "c", "entries": [{"experiment": "x",
                                   "grid": {"p": [1]},
                                   "overrides": {"p": 2}}]},
        {"name": "c", "entries": [{"experiment": "x"}], "extra": True},
    ])
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(SpecError):
            CampaignSpec.from_dict(bad, code_version=None)

    def test_unknown_override_key_rejected(self):
        # regression: a typo'd key used to be folded into every run key
        # and fail (or silently no-op) only at execution time
        with pytest.raises(SpecError, match="horizont_s"):
            CampaignSpec.from_dict({
                "name": "c",
                "entries": [{"experiment": "fig3",
                             "overrides": {"horizont_s": 60.0}}],
            }, code_version=None)

    def test_unknown_grid_key_rejected(self):
        with pytest.raises(SpecError, match="n_userz"):
            CampaignSpec.from_dict({
                "name": "c",
                "entries": [{"experiment": "fig9_size",
                             "grid": {"n_userz": [10, 20]}}],
            }, code_version=None)

    def test_seed_cannot_be_an_override(self):
        with pytest.raises(SpecError, match="'seed'"):
            CampaignSpec.from_dict({
                "name": "c",
                "entries": [{"experiment": "fig3",
                             "overrides": {"seed": 7}}],
            }, code_version=None)

    def test_engine_entry_rejected_for_engineless_experiment(self):
        # fig4 takes no engine parameter; pinning one would TypeError in
        # every worker after hashing -- reject at spec time instead
        with pytest.raises(SpecError, match="engine"):
            CampaignSpec.from_dict({
                "name": "c",
                "entries": [{"experiment": "fig4", "engine": "fast"}],
            }, code_version=None)

    def test_unresolvable_experiment_defers_validation_to_run_time(self):
        # module:qualname refs may only import inside workers; the spec
        # layer must not reject them for unknown keys it cannot check
        spec = CampaignSpec.from_dict({
            "name": "c",
            "entries": [{"experiment": "no.such.module:fn",
                         "overrides": {"whatever": 1}}],
        }, code_version=None)
        assert len(spec.runs) == 1

    def test_valid_override_keys_accepted(self):
        spec = CampaignSpec.from_dict({
            "name": "c",
            "entries": [{"experiment": "fig3",
                         "overrides": {"rate_per_s": 0.3},
                         "grid": {"horizon_s": [60.0, 120.0]}}],
        }, code_version=None)
        assert len(spec.runs) == 2

    def test_duplicate_runs_rejected(self):
        with pytest.raises(SpecError, match="duplicate"):
            CampaignSpec.from_dict({
                "name": "c",
                "entries": [
                    {"experiment": "x", "seeds": [0]},
                    {"experiment": "x", "seeds": [0]},
                ],
            }, code_version=None)

    def test_bad_json_file_raises_spec_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SpecError, match="not valid JSON"):
            CampaignSpec.from_file(path)

    def test_missing_file_raises_spec_error(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read"):
            CampaignSpec.from_file(tmp_path / "absent.json")


class TestResultStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = "ab" + "0" * 62
        assert store.get(key) is None
        store.put(key, {"metrics": {"m": 1.5}}, {"seed": 7})
        assert store.get(key) == {"metrics": {"m": 1.5}}
        assert json.loads(store.manifest_path(key).read_text())["seed"] == 7
        assert list(store.keys()) == [key]

    def test_corrupt_object_reads_as_missing(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "cd" + "1" * 62
        store.put(key, {"metrics": {}})
        store.object_path(key).write_text("{torn")
        assert store.get(key) is None

    def test_delete_and_clean(self, tmp_path):
        store = ResultStore(tmp_path)
        k1, k2 = "aa" + "2" * 62, "bb" + "3" * 62
        store.put(k1, {"metrics": {}})
        store.put(k2, {"metrics": {}})
        store.journal("done", run=k1)
        assert store.delete(k1)
        assert not store.delete(k1)
        assert store.clean() == 1
        assert list(store.keys()) == []
        assert store.read_journal() == []

    def test_journal_append_and_read(self, tmp_path):
        store = ResultStore(tmp_path)
        store.journal("start", campaign="c1", run="r1", attempt=1)
        store.journal("done", campaign="c1", run="r1")
        records = store.read_journal()
        assert [r["event"] for r in records] == ["start", "done"]
        assert all("ts" in r for r in records)

    def test_torn_final_line_is_skipped(self, tmp_path):
        store = ResultStore(tmp_path)
        store.journal("done", campaign="c1", run="r1")
        with open(store.journal_path, "a") as fh:
            fh.write('{"event": "done", "run": "r2"')  # crash mid-write
        records = store.read_journal()
        assert len(records) == 1
        assert records[0]["run"] == "r1"

    def test_journal_status_folds_latest_event(self, tmp_path):
        store = ResultStore(tmp_path)
        store.journal("start", campaign="c1", name="camp", run="r1", attempt=1)
        store.journal("done", campaign="c1", name="camp", run="r1")
        store.journal("start", campaign="c1", name="camp", run="r2", attempt=1)
        status = store.journal_status()["c1"]
        assert status["name"] == "camp"
        assert status["total"] == 2
        assert status["counts"] == {"done": 1, "start": 1}


class TestLogSpillSpecKey:
    """'log_spill' is storage-only: accepted, validated, never keyed."""

    def test_accepted_and_stored(self):
        spec = CampaignSpec.from_dict(
            {"name": "s", "log_spill": "/tmp/spill",
             "entries": [{"experiment": "model"}]},
            code_version=None,
        )
        assert spec.log_spill == "/tmp/spill"

    def test_default_is_none(self):
        spec = CampaignSpec.from_dict(
            {"name": "s", "entries": [{"experiment": "model"}]},
            code_version=None,
        )
        assert spec.log_spill is None

    def test_never_part_of_run_keys(self):
        base = {"name": "s", "entries": [{"experiment": "model",
                                          "seeds": [0, 1]}]}
        plain = CampaignSpec.from_dict(dict(base), code_version=None)
        spilled = CampaignSpec.from_dict(
            {**base, "log_spill": "/anywhere"}, code_version=None)
        assert [r.key for r in plain.runs] == [r.key for r in spilled.runs]
        assert plain.campaign_key == spilled.campaign_key

    @pytest.mark.parametrize("bad", ["", 7, ["dir"]])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(SpecError, match="log_spill"):
            CampaignSpec.from_dict(
                {"name": "s", "log_spill": bad,
                 "entries": [{"experiment": "model"}]},
                code_version=None,
            )

    def test_runner_exports_spill_root(self, tmp_path, monkeypatch):
        from repro.campaign.runner import run_campaign
        from repro.telemetry.sink import SPILL_ENV_VAR

        monkeypatch.delenv(SPILL_ENV_VAR, raising=False)
        spec = sweep("tests.campaign_helpers:quick_experiment",
                     seeds=[0], code_version=None)
        spec.log_spill = str(tmp_path / "spill")
        report = run_campaign(spec, store=None, jobs=1)
        assert report.failed == 0
        import os

        assert os.environ[SPILL_ENV_VAR] == str(tmp_path / "spill")
