"""Campaign determinism and crash-resume guarantees.

* A 2-worker campaign of fig9 micro-runs produces byte-identical per-run
  metrics to ``jobs=1`` (workers call the same figure function with the
  same seed, so RngHub streams are identical).
* After a simulated crash (journal killed mid-campaign, some results
  missing), re-running the same spec executes only the missing runs.
"""

import json

from repro.campaign import CampaignSpec, ResultStore, run_campaign


def fig9_micro_spec() -> CampaignSpec:
    """A tiny Fig. 9 sweep: 2 size points x 2 seeds (seconds, not minutes)."""
    return CampaignSpec.from_dict({
        "name": "fig9-micro",
        "entries": [{
            "experiment": "fig9_size",
            "seeds": [0, 1],
            "grid": {"n_users": [40, 80]},
            "overrides": {"horizon_s": 120.0},
        }],
    }, code_version=None)


def metrics_bytes(report) -> list:
    """Canonical byte serialisation of each run's metrics, spec order."""
    return [
        json.dumps(r.metrics, sort_keys=True).encode("utf-8")
        for r in report.results
    ]


class TestDeterminism:
    def test_two_workers_bit_identical_to_sequential(self, tmp_path):
        seq = run_campaign(fig9_micro_spec(), ResultStore(tmp_path / "a"),
                           jobs=1)
        par = run_campaign(fig9_micro_spec(), ResultStore(tmp_path / "b"),
                           jobs=2)
        assert seq.ok and par.ok
        assert metrics_bytes(seq) == metrics_bytes(par)
        # and the cached payloads on disk are byte-identical too
        for run in fig9_micro_spec().runs:
            pa = ResultStore(tmp_path / "a").object_path(run.key)
            pb = ResultStore(tmp_path / "b").object_path(run.key)
            assert pa.read_bytes() == pb.read_bytes()

    def test_fig9_figure_function_identical_across_jobs(self):
        from repro.experiments.figures import fig9_scalability

        kw = dict(seed=1, sizes=(40,), join_rates=(0.4,), horizon_s=120.0)
        one, two = (json.dumps(fig9_scalability(**kw, jobs=j).to_dict(),
                               sort_keys=True) for j in (1, 2))
        assert one == two


class TestResume:
    def test_only_missing_runs_reexecute_after_crash(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = fig9_micro_spec()
        first = run_campaign(spec, store, jobs=1)
        assert first.executed == 4

        # simulate a crash mid-campaign: the journal dies and the last
        # two results were never written
        store.journal_path.unlink()
        killed = [r.key for r in spec.runs[2:]]
        for key in killed:
            assert store.delete(key)

        resumed = run_campaign(spec, store, jobs=1)
        assert resumed.ok
        assert resumed.cached == 2          # the surviving objects
        assert resumed.executed == 2        # only the missing runs re-ran
        executed_keys = {r.spec.key for r in resumed.results
                         if r.status == "done"}
        assert executed_keys == set(killed)
        # and the re-executed results equal the originals bit-for-bit
        by_key_first = {r.spec.key: r.metrics for r in first.results}
        for r in resumed.results:
            assert r.metrics == by_key_first[r.spec.key]

    def test_torn_journal_line_does_not_block_resume(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = fig9_micro_spec()
        run_campaign(spec, store, jobs=1)
        with open(store.journal_path, "a") as fh:
            fh.write('{"event": "start", "run": "r')  # torn write
        again = run_campaign(spec, store, jobs=1)
        assert again.executed == 0 and again.cached == 4
