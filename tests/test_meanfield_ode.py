"""The mean-field ODE backend and the vectorized-step property suite.

Three layers of assurance for the million-user path:

* conservation/monotonicity invariants of the population ODE under
  hypothesis-seeded workloads (peers in <= arrivals, continuity in
  [0, 1], non-negative deficit, monotone session counts);
* protocol-surface conformance -- registration, log shape, panel
  subsampling, the ``run`` CLI;
* the regression pin for the `_pending_joins` retry fallback: a retry
  whose user has no recorded departure deadline fails loudly instead of
  inventing one.

The heavyweight fast-vs-detailed payload equivalence lives in
test_crossvalidation.py; here the three-way parity run is one small
end-to-end scenario so the suite stays fast.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.fastsim import FastSimulation
from repro.model.meanfield import MeanFieldBackend, MeanFieldConfig
from repro.runtime.backends import available_engines
from repro.runtime.driver import run_scenario, sample_workload
from repro.runtime.parity import PAIR_TOLERANCES, run_parity_suite
from repro.telemetry.reports import ActivityEvent, ActivityReport
from repro.workload.scenarios import steady_audience


def tiny_scenario(rate=0.3, horizon=150.0, servers=2):
    # the 5-minute report cadence would outlast a tiny horizon, so
    # compress it (the small_audience parity preset does the same)
    cfg = SystemConfig().with_overrides(status_report_period_s=30.0)
    return steady_audience(
        rate_per_s=rate, horizon_s=horizon, n_servers=servers, cfg=cfg)


def _activity_events(log):
    return list(log.reports_of(ActivityReport))


class TestRegistration:
    def test_ode_engine_registered(self):
        assert "ode" in available_engines()

    def test_run_scenario_dispatches(self):
        result = run_scenario(tiny_scenario(), seed=0, engine="ode")
        assert isinstance(result.backend, MeanFieldBackend)
        events = _activity_events(result.log)
        assert any(e.event == ActivityEvent.JOIN for e in events)
        assert any(e.event == ActivityEvent.PLAYER_READY for e in events)
        snap = result.metrics()
        for key in ("concurrent_users", "playing_users", "mean_continuity",
                    "mean_deficit_blocks", "panel_weight"):
            assert key in snap

    def test_parity_pairs_calibrated(self):
        assert ("detailed", "ode") in PAIR_TOLERANCES
        assert ("fast", "ode") in PAIR_TOLERANCES


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"dt": 0.0},
        {"dt": -1.0},
        {"max_logged_users": 0},
        {"catchup_factor": 0.5},
        {"nat_parent_prob": 1.5},
        {"nat_parent_prob": -0.1},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MeanFieldConfig(**kwargs)

    @pytest.mark.parametrize("field", [
        f.name for f in dataclasses.fields(MeanFieldConfig)
        if type(f.default) in (int, float)
    ])
    def test_nan_rejected_for_every_numeric_field(self, field):
        with pytest.raises(ValueError, match=field):
            MeanFieldConfig(**{field: float("nan")})

    def test_defaults_valid(self):
        cfg = MeanFieldConfig()
        assert cfg.dt > 0


def _stepped_backend(scenario, seed, **cfg_kwargs):
    wl = sample_workload(scenario, seed)
    backend = MeanFieldBackend(
        scenario, seed,
        ode=MeanFieldConfig(**cfg_kwargs) if cfg_kwargs else None)
    backend.apply_workload(wl.times, wl.durations)
    for t, p in wl.endings:
        backend.add_program_ending(t, p)
    return backend, wl


class TestOdeInvariants:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16),
           rate=st.floats(min_value=0.05, max_value=0.8))
    def test_population_invariants_under_random_workloads(self, seed, rate):
        scenario = tiny_scenario(rate=rate, horizon=120.0)
        backend, wl = _stepped_backend(scenario, seed)
        n_total = wl.times.size
        last_sessions = 0.0
        t = 0.0
        while t < scenario.horizon_s:
            t += 20.0
            backend.run(t)
            snap = backend.snapshot_metrics()
            # peers in the system never exceed cumulative arrivals
            arrived = int((wl.times <= backend.now).sum())
            assert snap["concurrent_users"] <= arrived + 1e-9
            assert snap["playing_users"] <= snap["concurrent_users"] + 1e-9
            # continuity is a fraction (NaN only before anyone plays)
            mc = snap["mean_continuity"]
            assert math.isnan(mc) or 0.0 <= mc <= 1.0
            # deficit is a non-negative block count
            assert snap["mean_deficit_blocks"] >= 0.0
            # session counter is monotone and bounded by retries cap
            assert snap["sessions_spawned"] >= last_sessions
            last_sessions = snap["sessions_spawned"]
        cap = n_total * (scenario.cfg.max_join_retries + 1)
        assert last_sessions <= cap + 1e-9

    def test_log_is_conserved(self):
        scenario = tiny_scenario()
        result = run_scenario(scenario, seed=0, engine="ode")
        events = _activity_events(result.log)
        joins = sum(1 for e in events if e.event == ActivityEvent.JOIN)
        leaves = sum(1 for e in events if e.event == ActivityEvent.LEAVE)
        readies = sum(
            1 for e in events if e.event == ActivityEvent.PLAYER_READY)
        assert leaves <= joins
        assert readies <= joins
        # log times are monotone (the analysis folds rely on this)
        times = [e.time for e in events]
        assert times == sorted(times)

    def test_workload_can_only_be_applied_once(self):
        backend, wl = _stepped_backend(tiny_scenario(), 0)
        with pytest.raises(RuntimeError):
            backend.apply_workload(wl.times, wl.durations)


class TestPanelSubsampling:
    def test_weighted_panel_scales_population(self):
        scenario = tiny_scenario(rate=0.6, horizon=120.0)
        full, wl = _stepped_backend(scenario, 3)
        panel, _ = _stepped_backend(scenario, 3, max_logged_users=10)
        full.run(scenario.horizon_s)
        panel.run(scenario.horizon_s)
        n = wl.times.size
        snap = panel.snapshot_metrics()
        assert snap["panel_users"] <= 10
        assert snap["panel_weight"] == pytest.approx(
            n / snap["panel_users"])
        # the log only carries the panel...
        users = {e.user_id for e in _activity_events(panel.log)}
        assert len(users) <= 10
        # ...but the population estimate stays in the full-run ballpark
        full_peak = full.snapshot_metrics()["sessions_spawned"]
        assert snap["sessions_spawned"] == pytest.approx(
            full_peak, rel=0.35, abs=5.0)


class TestThreeWayParity:
    def test_small_scenario_passes_calibrated_bands(self):
        reports = run_parity_suite(
            tiny_scenario(), seed=0, engines=("detailed", "fast", "ode"))
        assert len(reports) == 3  # all pairs
        for report in reports:
            assert report.ok, report.render()


class TestFastEngineProperties:
    """Hypothesis-seeded small-N property checks for the batched step."""

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16),
           n_users=st.integers(min_value=5, max_value=40))
    def test_random_workloads_keep_books_balanced(self, seed, n_users):
        cfg = SystemConfig(n_servers=2)
        sim = FastSimulation(cfg, seed=seed, capacity_hint=256)
        rng = np.random.default_rng(seed + 7)
        times = np.sort(rng.uniform(0, 60, n_users))
        durs = rng.exponential(80, n_users) + 10
        sim.add_arrivals(times, durs)
        sim.run(150.0)
        # children counters conserved against the parent matrix
        assert (sim.children >= 0).all()
        assert int(sim.children.sum()) == int((sim.parent >= 0).sum())
        # every join in the log has at most one leave per session
        events = _activity_events(sim.log)
        sessions_joined = {e.session_id for e in events
                           if e.event == ActivityEvent.JOIN}
        leaves = [e.session_id for e in events
                  if e.event == ActivityEvent.LEAVE]
        assert len(leaves) == len(set(leaves))
        assert set(leaves) <= sessions_joined
        # retry attempts never exceed the configured cap
        attempts = {}
        for e in events:
            if e.event == ActivityEvent.JOIN:
                attempts[e.user_id] = max(
                    attempts.get(e.user_id, 0), e.attempt)
        assert all(a <= cfg.max_join_retries + 1 for a in attempts.values())


class TestRetryDeadlineRegression:
    """The `_pending_joins` NaN sentinel must resolve through
    `_user_deadline` -- never a silently invented deadline."""

    def test_orphan_retry_fails_loudly(self):
        sim = FastSimulation(SystemConfig(n_servers=1), seed=0)
        sim._pending_joins = [(0.0, 7, 2, float("nan"))]
        with pytest.raises(RuntimeError, match="out of sync"):
            sim.step()

    def test_recorded_deadline_is_used(self):
        sim = FastSimulation(SystemConfig(n_servers=1), seed=0)
        sim._user_deadline[7] = 500.0
        sim._pending_joins = [(0.0, 7, 2, float("nan"))]
        sim.step()
        slot = int(np.nonzero(sim.user_id == 7)[0][0])
        assert sim.depart_at[slot] == pytest.approx(500.0)

    def test_end_to_end_retries_keep_first_deadline(self):
        # a user that retries must keep departing at first-join + duration
        cfg = SystemConfig(n_servers=1)
        sim = FastSimulation(cfg, seed=1)
        sim.add_arrivals(np.array([1.0]), np.array([200.0]))
        sim.run(60.0)
        assert sim._user_deadline.get(0) == pytest.approx(201.0)


class TestRunCli:
    def test_small_ode_run(self, capsys):
        from repro.experiments.run_cli import main as run_main
        rc = run_main(["--engine", "ode", "--users", "400",
                       "--horizon", "90", "--servers", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "paper metrics" in out
        assert "engine snapshot" in out

    def test_unknown_scenario_is_usage_error(self, capsys):
        from repro.experiments.run_cli import main as run_main
        rc = run_main(["--scenario", "nope"])
        assert rc == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_dispatch_from_repro_cli(self, capsys):
        from repro.experiments.cli import main as cli_main
        rc = cli_main(["run", "--engine", "ode", "--users", "200",
                       "--horizon", "60", "--servers", "2"])
        assert rc == 0
        assert "wall=" in capsys.readouterr().out
