"""The engine-agnostic runtime: workload sampling, backends, driver.

The load-bearing property under test: :func:`sample_workload` draws the
audience from hub-seed-derived named streams, so the realization is
byte-identical across calls, engines and processes for one (scenario,
seed) -- and each backend consuming it is bit-reproducible run-to-run.
"""

import numpy as np
import pytest

from repro.analysis.streaming import SessionTableFold, fold_log
from repro.runtime import (
    DetailedBackend,
    FluidBackend,
    StreamingBackend,
    available_engines,
    build_backend,
    resolve_backend,
    run_scenario,
    sample_workload,
)
from repro.telemetry.reports import LeaveReason
from repro.workload.scenarios import (
    evening_broadcast,
    steady_audience,
    uniform_ramp,
)


def small_scenario(**kw):
    """A scenario cheap enough for the detailed engine in unit tests."""
    kw.setdefault("rate_per_s", 0.3)
    kw.setdefault("horizon_s", 150.0)
    kw.setdefault("n_servers", 2)
    return steady_audience(**kw)


class TestSampleWorkload:
    def test_same_seed_is_byte_identical(self):
        scenario = small_scenario()
        w1 = sample_workload(scenario, seed=7)
        w2 = sample_workload(scenario, seed=7)
        assert w1.times.tobytes() == w2.times.tobytes()
        assert w1.durations.tobytes() == w2.durations.tobytes()
        assert w1.endings == w2.endings

    def test_different_seeds_differ(self):
        scenario = small_scenario()
        w1 = sample_workload(scenario, seed=0)
        w2 = sample_workload(scenario, seed=1)
        assert w1.times.tobytes() != w2.times.tobytes()

    def test_arrivals_sorted_and_aligned(self):
        w = sample_workload(small_scenario(), seed=3)
        assert np.all(np.diff(w.times) >= 0)
        assert w.times.shape == w.durations.shape
        assert w.n_users == w.times.size

    def test_misaligned_realization_rejected(self):
        from repro.runtime import WorkloadRealization

        with pytest.raises(ValueError):
            WorkloadRealization(
                times=np.array([1.0, 2.0]),
                durations=np.array([5.0]),
                endings=(),
            )

    def test_uniform_ramp_fixed_duration_workload(self):
        # FixedDuration consumes no RNG and UniformBurst yields exactly
        # n_users sorted arrivals inside the ramp window
        scenario = uniform_ramp(n_users=40, horizon_s=200.0, ramp_frac=0.25)
        w = sample_workload(scenario, seed=0)
        assert w.n_users == 40
        assert w.times.max() <= 0.25 * 200.0
        assert np.all(w.durations == 200.0)


class TestBuildBackend:
    def test_engine_registry(self):
        assert {"detailed", "fast"} <= set(available_engines())
        assert resolve_backend("detailed") is DetailedBackend
        assert resolve_backend("fast") is FluidBackend

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            build_backend(small_scenario(), seed=0, engine="warp")

    @pytest.mark.parametrize("engine", ["detailed", "fast"])
    def test_backends_satisfy_protocol(self, engine):
        backend = build_backend(small_scenario(), seed=0, engine=engine)
        assert isinstance(backend, StreamingBackend)
        assert backend.name == engine

    def test_both_engines_consume_identical_workload(self):
        scenario = small_scenario()
        w = sample_workload(scenario, seed=5)
        det = build_backend(scenario, seed=5, engine="detailed", workload=w)
        fast = build_backend(scenario, seed=5, engine="fast", workload=w)
        det.materialize()
        det_times = np.array([u.arrival_time for u in det.population.users])
        det_durs = np.array(
            [u.departure_deadline - u.arrival_time
             for u in det.population.users])
        fast_joins = sorted(fast.sim._pending_joins)
        fast_times = np.array([t for t, *_ in fast_joins])
        fast_durs = np.array([dep - t for t, _uid, _att, dep in fast_joins])
        assert det_times.tobytes() == w.times.tobytes()
        assert fast_times.tobytes() == w.times.tobytes()
        np.testing.assert_allclose(det_durs, w.durations)
        np.testing.assert_allclose(fast_durs, w.durations)

    def test_workload_applied_once(self):
        backend = build_backend(small_scenario(), seed=0, engine="detailed")
        with pytest.raises(RuntimeError):
            backend.apply_workload(np.array([1.0]), np.array([5.0]))


class TestRunScenario:
    @pytest.mark.parametrize("engine", ["detailed", "fast"])
    def test_run_to_run_bit_reproducible(self, engine):
        scenario = small_scenario()
        r1 = run_scenario(scenario, seed=2, engine=engine)
        r2 = run_scenario(scenario, seed=2, engine=engine)
        assert r1.log.dumps() == r2.log.dumps()
        m1, m2 = r1.metrics(), r2.metrics()
        assert set(m1) == set(m2)
        for k in m1:
            assert m1[k] == m2[k] or (m1[k] != m1[k] and m2[k] != m2[k]), k

    def test_result_carries_workload_and_engine(self):
        res = run_scenario(small_scenario(), seed=1, engine="fast")
        assert res.engine == "fast"
        assert res.seed == 1
        assert res.workload.n_users > 0
        assert res.sim is not None and res.system is None

    def test_metrics_have_uniform_keys(self):
        keys = None
        for engine in ("detailed", "fast"):
            m = run_scenario(small_scenario(), seed=0, engine=engine).metrics()
            assert m["concurrent_users"] >= 0
            assert 0.0 <= m["success_fraction"] <= 1.0
            if keys is None:
                keys = set(m)
            else:
                assert set(m) == keys

    def test_capacity_hint_does_not_change_fluid_output(self):
        scenario = small_scenario()
        r1 = run_scenario(scenario, seed=4, engine="fast", capacity_hint=256)
        r2 = run_scenario(scenario, seed=4, engine="fast", capacity_hint=4096)
        assert r1.log.dumps() == r2.log.dumps()




def sessions_by_user(table):
    """The session table's sessions grouped by user id."""
    by_user = {}
    for s in table.sessions():
        by_user.setdefault(s.user_id, []).append(s)
    return by_user


def success_fraction_from_log(log) -> float:
    """Fraction of logged users with any session reaching playback, read
    off the log's session table (the oracle for the fluid engine's own
    count)."""
    (table,) = fold_log(log, SessionTableFold())
    by_user = sessions_by_user(table)
    if not by_user:
        return float("nan")
    ok = sum(
        1 for sessions in by_user.values()
        if any(s.ready_time is not None for s in sessions)
    )
    return ok / len(by_user)


class TestFluidSuccessFraction:
    """The fluid backend counts spawned and playing users itself; the
    log-derived fraction it used to fold for is the oracle."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_the_log_derived_fraction(self, seed):
        scenario = evening_broadcast(horizon_s=900.0, peak_rate=1.0)
        res = run_scenario(scenario, seed=seed, engine="fast")
        got = res.metrics()["success_fraction"]
        assert got == success_fraction_from_log(res.log)
        # the run exercises every path the count must get right
        (table,) = fold_log(res.log, SessionTableFold())
        by_user = sessions_by_user(table)
        assert len(table) > len(by_user)  # retries
        assert any(  # a user who played, stalled out and played again
            sum(s.ready_time is not None for s in sessions) > 1
            for sessions in by_user.values())
        assert any(s.leave_reason is LeaveReason.PROGRAM_END
                   for s in table.sessions())
        assert got < 1.0

    def test_nan_before_anyone_spawns(self):
        backend = build_backend(small_scenario(), seed=0, engine="fast")
        assert np.isnan(backend.snapshot_metrics()["success_fraction"])
        assert np.isnan(success_fraction_from_log(backend.log))
