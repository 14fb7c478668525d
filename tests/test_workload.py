"""Tests for arrival processes, session laws and user agents."""

import numpy as np
import pytest

from repro.core.node import SessionOutcome
from repro.core.system import CoolstreamingSystem
from repro.runtime import build_backend, run_scenario
from repro.workload.arrivals import (
    DiurnalProfile,
    FlashCrowd,
    PoissonArrivals,
    merge_arrivals,
)
from repro.workload.scenarios import (
    evening_broadcast,
    flash_crowd_storm,
    steady_audience,
)
from repro.workload.sessions import ProgramSchedule, SessionDurationModel
from repro.workload.users import UserAgent


class TestPoisson:
    def test_mean_count(self, rng):
        times = PoissonArrivals(2.0).sample(1000.0, rng)
        assert 1800 < times.size < 2200

    def test_sorted_within_horizon(self, rng):
        times = PoissonArrivals(1.0).sample(100.0, rng)
        assert (np.diff(times) >= 0).all()
        assert times.min() >= 0 and times.max() < 100.0

    def test_zero_rate(self, rng):
        assert PoissonArrivals(0.0).sample(100.0, rng).size == 0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            PoissonArrivals(-1.0)

    def test_rate_at_constant(self):
        assert PoissonArrivals(3.0).rate_at(55.0) == 3.0


class TestDiurnal:
    def test_evening_peak_shape(self):
        profile = DiurnalProfile.evening_peak(peak_rate=10.0)
        h = 3600.0
        assert profile.rate_at(20.0 * h) == 10.0       # prime time
        assert profile.rate_at(4.0 * h) < 1.0          # night
        assert profile.rate_at(23.5 * h) < profile.rate_at(20.0 * h)

    def test_interpolation_between_anchors(self):
        profile = DiurnalProfile(anchors=((0.0, 0.0), (10.0, 10.0)))
        assert profile.rate_at(5.0) == 5.0

    def test_sampling_respects_profile(self, rng):
        profile = DiurnalProfile(anchors=((0.0, 0.0), (50.0, 0.0),
                                          (51.0, 10.0), (100.0, 10.0)))
        times = profile.sample(100.0, rng)
        early = (times < 50).sum()
        late = (times >= 50).sum()
        assert late > 10 * max(1, early)

    def test_unordered_anchors_rejected(self):
        with pytest.raises(ValueError):
            DiurnalProfile(anchors=((5.0, 1.0), (1.0, 1.0)))

    def test_single_anchor_rejected(self):
        with pytest.raises(ValueError):
            DiurnalProfile(anchors=((0.0, 1.0),))


class TestFlashCrowd:
    def test_phases(self):
        fc = FlashCrowd(start_s=100, ramp_s=50, hold_s=100, decay_s=50,
                        peak_rate=8.0, base_rate=1.0)
        assert fc.rate_at(50.0) == 1.0
        assert fc.rate_at(125.0) == pytest.approx(4.5)
        assert fc.rate_at(200.0) == 8.0
        assert 1.0 < fc.rate_at(300.0) < 8.0

    def test_decay_asymptote(self):
        fc = FlashCrowd(start_s=0, ramp_s=1, hold_s=1, decay_s=10,
                        peak_rate=5.0, base_rate=1.0)
        assert fc.rate_at(1000.0) == pytest.approx(1.0, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            FlashCrowd(start_s=0, ramp_s=-1, hold_s=1, decay_s=1, peak_rate=1)
        with pytest.raises(ValueError):
            FlashCrowd(start_s=0, ramp_s=1, hold_s=1, decay_s=1,
                       peak_rate=1.0, base_rate=2.0)

    def test_merge_arrivals(self):
        merged = merge_arrivals([np.array([3.0, 1.0]), np.array([2.0])])
        assert list(merged) == [1.0, 2.0, 3.0]

    def test_merge_empty(self):
        assert merge_arrivals([]).size == 0


class TestDurations:
    def test_minimum_enforced(self, rng):
        model = SessionDurationModel(min_duration_s=30.0)
        assert (model.sample(rng, 2000) >= 30.0).all()

    def test_heavy_tail_present(self, rng):
        model = SessionDurationModel()
        samples = model.sample(rng, 20000)
        # Pareto tail: p99 much larger than the median
        assert np.quantile(samples, 0.99) > 8 * np.median(samples)

    def test_tail_weight_zero_is_pure_lognormal(self, rng):
        model = SessionDurationModel(tail_weight=0.0, lognorm_median_s=100.0)
        samples = model.sample(rng, 20000)
        assert np.median(samples) == pytest.approx(100.0, rel=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            SessionDurationModel(tail_weight=1.5)
        with pytest.raises(ValueError):
            SessionDurationModel(lognorm_median_s=0.0)

    def test_mean_estimate_positive(self, rng):
        assert SessionDurationModel().mean_estimate(rng, 1000) > 0


class TestSchedule:
    def test_single_ending(self):
        sched = ProgramSchedule.single_ending(1000.0, 0.8)
        assert sched.events_in(0, 2000) == [(1000.0, 0.8)]
        assert sched.events_in(1001, 2000) == []

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            ProgramSchedule(endings=((5.0, 0.5), (2.0, 0.5)))

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            ProgramSchedule(endings=((1.0, 1.5),))


class TestUserAgents:
    def test_user_joins_and_departs_on_schedule(self, small_cfg):
        system = CoolstreamingSystem(small_cfg, seed=5)
        agent = UserAgent(system, user_id=0, arrival_time=10.0,
                          intended_duration_s=120.0, max_retries=3,
                          retry_backoff_s=5.0, silent_leave_prob=0.0)
        agent.schedule_arrival()
        system.run(until=300.0)
        assert agent.done
        assert agent.node.outcome is SessionOutcome.NORMAL
        assert agent.node.left_at == pytest.approx(130.0, abs=1.0)

    def test_failed_join_retries(self, small_cfg):
        # no servers: joins must time out and retry until exhausted
        system = CoolstreamingSystem(
            small_cfg.with_overrides(n_servers=0), seed=5
        )
        agent = UserAgent(system, user_id=0, arrival_time=0.0,
                          intended_duration_s=10_000.0, max_retries=2,
                          retry_backoff_s=2.0)
        agent.schedule_arrival()
        system.run(until=1000.0)
        assert agent.done
        assert agent.attempts == 3  # initial + 2 retries
        assert agent.retry_count == 2
        assert not agent.ever_played

    def test_program_ending_probability_one(self, small_cfg):
        system = CoolstreamingSystem(small_cfg, seed=5)
        agent = UserAgent(system, user_id=0, arrival_time=0.0,
                          intended_duration_s=10_000.0, max_retries=0,
                          retry_backoff_s=1.0)
        agent.schedule_arrival()
        system.run(until=100.0)
        agent.program_ended(leave_probability=1.0)
        system.run(until=120.0)
        assert agent.done
        assert agent.node.outcome is SessionOutcome.PROGRAM_END

    def test_population_builds_and_runs(self, small_cfg):
        scenario = steady_audience(rate_per_s=0.1, horizon_s=300.0,
                                   n_servers=2, cfg=small_cfg)
        res = run_scenario(scenario, seed=3, engine="detailed")
        system, pop = res.system, res.population
        assert system.engine.now == 300.0
        assert 0.0 <= pop.success_fraction() <= 1.0
        assert sum(pop.retry_histogram().values()) <= len(pop.users)

    def test_population_double_attach_rejected(self, small_cfg):
        scenario = steady_audience(rate_per_s=0.1, horizon_s=100.0,
                                   cfg=small_cfg)
        backend = build_backend(scenario, seed=3, engine="detailed")
        backend.materialize()
        pop = backend.population
        with pytest.raises(RuntimeError):
            pop.attach()


class TestScenarios:
    def test_evening_broadcast_scales_servers(self):
        scn = evening_broadcast(scale=10.0)
        assert scn.cfg.n_servers > evening_broadcast(scale=1.0).cfg.n_servers

    def test_evening_broadcast_has_program_end(self):
        scn = evening_broadcast(horizon_s=1000.0)
        assert scn.schedule.endings[0][0] == 750.0

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            evening_broadcast(scale=0.0)

    def test_flash_crowd_storm_builds(self):
        scn = flash_crowd_storm(horizon_s=100.0)
        assert scn.arrivals.peak_rate == 4.0
