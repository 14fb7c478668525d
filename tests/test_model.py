"""Tests for the analytical models (Eqs. 3-6 and topology convergence)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.convergence import ConvergenceModel
from repro.model.dynamics import (
    abandon_time,
    catchup_time,
    competition_loss_probability,
    degraded_rate,
    loss_time,
)


class TestEq3Catchup:
    def test_paper_formula(self):
        # t_up = l / (r_up - R/K)
        assert catchup_time(10.0, 3.0, 1.0) == 5.0

    def test_zero_deficit(self):
        assert catchup_time(0.0, 2.0, 1.0) == 0.0

    def test_never_catches_up_rejected(self):
        with pytest.raises(ValueError):
            catchup_time(10.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            catchup_time(10.0, 0.5, 1.0)

    def test_negative_deficit_rejected(self):
        with pytest.raises(ValueError):
            catchup_time(-1.0, 2.0, 1.0)

    @given(l=st.floats(0.1, 1000), surplus=st.floats(0.01, 100))
    @settings(max_examples=100, deadline=None)
    def test_property_inverse_in_surplus(self, l, surplus):
        t = catchup_time(l, 1.0 + surplus, 1.0)
        assert t == pytest.approx(l / surplus)


class TestEq4Abandon:
    def test_paper_formula(self):
        # t_down = l / (R/K - r_down)
        assert abandon_time(10.0, 0.5, 1.0) == 20.0

    def test_requires_degraded_rate(self):
        with pytest.raises(ValueError):
            abandon_time(10.0, 1.0, 1.0)

    def test_faster_degradation_abandons_sooner(self):
        assert abandon_time(10.0, 0.2, 1.0) < abandon_time(10.0, 0.8, 1.0)


class TestEq5DegradedRate:
    @pytest.mark.parametrize("d_p,expected", [(1, 0.5), (2, 2 / 3), (9, 0.9)])
    def test_paper_formula(self, d_p, expected):
        assert degraded_rate(d_p, 1.0) == pytest.approx(expected)

    def test_scales_with_substream_rate(self):
        assert degraded_rate(4, 192_000.0) == pytest.approx(0.8 * 192_000.0)

    def test_invalid_degree_rejected(self):
        with pytest.raises(ValueError):
            degraded_rate(0, 1.0)

    def test_monotone_in_degree(self):
        rates = [degraded_rate(d, 1.0) for d in range(1, 20)]
        assert rates == sorted(rates)


class TestLossTime:
    def test_paper_formula(self):
        # t_lose = (D_p+1)(T_s - t_delta) / (R/K)
        assert loss_time(4, 10.0, 0.0, 1.0) == 50.0
        assert loss_time(4, 10.0, 5.0, 1.0) == 25.0

    def test_deviation_beyond_ts_rejected(self):
        with pytest.raises(ValueError):
            loss_time(4, 10.0, 11.0, 1.0)

    def test_consistency_with_eq4(self):
        """t_lose equals Eq. 4's abandon time at rate r_down(D_p)."""
        for d_p in (1, 3, 7):
            r_down = degraded_rate(d_p, 1.0)
            assert loss_time(d_p, 10.0, 0.0, 1.0) == pytest.approx(
                abandon_time(10.0, r_down, 1.0)
            )


class TestEq6LossProbability:
    def test_uniform_prior_closed_form(self):
        # threshold = T_s - T_a*(R/K)/(D_p+1); uniform prior on [0, T_s]
        p = competition_loss_probability(3, 10.0, 20.0, 1.0)
        # threshold = 10 - 5 = 5 -> P = 1 - 5/10
        assert p == pytest.approx(0.5)

    def test_saturates_at_one(self):
        assert competition_loss_probability(1, 10.0, 100.0, 1.0) == 1.0

    def test_decreasing_in_degree(self):
        ps = [
            competition_loss_probability(d, 10.0, 20.0, 1.0)
            for d in range(1, 30)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(ps, ps[1:]))

    def test_custom_cdf(self):
        # degenerate t_delta == T_s: always loses
        p = competition_loss_probability(
            5, 10.0, 1.0, 1.0, t_delta_cdf=lambda x: 0.0 if x <= 10 else 1.0
        )
        assert p == 1.0

    def test_empirical_samples(self, rng):
        samples = rng.uniform(0, 10.0, 5000)
        p_emp = competition_loss_probability(
            3, 10.0, 20.0, 1.0, t_delta_samples=samples
        )
        assert p_emp == pytest.approx(0.5, abs=0.05)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            competition_loss_probability(
                3, 10.0, 20.0, 1.0, t_delta_samples=np.array([])
            )

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            competition_loss_probability(0, 10.0, 20.0, 1.0)
        with pytest.raises(ValueError):
            competition_loss_probability(1, 10.0, -1.0, 1.0)


class TestConvergenceModel:
    def test_transition_matrix_stochastic(self):
        model = ConvergenceModel(0.5, 0.1, 0.6)
        P = model.transition_matrix()
        assert np.allclose(P.sum(axis=1), 1.0)
        assert (P >= 0).all()

    def test_stationary_matches_power_iteration(self):
        model = ConvergenceModel(0.5, 0.1, 0.6)
        P = model.transition_matrix()
        state = np.array([0.5, 0.5])
        for _ in range(500):
            state = state @ P
        assert model.stationary_stable_fraction() == pytest.approx(
            state[0], abs=1e-9
        )

    def test_sticky_stable_parents_dominate(self):
        # children under stable parents rarely move -> high stationary mass
        model = ConvergenceModel(
            p_stable_pick=0.4, p_lose_stable=0.01, p_lose_unstable=0.5
        )
        assert model.stationary_stable_fraction() > 0.9

    def test_transient_converges_monotonically_from_below(self):
        model = ConvergenceModel(0.5, 0.02, 0.5)
        traj = model.transient(initial_stable=0.0, n_rounds=200)
        assert (np.diff(traj) >= -1e-12).all()
        assert traj[-1] == pytest.approx(
            model.stationary_stable_fraction(), abs=0.01
        )

    def test_frozen_chain_reports_pick_probability(self):
        model = ConvergenceModel(0.7, 0.0, 0.0)
        assert model.stationary_stable_fraction() == 0.7

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            ConvergenceModel(1.2, 0.1, 0.1)

    def test_from_populations_sane(self):
        model = ConvergenceModel.from_populations(0.3)
        assert 0.0 < model.p_stable_pick <= 1.0
        assert model.p_lose_unstable > model.p_lose_stable
        assert model.stationary_stable_fraction() > 0.5

    def test_from_populations_validates(self):
        with pytest.raises(ValueError):
            ConvergenceModel.from_populations(0.0)

    def test_transient_validation(self):
        model = ConvergenceModel(0.5, 0.1, 0.5)
        with pytest.raises(ValueError):
            model.transient(1.5, 10)
        with pytest.raises(ValueError):
            model.transient(0.5, -1)
