"""Unit and property tests for the max-min fair-share water-fill."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.fairshare import (
    _SMALL_N,
    _waterfill_np,
    _waterfill_py,
    waterfill_rates,
)


def waterfill(capacity, demands):
    """``waterfill_rates`` as an array, for the numpy checks below."""
    return np.asarray(waterfill_rates(capacity, demands))


class TestWaterfill:
    def test_empty_demands(self):
        assert waterfill(10.0, []).size == 0

    def test_ample_capacity_satisfies_all(self):
        alloc = waterfill(100.0, [10, 20, 30])
        assert np.allclose(alloc, [10, 20, 30])

    def test_equal_split_when_equal_demands_exceed_capacity(self):
        alloc = waterfill(30.0, [100, 100, 100])
        assert np.allclose(alloc, [10, 10, 10])

    def test_small_demand_protected(self):
        # max-min: the 1-unit demand is fully served before big demands split
        alloc = waterfill(10.0, [1.0, 100.0, 100.0])
        assert np.isclose(alloc[0], 1.0)
        assert np.isclose(alloc[1], 4.5)
        assert np.isclose(alloc[2], 4.5)

    def test_eq5_special_case(self):
        # Eq. (5): D_p children exactly provisioned, one more joins ->
        # everyone drops to D_p/(D_p+1) of nominal
        d_p = 4
        nominal = 1.0
        alloc = waterfill(d_p * nominal, [np.inf] * (d_p + 1))
        assert np.allclose(alloc, d_p / (d_p + 1) * nominal)

    def test_inf_demands_split_capacity(self):
        alloc = waterfill(9.0, [np.inf, np.inf, np.inf])
        assert np.allclose(alloc, 3.0)

    def test_zero_capacity(self):
        alloc = waterfill(0.0, [5, 5])
        assert np.allclose(alloc, 0.0)

    def test_zero_demand_gets_zero(self):
        alloc = waterfill(10.0, [0.0, 5.0])
        assert alloc[0] == 0.0
        assert np.isclose(alloc[1], 5.0)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            waterfill(-1.0, [1.0])

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            waterfill(1.0, [-1.0])

    def test_three_tier_progressive_fill(self):
        alloc = waterfill(12.0, [2.0, 4.0, 100.0])
        # level: 2 satisfied, 4 satisfied, rest (6) to the big one
        assert np.allclose(alloc, [2.0, 4.0, 6.0])

    @given(
        capacity=st.floats(min_value=0.0, max_value=1e6),
        demands=st.lists(
            st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=40
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_feasible_and_work_conserving(self, capacity, demands):
        alloc = waterfill(capacity, demands)
        d = np.asarray(demands)
        # never exceed individual demand
        assert (alloc <= d + 1e-6).all()
        assert (alloc >= -1e-12).all()
        # work conserving: total = min(capacity, total demand)
        assert np.isclose(
            alloc.sum(), min(capacity, float(d.sum())), rtol=1e-6, atol=1e-6
        )

    @given(
        capacity=st.floats(min_value=0.1, max_value=1e4),
        demands=st.lists(
            st.floats(min_value=0.01, max_value=1e4), min_size=2, max_size=20
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_max_min_fairness(self, capacity, demands):
        """No unsatisfied connection gets less than any other connection's
        allocation (the defining property of max-min fairness)."""
        alloc = waterfill(capacity, demands)
        d = np.asarray(demands)
        unsat = alloc < d - 1e-9
        if unsat.any():
            floor = alloc[unsat].min()
            assert (alloc <= floor + 1e-6).all()


class TestWaterfillFastPathEquivalence:
    """The small-n pure-Python path must be bit-identical to the numpy
    reference path -- it is substituted silently under ``_SMALL_N``."""

    def test_zero_capacity(self):
        assert _waterfill_py(0.0, [1.0, 2.0, 3.0]) == [0.0, 0.0, 0.0]
        assert _waterfill_np(0.0, np.array([1.0, 2.0, 3.0])).tolist() == \
            [0.0, 0.0, 0.0]

    def test_single_demand(self):
        for cap, d in [(10.0, 4.0), (3.0, 4.0), (0.0, 4.0), (5.0, 0.0)]:
            py = _waterfill_py(cap, [d])
            ref = _waterfill_np(cap, np.array([d])).tolist()
            assert py == ref

    def test_all_equal_demands(self):
        for cap in (0.0, 5.0, 9.0, 100.0):
            demands = [3.0] * 7
            py = _waterfill_py(cap, demands)
            ref = _waterfill_np(cap, np.array(demands)).tolist()
            assert py == ref  # bitwise, incl. the ulp tie-assignment

    def test_infinite_demands(self):
        demands = [float("inf"), 2.0, float("inf")]
        py = _waterfill_py(9.0, demands)
        ref = _waterfill_np(9.0, np.array(demands)).tolist()
        assert py == ref

    def test_empty_demands(self):
        assert _waterfill_py(5.0, []) == []

    def test_randomized_seeded_vectors_bitwise_equal(self):
        rng = np.random.default_rng(0)
        for _ in range(400):
            n = int(rng.integers(1, _SMALL_N + 1))
            scale = float(rng.choice([1.0, 100.0, 1e4]))
            demands = (rng.random(n) * scale).tolist()
            mode = rng.random()
            if mode < 0.2:
                demands = [demands[0]] * n  # full tie group
            elif mode < 0.4:
                # partial ties: duplicate a random prefix value
                demands[: n // 2 + 1] = [demands[0]] * (n // 2 + 1)
            if rng.random() < 0.2:
                demands[int(rng.integers(0, n))] = 0.0
            capacity = float(rng.random() * scale * n * 0.7)
            ref = _waterfill_np(capacity, np.asarray(demands)).tolist()
            assert _waterfill_py(capacity, demands) == ref

    @given(
        capacity=st.floats(0.0, 1e6, allow_nan=False),
        demands=st.lists(st.floats(0.0, 1e5, allow_nan=False),
                         min_size=1, max_size=16),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_bitwise_equal_to_numpy(self, capacity, demands):
        ref = _waterfill_np(capacity, np.asarray(demands, dtype=float))
        assert _waterfill_py(capacity, demands) == ref.tolist()

    @given(
        capacity=st.floats(0.0, 100.0, allow_nan=False),
        demands=st.lists(st.sampled_from([0.0, 1.0, 1.5, 2.0, 7.25]),
                         min_size=2, max_size=16),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_tie_heavy_patterns_bitwise_equal(self, capacity, demands):
        """Discrete demand values force ties, exercising the perm-replay
        branch that pins argsort's tie order."""
        ref = _waterfill_np(capacity, np.asarray(demands, dtype=float))
        assert _waterfill_py(capacity, demands) == ref.tolist()

    def test_dispatch_boundary_is_seamless(self):
        """waterfill_rates switches paths at _SMALL_N; results on either
        side of the cutoff must agree with both implementations."""
        rng = np.random.default_rng(9)
        for n in (_SMALL_N, _SMALL_N + 1):
            demands = (rng.random(n) * 50.0).tolist()
            capacity = 0.4 * sum(demands)
            via_rates = waterfill_rates(capacity, demands)
            assert via_rates == _waterfill_py(capacity, demands)
            assert via_rates == _waterfill_np(
                capacity, np.asarray(demands)).tolist()
