"""Tests for the vectorized engine."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.config import SystemConfig
from repro.fastsim import FastSimConfig, FastSimulation
from repro.fastsim.engine import (
    _BUFFERING,
    _EMPTY,
    _PLAYING,
    _any_last,
    _count_last,
    _max_last,
    _min_last,
    _sum_last,
)
from repro.telemetry.reports import (
    ActivityEvent,
    ActivityReport,
    QoSReport,
    TrafficReport,
)


def make_sim(n_servers=2, seed=0, **fast_kwargs):
    cfg = SystemConfig(n_servers=n_servers)
    fast = FastSimConfig(**fast_kwargs) if fast_kwargs else None
    return FastSimulation(cfg, fast, seed=seed, capacity_hint=256)


class TestSetup:
    def test_servers_occupy_low_slots(self):
        sim = make_sim(n_servers=3)
        assert (sim.state[:3] == _PLAYING).all()
        assert (sim.state[3:] == _EMPTY).all()

    def test_server_heads_track_edge(self):
        sim = make_sim()
        sim.run(until=50.0)
        assert sim.H[0, 0] == pytest.approx(49.0, abs=1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FastSimConfig(dt=0.0)
        with pytest.raises(ValueError):
            FastSimConfig(catchup_factor=0.5)
        with pytest.raises(ValueError):
            FastSimConfig(nat_parent_prob=2.0)
        with pytest.raises(ValueError):
            FastSimConfig(join_overhead_s=-0.1)
        with pytest.raises(ValueError):
            FastSimConfig(max_children_factor=0)

    @pytest.mark.parametrize("field", [
        f.name for f in dataclasses.fields(FastSimConfig)
        if type(f.default) in (int, float)
    ])
    def test_nan_rejected_for_every_numeric_field(self, field):
        # a NaN step length used to pass and crash the first step
        with pytest.raises(ValueError, match=field):
            FastSimConfig(**{field: float("nan")})

    def test_misaligned_arrivals_rejected(self):
        sim = make_sim()
        with pytest.raises(ValueError):
            sim.add_arrivals(np.array([1.0, 2.0]), np.array([5.0]))


class TestLifecycle:
    def test_single_user_becomes_playing(self):
        sim = make_sim()
        sim.add_arrivals(np.array([5.0]), np.array([1000.0]))
        sim.run(until=60.0)
        assert sim.playing_users == 1
        assert sim.concurrent_users == 1

    def test_user_departs_at_intended_duration(self):
        sim = make_sim()
        sim.add_arrivals(np.array([5.0]), np.array([60.0]))
        sim.run(until=100.0)
        assert sim.concurrent_users == 0

    def test_activity_events_logged_in_order(self):
        sim = make_sim()
        sim.add_arrivals(np.array([5.0]), np.array([100.0]))
        sim.run(until=200.0)
        events = [
            r.event for r in sim.log.reports_of(ActivityReport)
        ]
        assert events[0] is ActivityEvent.JOIN
        assert ActivityEvent.START_SUBSCRIPTION in events
        assert ActivityEvent.PLAYER_READY in events
        assert events.count(ActivityEvent.JOIN) == 1

    def test_slot_reuse_after_departure(self):
        sim = make_sim()
        sim.add_arrivals(np.array([1.0, 100.0]), np.array([50.0, 50.0]))
        sim.run(until=200.0)
        # both sessions must have run; capacity stays small
        assert sim.sessions_spawned == 2

    def test_growth_beyond_capacity_hint(self):
        cfg = SystemConfig(n_servers=2)
        sim = FastSimulation(cfg, seed=0, capacity_hint=64)
        n = 200
        sim.add_arrivals(np.linspace(1, 50, n), np.full(n, 500.0))
        sim.run(until=100.0)
        # a couple of users may be mid-retry between sessions at the cut
        assert sim.concurrent_users >= n - 10
        assert sim.sessions_spawned >= n

    def test_thousand_user_flash_crowd_streams(self):
        """1000 arrivals in the first minute over four servers: after 5
        simulated minutes nearly all play, and lifetime continuity, warm-up
        included, stays high (measured: 1000 playing, 0.852)."""
        sim = FastSimulation(SystemConfig(n_servers=4), seed=0,
                             capacity_hint=2048)
        sim.add_arrivals(np.linspace(0, 60, 1000), np.full(1000, 600.0))
        sim.run(until=300.0)
        assert sim.playing_users >= 900
        assert sim.mean_continuity() > 0.7

    def test_program_ending_clears_audience(self):
        sim = make_sim()
        n = 30
        sim.add_arrivals(np.linspace(1, 10, n), np.full(n, 1000.0))
        sim.add_program_ending(100.0, leave_probability=1.0)
        sim.run(until=150.0)
        assert sim.concurrent_users == 0

    def test_program_ending_partial(self):
        sim = make_sim(seed=3)
        n = 60
        sim.add_arrivals(np.linspace(1, 10, n), np.full(n, 1000.0))
        sim.add_program_ending(100.0, leave_probability=0.5)
        sim.run(until=150.0)
        assert 10 < sim.concurrent_users < 50


class TestDataPlane:
    def test_heads_capped_by_parent(self):
        sim = make_sim()
        n = 10
        sim.add_arrivals(np.linspace(1, 5, n), np.full(n, 1000.0))
        sim.run(until=120.0)
        active = np.nonzero((sim.state == _PLAYING) | (sim.state == _BUFFERING))[0]
        for slot in active:
            for sub in range(sim.k):
                p = sim.parent[slot, sub]
                if p >= 0:
                    assert sim.H[slot, sub] <= sim.H[p, sub] + 1e-9

    def test_continuity_high_under_light_load(self):
        sim = make_sim(seed=5)
        n = 20
        sim.add_arrivals(np.linspace(1, 20, n), np.full(n, 1000.0))
        sim.run(until=300.0)
        assert sim.mean_continuity() > 0.9

    def test_children_counter_conserved(self):
        """sum(children) == number of live connections, across churn."""
        sim = make_sim(seed=7)
        n = 40
        sim.add_arrivals(np.linspace(1, 30, n), 100.0 + 100.0 * np.arange(n) % 300)
        for _ in range(400):
            sim.step()
            conn_count = int((sim.parent >= 0).sum())
            assert int(sim.children.sum()) == conn_count
            assert (sim.children >= 0).all()

    def test_bits_accounting_consistent(self):
        sim = make_sim(seed=5)
        n = 10
        sim.add_arrivals(np.linspace(1, 5, n), np.full(n, 1000.0))
        sim.run(until=200.0)
        # every downloaded bit was uploaded by someone
        assert sim.bits_down.sum() == pytest.approx(sim.bits_up.sum(), rel=1e-9)


class TestTelemetry:
    def test_status_reports_have_5min_cadence(self):
        sim = make_sim()
        sim.add_arrivals(np.array([0.0]), np.array([2000.0]))
        sim.run(until=1000.0)
        qos = list(sim.log.reports_of(QoSReport))
        assert 2 <= len(qos) <= 4

    def test_traffic_totals_monotone(self):
        sim = make_sim()
        sim.add_arrivals(np.array([0.0]), np.array([2000.0]))
        sim.run(until=1000.0)
        totals = [r.total_down for r in sim.log.reports_of(TrafficReport)]
        assert totals == sorted(totals)

    def test_retry_histogram_keys_nonnegative(self):
        sim = make_sim(seed=2)
        n = 30
        sim.add_arrivals(np.linspace(0, 10, n), np.full(n, 500.0))
        sim.run(until=300.0)
        hist = sim.retry_histogram()
        assert all(k >= 0 for k in hist)
        assert sum(hist.values()) <= n


class TestDeterminism:
    def test_same_seed_same_log(self):
        def run(seed):
            sim = make_sim(seed=seed)
            n = 15
            sim.add_arrivals(np.linspace(1, 20, n), np.full(n, 400.0))
            sim.run(until=300.0)
            return sim.log.dumps()

        assert run(4) == run(4)
        assert run(4) != run(5)


#: (n, K) and (n, C, K) shapes, n = 0 included, K from 1 to 16
_SHAPES = st.one_of(
    st.tuples(st.integers(0, 12), st.integers(1, 16)),
    st.tuples(st.integers(0, 5), st.integers(1, 10), st.integers(1, 16)),
)
# NaN-free, with -inf (the engine's "no candidate" value) and signed
# zeros; bounded so that no sum of 16 terms overflows
_FLOATS = st.one_of(
    st.floats(-1e300, 1e300, allow_nan=False), st.just(-np.inf))


class TestLastAxisReductions:
    """The step's column-by-column reductions against the numpy calls
    they replace: same values, same dtype, same shape."""

    @settings(max_examples=150, deadline=None)
    @given(hnp.arrays(np.float64, _SHAPES, elements=_FLOATS))
    def test_float_reductions(self, a):
        for helper, reference in ((_max_last, np.max), (_min_last, np.min)):
            got, want = helper(a), reference(a, axis=-1)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)

    @settings(max_examples=150, deadline=None)
    @given(hnp.arrays(np.float64, _SHAPES, elements=_FLOATS))
    def test_sum_is_bit_identical_at_every_width(self, a):
        # below 8 terms by columns, from 8 on numpy's own pairwise sum:
        # the playback phase's missed blocks must not move in the last bit
        got, want = _sum_last(a), np.sum(a, axis=-1)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(hnp.arrays(np.bool_, _SHAPES))
    def test_bool_reductions(self, a):
        for helper, reference in ((_any_last, np.any), (_count_last, np.sum)):
            got, want = helper(a), reference(a, axis=-1)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)

