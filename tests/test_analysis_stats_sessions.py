"""Tests for the statistics helpers and session reconstruction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sessions import Session, SessionTable
from repro.analysis.streaming import SessionTableFold, fold_log
from repro.analysis.stats import Cdf, bin_timeseries
from repro.telemetry.reports import ActivityEvent, ActivityReport, LeaveReason
from repro.telemetry.server import LogServer


def table_of(server):
    return fold_log(server, SessionTableFold())[0]


def _concurrent_users_loop(table, *, t0, t1, step_s):
    """``SessionTable.concurrent_users`` as a loop over the sessions, two
    scalar ``searchsorted`` calls each: the oracle for the vectorised
    form."""
    sessions = table.sessions()
    if t1 is None:
        all_t = [s.join_time for s in sessions if s.join_time is not None] \
            + [s.leave_time for s in sessions if s.leave_time is not None]
        t1 = max(all_t) + step_s if all_t else t0 + step_s
    grid = np.arange(t0, t1 + step_s / 2, step_s)
    delta = np.zeros(grid.size + 1)
    for s in sessions:
        if s.join_time is None:
            continue
        j = int(np.searchsorted(grid, s.join_time, side="right"))
        delta[min(j, grid.size)] += 1
        if s.leave_time is not None:
            k = int(np.searchsorted(grid, s.leave_time, side="right"))
            delta[min(k, grid.size)] -= 1
    return grid, np.cumsum(delta[:-1])


class TestCdf:
    def test_basic(self):
        cdf = Cdf.from_samples([1.0, 2.0, 3.0, 4.0])
        assert cdf.at(2.0) == 0.5
        assert cdf.at(0.5) == 0.0
        assert cdf.at(10.0) == 1.0

    def test_median_and_quantiles(self):
        cdf = Cdf.from_samples(range(1, 101))
        assert cdf.median == 50
        assert cdf.quantile(0.9) == 90
        assert cdf.quantile(0.0) == 1
        assert cdf.quantile(1.0) == 100

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Cdf.from_samples([])

    def test_bad_quantile_rejected(self):
        with pytest.raises(ValueError):
            Cdf.from_samples([1.0]).quantile(1.5)

    def test_evaluate_grid(self):
        cdf = Cdf.from_samples([1, 2, 3, 4])
        assert [cdf.at(x) for x in [0, 2, 5]] == [0.0, 0.5, 1.0]

    def test_mean(self):
        assert Cdf.from_samples([1.0, 3.0]).mean == 2.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                    min_size=1, max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_property_monotone_and_bounded(self, samples):
        cdf = Cdf.from_samples(samples)
        grid = np.linspace(min(samples) - 1, max(samples) + 1, 20)
        vals = np.array([cdf.at(x) for x in grid])
        assert (np.diff(vals) >= 0).all()
        assert vals[0] >= 0.0 and vals[-1] == 1.0


class TestBinning:
    def test_means_per_bin(self):
        centers, means, counts = bin_timeseries(
            [0.5, 1.5, 1.6], [10.0, 20.0, 40.0], bin_s=1.0, t1=3.0
        )
        assert means[0] == 10.0
        assert means[1] == 30.0
        assert np.isnan(means[2])
        assert counts.tolist() == [1, 2, 0]

    def test_centers(self):
        centers, _m, _c = bin_timeseries([0.0], [1.0], bin_s=2.0, t1=6.0)
        assert centers.tolist() == [1.0, 3.0, 5.0]

    def test_out_of_range_samples_dropped(self):
        _c, means, counts = bin_timeseries(
            [-5.0, 100.0], [1.0, 1.0], bin_s=1.0, t0=0.0, t1=2.0
        )
        assert counts.sum() == 0

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError):
            bin_timeseries([1.0], [1.0, 2.0], bin_s=1.0)


def log_with_session(events, node_id=1, user_id=1, session_id=1, attempt=1,
                     server=None, public=True):
    server = server if server is not None else LogServer()
    for event, t, reason in events:
        server.receive_report(t, ActivityReport(
            time=t, node_id=node_id, user_id=user_id, session_id=session_id,
            event=event, attempt=attempt, address_public=public, reason=reason,
        ))
    return server


class TestSessionReconstruction:
    def test_normal_session(self):
        server = log_with_session([
            (ActivityEvent.JOIN, 10.0, None),
            (ActivityEvent.START_SUBSCRIPTION, 13.0, None),
            (ActivityEvent.PLAYER_READY, 25.0, None),
            (ActivityEvent.LEAVE, 100.0, LeaveReason.NORMAL),
        ])
        table = table_of(server)
        assert len(table) == 1
        sess = table.sessions()[0]
        assert sess.is_normal
        assert sess.duration == 90.0
        assert sess.start_subscription_delay == 3.0
        assert sess.ready_delay == 15.0
        assert sess.buffering_delay == 12.0

    def test_failed_session_not_normal(self):
        server = log_with_session([
            (ActivityEvent.JOIN, 10.0, None),
            (ActivityEvent.LEAVE, 40.0, LeaveReason.IMPATIENCE),
        ])
        sess = table_of(server).sessions()[0]
        assert not sess.is_normal
        assert sess.ready_time is None
        assert sess.duration == 30.0
        assert sess.ready_delay is None

    def test_abrupt_departure_has_unknown_duration(self):
        server = log_with_session([
            (ActivityEvent.JOIN, 10.0, None),
            (ActivityEvent.PLAYER_READY, 20.0, None),
        ])
        sess = table_of(server).sessions()[0]
        assert sess.duration is None

    def test_retry_histogram_links_by_user(self):
        server = LogServer()
        # user 1: three joins; user 2: one join
        for sid, t in ((1, 0.0), (2, 30.0), (3, 60.0)):
            log_with_session([(ActivityEvent.JOIN, t, None)],
                             user_id=1, session_id=sid, server=server)
        log_with_session([(ActivityEvent.JOIN, 0.0, None)],
                         user_id=2, session_id=10, server=server)
        hist = table_of(server).retry_histogram()
        assert hist == {2: 1, 0: 1}

    def test_concurrent_users_counting(self):
        server = LogServer()
        log_with_session([
            (ActivityEvent.JOIN, 10.0, None),
            (ActivityEvent.LEAVE, 50.0, LeaveReason.NORMAL),
        ], session_id=1, user_id=1, server=server)
        log_with_session([
            (ActivityEvent.JOIN, 30.0, None),
            (ActivityEvent.LEAVE, 90.0, LeaveReason.NORMAL),
        ], session_id=2, user_id=2, server=server)
        grid, counts = table_of(server).concurrent_users(
            t0=0.0, t1=100.0, step_s=20.0
        )
        # at t=20: 1 user; t=40: 2; t=60: 1; t=100: 0
        at = dict(zip(grid.tolist(), counts.tolist()))
        assert at[20.0] == 1
        assert at[40.0] == 2
        assert at[60.0] == 1
        assert at[100.0] == 0

    @given(
        sessions=st.lists(st.tuples(
            st.none() | st.integers(-2, 14).map(lambda k: k * 10.0)
            | st.floats(-20.0, 150.0),
            st.none() | st.integers(-2, 14).map(lambda k: k * 10.0)
            | st.floats(-20.0, 150.0)), max_size=30),
        t1=st.none() | st.sampled_from([0.0, 55.0, 100.0, 120.0]),
        step_s=st.sampled_from([7.0, 10.0, 25.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_concurrent_users_equals_the_per_session_loop(
            self, sessions, t1, step_s):
        """Joins and leaves that are ``None``, on grid points or past
        ``t1``, with and without ``t1``, and no session at all: the counts
        are the per-session loop's, bit for bit."""
        table = SessionTable({
            i: Session(session_id=i, user_id=i, node_id=i, attempt=1,
                       address_public=True, join_time=join, leave_time=leave)
            for i, (join, leave) in enumerate(sessions)})
        grid, counts = table.concurrent_users(t0=0.0, t1=t1, step_s=step_s)
        expected_grid, expected = _concurrent_users_loop(
            table, t0=0.0, t1=t1, step_s=step_s)
        assert grid.tobytes() == expected_grid.tobytes()
        assert counts.dtype == expected.dtype
        assert counts.tobytes() == expected.tobytes()

    def test_session_without_leave_counts_as_present(self):
        server = log_with_session([(ActivityEvent.JOIN, 10.0, None)])
        _grid, counts = table_of(server).concurrent_users(
            t0=0.0, t1=100.0, step_s=50.0
        )
        assert counts[-1] == 1

    def test_ready_delays_windowed_by_join_time(self):
        server = LogServer()
        log_with_session([
            (ActivityEvent.JOIN, 10.0, None),
            (ActivityEvent.PLAYER_READY, 15.0, None),
        ], session_id=1, user_id=1, server=server)
        log_with_session([
            (ActivityEvent.JOIN, 100.0, None),
            (ActivityEvent.PLAYER_READY, 130.0, None),
        ], session_id=2, user_id=2, server=server)
        table = table_of(server)
        assert table.ready_delays() == [5.0, 30.0]
        assert table.ready_delays(join_after=50.0) == [30.0]
        assert table.ready_delays(join_before=50.0) == [5.0]

    def test_short_session_fraction(self):
        server = LogServer()
        for sid, dur in ((1, 30.0), (2, 300.0)):
            log_with_session([
                (ActivityEvent.JOIN, 0.0, None),
                (ActivityEvent.LEAVE, dur, LeaveReason.NORMAL),
            ], session_id=sid, user_id=sid, server=server)
        assert table_of(server).short_session_fraction(60.0) == 0.5
