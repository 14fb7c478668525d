"""Tests for continuity aggregation and overlay-topology analysis."""

import numpy as np
import pytest

from repro.analysis.classification import UserType
from repro.analysis.continuity import (
    continuity_by_type,
    continuity_timeseries,
    mean_continuity,
)
from repro.analysis.streaming import ContinuitySamplesFold, fold_log
from repro.analysis.topology import snapshot_overlay
from repro.telemetry.reports import QoSReport
from repro.telemetry.server import LogServer


def qos(server, node_id, t, continuity, playing=True):
    server.receive_report(t, QoSReport(
        time=t, node_id=node_id, user_id=node_id, session_id=node_id,
        continuity=continuity, playing=playing,
    ))


def samples_of(server, **kwargs):
    return fold_log(server, ContinuitySamplesFold(**kwargs))[0]


class TestContinuityAggregation:
    def test_samples_skip_missing_continuity(self):
        server = LogServer()
        qos(server, 1, 300.0, 0.9)
        qos(server, 2, 300.0, None)
        assert len(samples_of(server)) == 1

    def test_playing_only_filter(self):
        server = LogServer()
        qos(server, 1, 300.0, 0.9, playing=False)
        assert samples_of(server) == []
        assert len(samples_of(server, playing_only=False)) == 1

    def test_timeseries_binning(self):
        server = LogServer()
        qos(server, 1, 100.0, 0.8)
        qos(server, 2, 150.0, 1.0)
        qos(server, 1, 400.0, 0.5)
        centers, means, counts = continuity_timeseries(
            samples_of(server), bin_s=300.0, t1=600.0
        )
        assert means[0] == pytest.approx(0.9)
        assert means[1] == pytest.approx(0.5)

    def test_timeseries_empty_log_raises(self):
        with pytest.raises(ValueError):
            continuity_timeseries(samples_of(LogServer()))

    def test_mean_continuity_with_warmup_exclusion(self):
        server = LogServer()
        qos(server, 1, 100.0, 0.2)
        qos(server, 1, 500.0, 1.0)
        samples = samples_of(server)
        assert mean_continuity(samples) == pytest.approx(0.6)
        assert mean_continuity(samples, after=300.0) == pytest.approx(1.0)

    def test_mean_continuity_by_type(self):
        server = LogServer()
        qos(server, 1, 300.0, 0.9)
        qos(server, 2, 300.0, 0.5)
        samples = samples_of(server)
        types = {1: UserType.DIRECT, 2: UserType.NAT}
        assert mean_continuity(samples, types=types,
                               user_type=UserType.DIRECT) == 0.9
        assert mean_continuity(samples, types=types,
                               user_type=UserType.NAT) == 0.5

    def test_mean_continuity_by_type_needs_types(self):
        # the user types come from the caller's fold, never a hidden pass
        with pytest.raises(ValueError, match="user_type needs types"):
            mean_continuity([(300.0, 1, 0.9)], user_type=UserType.DIRECT)

    def test_mean_continuity_empty_is_nan(self):
        assert np.isnan(mean_continuity(samples_of(LogServer())))

    def test_by_type_series(self):
        server = LogServer()
        qos(server, 1, 100.0, 0.9)
        qos(server, 2, 100.0, 0.7)
        types = {1: UserType.DIRECT, 2: UserType.NAT}
        series = continuity_by_type(types, samples_of(server), bin_s=300.0,
                                    t1=300.0)
        assert set(series) == {UserType.DIRECT, UserType.NAT}
        assert series[UserType.DIRECT][1][0] == pytest.approx(0.9)


class TestTopologySnapshots:
    def test_snapshot_counts_peers_not_servers(self, populated_system):
        snap = snapshot_overlay(populated_system)
        assert snap.n_peers == populated_system.concurrent_users

    def test_contributor_parent_fraction_in_bounds(self, populated_system):
        snap = snapshot_overlay(populated_system)
        frac = snap.contributor_parent_fraction()
        assert 0.0 <= frac <= 1.0

    def test_random_links_rare(self, populated_system):
        snap = snapshot_overlay(populated_system)
        frac = snap.random_link_fraction()
        assert np.isnan(frac) or frac < 0.5

    def test_depths_positive_and_reachable(self, populated_system):
        snap = snapshot_overlay(populated_system)
        depths = snap.depth_distribution()
        reachable = {d: n for d, n in depths.items() if d >= 0}
        assert sum(reachable.values()) >= 0.9 * snap.n_peers
        assert all(d >= 2 for d in reachable)  # source -> server -> peer

    def test_mean_depth_at_least_two(self, populated_system):
        assert snapshot_overlay(populated_system).mean_depth() >= 2.0

    def test_edge_weights_count_substreams(self, populated_system):
        snap = snapshot_overlay(populated_system)
        k = populated_system.cfg.n_substreams
        for _p, _c, data in snap.graph.edges(data=True):
            assert 1 <= data["substreams"] <= k

    def test_out_degree_by_class_servers_dominate(self, populated_system):
        from repro.network.connectivity import ConnectivityClass
        degs = snapshot_overlay(populated_system).out_degree_by_class()
        assert degs[ConnectivityClass.SERVER] == max(degs.values())
