"""End-to-end tests asserting the paper's headline phenomena emerge.

These are the load-bearing integration tests: each one corresponds to a
claim in Section V and checks that our system produces it *from the log*,
the way the authors measured it.  They run small scenarios (tens of
seconds of wall time total).
"""

import numpy as np
import pytest

from repro.analysis import (
    ClassifyUsersFold,
    ContinuitySamplesFold,
    SessionTableFold,
    UploadTotalsFold,
    contribution_by_type,
    contributor_class_share,
    fold_log,
    mean_continuity,
    snapshot_overlay,
)
from repro.analysis.classification import UserType
from repro.network.connectivity import ConnectivityClass
from repro.runtime import build_backend
from repro.workload.scenarios import steady_audience


def expected_user_type(cls: ConnectivityClass) -> UserType:
    """Ground-truth mapping (what a perfect classifier would output)."""
    return {
        ConnectivityClass.DIRECT: UserType.DIRECT,
        ConnectivityClass.UPNP: UserType.UPNP,
        ConnectivityClass.NAT: UserType.NAT,
        ConnectivityClass.FIREWALL: UserType.FIREWALL,
    }[cls]


@pytest.fixture(scope="module")
def spawned_and_run():
    """One shared steady-state run analysed by every test in the module,
    plus the (node id, connectivity) of every peer it spawned: a departed
    peer is gone from the system's registry, so a spawn hook keeps its
    ground truth."""
    scenario = steady_audience(rate_per_s=0.35, horizon_s=1000.0, n_servers=3)
    backend = build_backend(scenario, seed=21, engine="detailed")
    system = backend.system
    spawned = []
    spawn_peer = system.spawn_peer

    def recording_spawn(**kwargs):
        node = spawn_peer(**kwargs)
        spawned.append((node.node_id, node.connectivity))
        return node

    system.spawn_peer = recording_spawn
    backend.run(scenario.horizon_s)
    backend.log.flush()
    return spawned, (system, backend.population)


@pytest.fixture(scope="module")
def steady_run(spawned_and_run):
    """The shared run's system and population."""
    return spawned_and_run[1]


@pytest.fixture(scope="module")
def folds(steady_run):
    """The run's session table, user types, upload totals and continuity
    samples, from one pass over its log."""
    system, _pop = steady_run
    return fold_log(system.log, SessionTableFold(), ClassifyUsersFold(),
                    UploadTotalsFold(), ContinuitySamplesFold())


class TestFig3Phenomena:
    def test_minority_contributes_supermajority_of_upload(self, folds):
        """Fig. 3: ~30% of peers carry >80% of uploaded bytes."""
        _table, types, totals, _samples = folds
        pop_frac, up_frac = contributor_class_share(
            contribution_by_type(types, totals))
        assert pop_frac < 0.45
        assert up_frac > 0.8

    def test_nat_firewall_upload_nonzero(self, folds):
        """NAT/firewall peers still upload a little (they can parent)."""
        _table, types, totals, _samples = folds
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
    def test_buffering_wait_in_paper_regime(self, folds):
        """Fig. 6: users wait seconds-to-tens-of-seconds for the buffer."""
        table = folds[0]
        diffs = table.buffering_delays()
        assert diffs
        assert 2.0 < float(np.median(diffs)) < 30.0

    def test_ready_time_heavy_tail(self, folds):
        delays = folds[0].ready_delays()
        assert np.max(delays) > 2.0 * np.median(delays)


class TestFig8Phenomena:
    def test_all_types_high_continuity(self, folds):
        _table, types, _totals, samples = folds
        for ut in (UserType.DIRECT, UserType.NAT):
            m = mean_continuity(samples, after=300.0, types=types,
                                user_type=ut)
            assert m > 0.9, f"{ut} continuity {m}"

    def test_overall_continuity_near_paper_level(self, folds):
        assert mean_continuity(folds[3], after=300.0) > 0.93


class TestFig10Phenomena:
    def test_some_users_retry(self, steady_run):
        _system, population = steady_run
        hist = population.retry_histogram()
        retried = sum(n for r, n in hist.items() if r >= 1)
        assert retried > 0

    def test_most_users_succeed_eventually(self, steady_run):
        _system, population = steady_run
        assert population.success_fraction() > 0.75

    def test_short_sessions_present(self, folds):
        """Failed joins leave a spike of sub-minute sessions."""
        table = folds[0]
        assert table.short_session_fraction(60.0) > 0.02


class TestClassifierAgainstGroundTruth:
    def test_classifier_mostly_correct_with_documented_bias(
            self, spawned_and_run, folds):
        """The log-based classifier agrees with simulator ground truth for
        most nodes, departed ones included; its errors go in the direction
        the paper warns about (contributors missing incoming partners get
        demoted, never the reverse for NAT)."""
        spawned, (system, _pop) = spawned_and_run
        types = folds[1]
        checked = 0
        correct = 0
        departed = 0
        for node_id, connectivity in spawned:
            got = types.get(node_id)
            if got is None:
                continue
            departed += system.get_node(node_id) is None
            expected = expected_user_type(connectivity)
            checked += 1
            if got is expected:
                correct += 1
            elif expected is UserType.NAT:
                # a NAT peer can only be misread as UPnP via real incoming
                # partnerships (hole punching) -- rare but legal
                assert got in (UserType.UPNP, UserType.NAT)
        assert checked == len(spawned) > 50  # every session was logged
        assert departed > 0
        assert correct / checked > 0.6
