"""Tests for multi-channel deployments and the channel-surfing audience."""

import numpy as np
import pytest

from repro.analysis import SessionTableFold, fold_log
from repro.core.multichannel import MultiChannelDeployment
from repro.workload.surfing import ChannelAudience, zipf_popularity


@pytest.fixture
def deployment(small_cfg):
    return MultiChannelDeployment(3, small_cfg, seed=5)


class TestZipf:
    def test_normalized(self):
        w = zipf_popularity(5, skew=1.0)
        assert w.sum() == pytest.approx(1.0)

    def test_rank_ordering(self):
        w = zipf_popularity(5, skew=1.2)
        assert (np.diff(w) < 0).all()

    def test_zero_skew_uniform(self):
        w = zipf_popularity(4, skew=0.0)
        assert np.allclose(w, 0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_popularity(0)
        with pytest.raises(ValueError):
            zipf_popularity(3, skew=-1.0)


class TestDeployment:
    def test_channels_share_the_clock(self, deployment):
        deployment.run(until=50.0)
        for ch in deployment.channels:
            assert ch.engine is deployment.engine
            assert ch.engine.now == 50.0

    def test_channels_have_independent_overlays(self, deployment):
        a = deployment.channel(0).spawn_peer(user_id=1)
        deployment.run(until=60.0)
        assert deployment.channel(0).concurrent_users == 1
        assert deployment.channel(1).concurrent_users == 0
        # the peer's partners all live in its own channel
        for pid in a.partners.ids():
            assert deployment.channel(0).get_node(pid) is not None
            assert deployment.channel(1).get_node(pid) is None

    def test_ids_disjoint_across_channels(self, deployment):
        a = deployment.channel(0).spawn_peer(user_id=1)
        b = deployment.channel(1).spawn_peer(user_id=2)
        assert a.node_id != b.node_id
        assert a.session_id != b.session_id

    def test_merged_log_sorted(self, deployment):
        deployment.channel(0).spawn_peer(user_id=1)
        deployment.channel(1).spawn_peer(user_id=2)
        deployment.run(until=60.0)
        arrivals = [e.arrival_time for e in deployment.merged_log().entries()]
        assert arrivals == sorted(arrivals)

    def test_needs_at_least_one_channel(self, small_cfg):
        with pytest.raises(ValueError):
            MultiChannelDeployment(0, small_cfg)

    def test_channel_seeds_independent(self, small_cfg):
        dep = MultiChannelDeployment(2, small_cfg, seed=5)
        a = dep.channel(0).rng.stream("population").random(20)
        b = dep.channel(1).rng.stream("population").random(20)
        assert not np.allclose(a, b)


class TestAudience:
    def make_audience(self, deployment, n=40, zap=0.3, zap_after=60.0):
        rng = np.random.default_rng(1)
        times = np.sort(rng.uniform(0, 40, n))
        return ChannelAudience(
            deployment, arrival_times=times,
            zap_probability=zap, zap_after_s=zap_after,
        )

    def test_popular_channel_gets_most_viewers(self, deployment):
        audience = self.make_audience(deployment, n=60, zap=0.0)
        deployment.run(until=200.0)
        counts = deployment.audience_by_channel()
        assert counts[0] == max(counts)
        assert sum(counts) > 40

    def test_zapping_creates_sessions(self, deployment):
        audience = self.make_audience(deployment, n=40, zap=0.5)
        deployment.run(until=400.0)
        assert audience.zap_count > 0
        (table,) = fold_log(deployment.merged_log(), SessionTableFold())
        # sessions = arrivals + zaps + retries
        assert len(table) >= 40 + audience.zap_count

    def test_zapped_viewer_keeps_single_live_session(self, deployment):
        audience = self.make_audience(deployment, n=30, zap=0.6)
        deployment.run(until=500.0)
        live_by_user = {}
        for ch in deployment.channels:
            for peer in ch.peers():
                live_by_user.setdefault(peer.user_id, 0)
                live_by_user[peer.user_id] += 1
        assert all(n == 1 for n in live_by_user.values())

    def test_staggered_program_endings(self, small_cfg):
        """One channel's program ends; its audience drops, others keep
        watching -- the Fig. 5a partial-collapse mechanism."""
        dep = MultiChannelDeployment(2, small_cfg, seed=7)
        rng = np.random.default_rng(2)
        times = np.sort(rng.uniform(0, 30, 40))
        audience = ChannelAudience(
            dep, arrival_times=times, zap_probability=0.0,
            popularity_skew=0.0,  # even split
        )
        dep.run(until=150.0)
        before = dep.audience_by_channel()
        # end channel 0's program: everyone watching it leaves
        from repro.telemetry.reports import LeaveReason

        for peer in dep.channel(0).peers():
            peer.leave(LeaveReason.PROGRAM_END)
        dep.run(until=200.0)
        after = dep.audience_by_channel()
        assert after[0] < max(1, before[0])
        assert after[1] >= 0.7 * before[1]

    def test_zap_probability_validation(self, deployment):
        with pytest.raises(ValueError):
            ChannelAudience(deployment, arrival_times=[1.0],
                            zap_probability=1.5)


class TestMultiChannelLogPinned:
    """A small multi-channel evening, byte for byte.

    The channels share one engine and their servers start at t=0, so
    their periodic tasks run on the same cadence at the same phase: this
    is the deployment where same-time timers of different systems meet
    on the heap.  The merged log and the kernel counts are pinned so a
    change to how the kernel keeps periodic timers cannot move one event
    of the platform-wide log.

    ``events_processed`` counts one event per periodic-task firing.  When
    same-cadence tasks of different channels were fired from one shared
    heap entry, this run processed 34,771 events, with the same log bytes
    and the same 57 cancelled events; 400 of those firings carried three
    tasks, one per channel, and each task now fires as its own event.
    """

    #: (log lines, sha256 of merged_log().dumps())
    LOG = (412, "0a3ba90219de4cd068f7fc3c7a331c5e"
                "a54d6aa90f73015f77b1de7fcfb0abfb")
    #: (events_processed, events_cancelled, engine.now)
    KERNEL = (35571, 57, 400.0)
    #: the numpy (major.minor) the pins were checked under
    NUMPY = "2.4"

    def test_merged_log_and_kernel_counts_match_the_pin(self, pin_failure):
        import hashlib

        from repro.core.config import SystemConfig

        dep = MultiChannelDeployment(3, SystemConfig(n_servers=2), seed=3)
        times = np.sort(np.random.default_rng(3).uniform(0.0, 120.0, 60))
        ChannelAudience(dep, arrival_times=times, zap_probability=0.25,
                        zap_after_s=90.0)
        dep.run(until=400.0)
        log = dep.merged_log()
        digest = hashlib.sha256(log.dumps().encode()).hexdigest()
        assert (len(log), digest) == self.LOG, \
            pin_failure("the merged log", self.NUMPY)
        eng = dep.engine
        assert (eng.events_processed, eng.events_cancelled, eng.now) \
            == self.KERNEL, pin_failure("the kernel counts", self.NUMPY)
