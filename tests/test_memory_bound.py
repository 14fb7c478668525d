"""Memory follows the live audience: a departed peer is freed.

When a peer leaves, its host (``detailed``'s and ``net``'s alike) folds
its counters into per-system totals, drops it from the registry and
releases its random stream; the audiences' departure events name
sessions, not nodes; a stopped task or closed reporter drops the
callbacks that tied the node to itself; and on ``net`` a closed transport
drops its owner's handlers and the coordinator link closes behind the
last report.  So nothing but the call stack holds a departed node, and it
is freed by refcounting -- these tests run with the cyclic GC off to
prove it.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.core.multichannel import MultiChannelDeployment
from repro.core.node import PeerNode, SessionOutcome
from repro.core.system import CoolstreamingSystem
from repro.net.backend import NetBackend
from repro.net.config import NetConfig
from repro.runtime.driver import sample_workload
from repro.sim.rng import RngDisciplineError, RngHub
from repro.telemetry import sink as sink_module
from repro.telemetry.reports import LeaveReason
from repro.workload.scenarios import uniform_ramp
from repro.workload.surfing import ChannelAudience
from repro.workload.users import UserAgent, UserPopulation


@pytest.fixture
def no_cyclic_gc():
    """Run the test with the cyclic garbage collector switched off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.usefixtures("no_cyclic_gc")
class TestDepartedPeerIsFreed:
    """A few simulated seconds after a leave, the node is unreachable."""

    @pytest.mark.parametrize("kind, outcome", [
        ("normal", SessionOutcome.NORMAL),
        ("silent", SessionOutcome.NORMAL),
        ("impatient", SessionOutcome.IMPATIENT),
        ("failed", SessionOutcome.FAILED),
    ])
    def test_left_peer_is_unreachable(self, small_cfg, kind, outcome):
        cfg = small_cfg.with_overrides(n_servers=0) if kind == "impatient" \
            else small_cfg
        system = CoolstreamingSystem(cfg, seed=5)
        agent = UserAgent(
            system, user_id=0, arrival_time=10.0,
            intended_duration_s=10_000.0 if kind == "impatient" else 120.0,
            max_retries=0, retry_backoff_s=5.0,
            silent_leave_prob=float(kind == "silent"))
        agent.schedule_arrival()
        system.run(until=20.0)
        node = agent.node
        assert node is not None and node.alive
        node_id = node.node_id
        ref = weakref.ref(node)
        del node
        if kind == "failed":
            system.engine.schedule_at(
                100.0,
                lambda: system.get_node(node_id).leave(LeaveReason.FAILURE))
        left_by = {"normal": 130.0, "silent": 130.0, "failed": 100.0,
                   "impatient": 10.0 + cfg.join_patience_s + 2.0}[kind]
        system.run(until=left_by + 5.0)
        record = agent.sessions[-1]
        assert record.outcome is outcome
        assert record.ended_at <= left_by
        assert system.get_node(node_id) is None
        assert ref() is None

    def test_a_peer_that_parented_others_is_freed(self, small_cfg):
        """A parent's departure is seen by its children only through
        BM silence; they must not keep it alive."""
        system = CoolstreamingSystem(small_cfg, seed=11)
        for u in range(8):
            system.engine.schedule(
                u * 1.0, lambda u=u: system.spawn_peer(user_id=u))
        system.run(until=90.0)
        parent_ids = sorted({p for p, _c, _s in system.parent_child_edges()
                             if p >= 1000})
        assert parent_ids
        refs = [weakref.ref(system.get_node(p)) for p in parent_ids]
        for pid in parent_ids:
            system.get_node(pid).leave(LeaveReason.FAILURE, silent=True)
        system.run(until=95.0)
        assert all(ref() is None for ref in refs)


class TestTotalsOutliveThePeers:
    def test_totals_equal_the_sums_over_every_session(self, small_cfg):
        system = CoolstreamingSystem(small_cfg, seed=11)
        nodes = []
        for u in range(10):
            system.engine.schedule(
                u * 1.0, lambda u=u: nodes.append(system.spawn_peer(user_id=u)))
        system.run(until=80.0)
        for node in nodes[:5]:
            node.leave(LeaveReason.NORMAL)
        system.run(until=150.0)
        # the test's own list still holds every session
        assert system.adaptations == sum(n.adaptation_count for n in nodes)
        assert system.parents_held == sum(
            1 for n in nodes for p in n.parents if p is not None)
        assert system.parents_held > 0
        assert system.pull_requests_sent == 0
        assert len(system.peers()) == 5


def _steady_churn_heap(small_cfg, horizons):
    """Traced heap (bytes) of a steady-churn run at each horizon, outside
    the log sink: one arrival a second, each watching 60 s, so ~60 peers
    are live at any time while one leaves every second.  The log itself
    grows with the sessions it records, by design, so it is left out."""
    n_users = int(max(horizons))
    # the sanitizer's accounting keeps one entry per stream ever created
    # (draw counts, released names) by design, so it is measured off
    system = CoolstreamingSystem(small_cfg, seed=3,
                                 rng=RngHub(3, sanitize=False))
    UserPopulation(system, arrival_times=np.arange(n_users, dtype=float),
                   durations=np.full(n_users, 60.0),
                   silent_leave_prob=0.1).attach()
    not_the_log = [tracemalloc.Filter(False, sink_module.__file__)]
    heap = []
    tracemalloc.start()
    try:
        for until in horizons:
            system.run(until=until)
            gc.collect()
            snapshot = tracemalloc.take_snapshot().filter_traces(not_the_log)
            heap.append(sum(trace.size for trace in snapshot.traces))
    finally:
        tracemalloc.stop()
    return system, heap


def test_steady_churn_heap_stays_flat(small_cfg):
    """At 3T the run has spawned three times the sessions it had at T with
    the same live audience, and its heap outside the log has grown by less
    than 30% (measured: 1.16x at T = 150 s; keeping departed peers, as
    the registry once did, it is 2.98x)."""
    t = 150.0
    system, (at_t, at_3t) = _steady_churn_heap(small_cfg, (t, 3 * t))
    assert system.sessions_spawned >= 3 * t - 1
    assert len(system.peers()) <= 70
    assert at_3t < 1.3 * at_t, (at_t, at_3t)


class TestRngRelease:
    def test_release_leaves_other_streams_unchanged(self):
        kept = RngHub(7, sanitize=False)
        released = RngHub(7, sanitize=False)
        expected = [kept.stream("a").random(), kept.stream("b").random(),
                    kept.stream("a").random(), kept.stream("b").random()]
        got = [released.stream("a").random()]
        released.stream("node.1").random()
        released.release("node.1")
        got += [released.stream("b").random(), released.stream("a").random()]
        released.release("node.2")  # never created: a no-op
        got.append(released.stream("b").random())
        assert got == expected

    def test_recreating_a_released_stream_raises_under_strict(self):
        hub = RngHub(7, sanitize="strict")
        first = hub.stream("node.1").random()
        hub.release("node.1")
        with pytest.raises(RngDisciplineError, match="released_stream"):
            hub.stream("node.1")
        # the raise came after re-creation: the stream restarts, which is
        # exactly why it is a violation
        assert hub.stream("node.1").random() == first

    def test_recreating_a_released_stream_is_recorded_under_warn(self):
        hub = RngHub(7, sanitize="warn")
        hub.stream("node.1")
        hub.release("node.1")
        hub.stream("node.1")
        assert [kind for kind, _ in hub.violations] == ["released_stream"]

    def test_a_run_releases_every_departed_peers_stream(self, small_cfg):
        system = CoolstreamingSystem(small_cfg, seed=3,
                                     rng=RngHub(3, sanitize="strict"))
        UserPopulation(system, arrival_times=np.arange(40, dtype=float),
                       durations=np.full(40, 30.0)).attach()
        system.run(until=120.0)
        assert system.sessions_spawned == 40
        assert not system.peers()
        for node_id in range(1000, 1040):
            with pytest.raises(RngDisciplineError, match="released_stream"):
                system.rng.stream(f"node.{node_id}")


@pytest.mark.usefixtures("no_cyclic_gc")
class TestEveryHostFreesItsPeers:
    """``net`` and the multi-channel audience free departed peers too.

    These run last: the steady-churn ratio above is measured in-process,
    and the heap earlier tests leave behind moves its baseline."""

    @pytest.mark.parametrize("silent", [False, True],
                             ids=["graceful", "silent"])
    def test_left_net_peer_is_unreachable(self, silent):
        """On ``net`` too: the peer's sockets, its coordinator link and
        their read tasks let go of it a few simulated seconds after it
        leaves."""
        cfg = SystemConfig().with_overrides(status_report_period_s=30.0)
        scenario = uniform_ramp(n_users=6, horizon_s=120.0, n_servers=2,
                                cfg=cfg)
        backend = NetBackend(scenario, seed=0,
                             net=NetConfig(time_scale=40.0))
        workload = sample_workload(scenario, 0)
        backend.apply_workload(workload.times, workload.durations)
        left = {}

        def leave_one(system):
            victim = next((p for p in system.peers()
                           if p.coord_link is not None and p.partners.ids()),
                          None)
            if victim is None:
                return
            left["id"] = victim.node_id
            left["ref"] = weakref.ref(victim)
            victim.leave(LeaveReason.NORMAL, silent=silent)

        backend.at(40.0, leave_one)
        try:
            backend.run(45.0)
            assert left, "no joined peer at t=40"
            assert backend.system.get_node(left["id"]) is None
            assert left["ref"]() is None
        finally:
            backend.close()

    def test_a_zapping_audience_holds_only_live_peers(self):
        """Three channels, 150 viewers arriving in the first minute, a
        quarter zapping after 90 s (seed 11): at t=600 the heap holds
        exactly the live peers and servers, 100 of them (it held 186 when
        the viewers' events and ``viewer.node`` kept departed sessions)."""
        dep = MultiChannelDeployment(3, SystemConfig(n_servers=2), seed=11)
        times = np.sort(np.random.default_rng(11).uniform(0.0, 60.0, 150))
        audience = ChannelAudience(dep, arrival_times=times,
                                   zap_probability=0.25, zap_after_s=90.0)
        dep.run(until=600.0)
        held = {id(o) for o in gc.get_objects()
                if isinstance(o, PeerNode) and o.system in dep.channels}
        live = {id(n) for ch in dep.channels
                for n in ch.all_streaming_nodes()}
        assert audience.zap_count > 0
        assert sum(ch.sessions_spawned for ch in dep.channels) > len(live)
        assert held == live
