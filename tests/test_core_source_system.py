"""Tests for source, dedicated servers, bootstrap and system wiring."""

import pytest

from repro.core.config import SystemConfig
from repro.core.node import NodeState, PeerNode
from repro.core.source import SOURCE_ID
from repro.core.system import CoolstreamingSystem
from repro.network.connectivity import ConnectivityClass


class TestSource:
    def test_source_heads_track_live_edge(self, small_system):
        small_system.run(until=100.0)
        heads = small_system.source.heads
        assert all(h == heads[0] for h in heads)
        assert heads[0] == pytest.approx(99, abs=1)

    def test_only_servers_may_subscribe_to_source(self, small_system):
        node = small_system.spawn_peer(user_id=0)
        before = small_system.source.scheduler.substream_degree
        small_system.source.rpc_subscribe(node.node_id, 0, 0)
        assert small_system.source.scheduler.substream_degree == before

    def test_servers_track_source(self, small_system):
        small_system.run(until=60.0)
        for server in small_system.servers:
            assert min(server.heads) >= small_system.source.heads[0] - 5

    def test_servers_never_leave(self, small_system):
        small_system.run(until=120.0)
        for server in small_system.servers:
            assert server.alive
            assert server.state is NodeState.PLAYING

    def test_server_count_matches_config(self, small_cfg):
        system = CoolstreamingSystem(small_cfg, seed=0)
        assert len(system.servers) == small_cfg.n_servers

    def test_source_not_droppable_from_server(self, small_system):
        server = small_system.servers[0]
        server._drop_partner(SOURCE_ID, notify=False)
        assert all(p == SOURCE_ID for p in server.parents)


class TestBootstrap:
    def test_registration_lifecycle(self, small_system):
        node = small_system.spawn_peer(user_id=0)
        assert small_system.bootstrap.active_count == 2 + 1  # servers + peer
        from repro.telemetry.reports import LeaveReason
        node.leave(LeaveReason.NORMAL)
        assert small_system.bootstrap.active_count == 2

    def test_sample_always_contains_a_server(self, small_system):
        for u in range(10):
            small_system.spawn_peer(user_id=u)
        sample = small_system.bootstrap.sample_for(requester_id=9999)
        classes = {e.connectivity for e in sample}
        assert ConnectivityClass.SERVER in classes

    def test_sample_excludes_requester(self, small_system):
        node = small_system.spawn_peer(user_id=0)
        sample = small_system.bootstrap.sample_for(node.node_id)
        assert node.node_id not in {e.node_id for e in sample}

    def test_sample_size_bounded(self, small_system):
        for u in range(30):
            small_system.spawn_peer(user_id=u)
        sample = small_system.bootstrap.sample_for(requester_id=9999)
        assert len(sample) <= small_system.cfg.bootstrap_sample

    def test_empty_overlay_sample(self, small_cfg):
        system = CoolstreamingSystem(
            small_cfg.with_overrides(n_servers=0), seed=0
        )
        assert system.bootstrap.sample_for(1) == []

    def test_join_counter(self, small_system):
        for u in range(5):
            small_system.spawn_peer(user_id=u)
        assert small_system.bootstrap.join_count == 5


class TestSystemWiring:
    def test_rpc_reaches_destination_after_latency(self, small_system,
                                                    monkeypatch):
        node = small_system.spawn_peer(user_id=0)
        seen = []
        # PeerNode is slotted: the probe method goes on the class
        monkeypatch.setattr(
            PeerNode, "rpc_probe",
            lambda self, x: seen.append((small_system.engine.now, x)),
            raising=False)
        small_system.rpc(SOURCE_ID, node.node_id, "rpc_probe", 42)
        assert seen == []  # not synchronous
        small_system.run(until=1.0)
        assert len(seen) == 1
        assert seen[0][0] > 0.0
        assert seen[0][1] == 42

    def test_rpc_to_dead_node_dropped(self, small_system):
        from repro.telemetry.reports import LeaveReason

        node = small_system.spawn_peer(user_id=0)
        small_system.rpc(SOURCE_ID, node.node_id, "rpc_bm_update", 0, None)
        node.leave(LeaveReason.NORMAL)
        small_system.run(until=5.0)  # must not raise

    def test_rpc_unknown_method_ignored(self, small_system):
        node = small_system.spawn_peer(user_id=0)
        small_system.rpc(SOURCE_ID, node.node_id, "rpc_no_such_method")
        small_system.run(until=5.0)

    def test_peers_view_excludes_servers(self, populated_system):
        peers = populated_system.peers()
        assert all(not p.is_server for p in peers)

    def test_concurrent_users_counts_alive_peers(self, populated_system):
        assert populated_system.concurrent_users == len(
            populated_system.peers()
        )

    def test_parent_child_edges_consistent(self, populated_system):
        edges = populated_system.parent_child_edges()
        for parent, child, sub in edges:
            child_node = populated_system.get_node(child)
            assert child_node.parents[sub] == parent

    def test_summary_keys(self, populated_system):
        s = populated_system.summary()
        assert set(s) >= {
            "time", "concurrent_users", "playing", "mean_continuity",
            "sessions_spawned", "log_entries",
        }

    def test_deterministic_replay(self, small_cfg):
        def run_once():
            system = CoolstreamingSystem(small_cfg, seed=77)
            for u in range(10):
                system.engine.schedule(
                    u * 2.0, lambda u=u: system.spawn_peer(user_id=u)
                )
            system.run(until=200.0)
            return system.log.dumps()

        assert run_once() == run_once()

    def test_different_seeds_differ(self, small_cfg):
        def run_once(seed):
            system = CoolstreamingSystem(small_cfg, seed=seed)
            for u in range(10):
                system.engine.schedule(
                    u * 2.0, lambda u=u: system.spawn_peer(user_id=u)
                )
            system.run(until=200.0)
            return system.log.dumps()

        assert run_once(1) != run_once(2)

    def test_hundred_peers_reach_playback(self):
        """100 users 0.5 s apart for 5 simulated minutes, two servers:
        nearly all stream (measured: all 100)."""
        system = CoolstreamingSystem(SystemConfig(n_servers=2), seed=0)
        for u in range(100):
            system.engine.schedule(
                u * 0.5, lambda u=u: system.spawn_peer(user_id=u)
            )
        system.run(until=300.0)
        assert system.summary()["playing"] >= 90
