"""Failure-injection tests: the system must degrade, not break.

Scenarios: dedicated-server death mid-stream, mass abrupt peer failure,
a saturated partner set, malformed log traffic, and pathological configs.
"""

import pytest

from repro.core.config import SystemConfig
from repro.core.node import NodeState
from repro.core.system import CoolstreamingSystem
from repro.network.connectivity import ConnectivityClass
from repro.telemetry.reports import LeaveReason


class TestServerDeath:
    def test_peers_survive_losing_one_server(self, small_cfg):
        """With 2 servers, killing one mid-broadcast must not collapse the
        overlay: children re-select onto the survivor or onto peers."""
        system = CoolstreamingSystem(small_cfg, seed=13)
        nodes = []
        for u in range(15):
            system.engine.schedule(
                u * 1.5, lambda u=u: nodes.append(system.spawn_peer(user_id=u))
            )
        system.run(until=120.0)
        victim = system.servers[0]
        # simulate a server crash: it stops pushing and answering
        victim.state = NodeState.LEFT
        victim.scheduler.drop_child  # (object stays; alive() is now False)
        system.run(until=300.0)
        playing = [n for n in nodes if n.alive and n.state is NodeState.PLAYING]
        assert len(playing) >= 0.6 * sum(1 for n in nodes if n.alive)

    def test_all_servers_dead_strands_late_joiners(self, small_cfg):
        system = CoolstreamingSystem(small_cfg, seed=13)
        for server in system.servers:
            server.state = NodeState.LEFT
        node = system.spawn_peer(user_id=0)
        system.run(until=small_cfg.join_patience_s + 60.0)
        assert node.state is NodeState.LEFT  # gave up, did not hang


class TestMassChurn:
    def test_half_the_overlay_vanishes_silently(self, small_cfg):
        system = CoolstreamingSystem(small_cfg, seed=17)
        nodes = []
        for u in range(20):
            system.engine.schedule(
                u * 1.0, lambda u=u: nodes.append(system.spawn_peer(user_id=u))
            )
        system.run(until=120.0)
        alive = [n for n in nodes if n.alive]
        for node in alive[::2]:
            node.leave(LeaveReason.FAILURE, silent=True)
        system.run(until=360.0)
        survivors = [n for n in nodes if n.alive]
        playing = [n for n in survivors if n.state is NodeState.PLAYING]
        assert survivors
        assert len(playing) >= 0.7 * len(survivors)
        # silent victims' partnerships were garbage-collected via timeouts
        for n in playing:
            for pid in n.partners.ids():
                peer = system.get_node(pid)
                assert peer is not None and peer.alive


class TestHostileInput:
    def test_log_server_survives_garbage(self):
        from repro.telemetry.server import LogServer

        server = LogServer()
        for junk in ("", "GET /", "/log", "/log?", "???", "/log?type=act"):
            assert not server.receive(0.0, junk)
        # the last one decodes as a dict but is not a report: dropped at
        # the door too, or the next analysis pass would die on it
        assert server.malformed_count == 6
        assert len(server) == 0

    def test_unknown_report_type_fails_loudly_at_parse(self):
        from repro.telemetry.server import LogServer

        from repro.telemetry.server import LogEntry

        line = "/log?type=alien&t=1"
        with pytest.raises(ValueError, match="unknown report type"):
            LogEntry(0.0, line).parse()
        # ... which is the check the server runs at the door
        server = LogServer()
        assert not server.receive(0.0, line)
        assert server.malformed_count == 1
        assert list(server.reports()) == []

    def test_rpc_to_never_existing_node(self, small_system):
        small_system.rpc(0, 999999, "rpc_bm_update", 0, None)
        small_system.run(until=5.0)  # silently dropped


class TestPathologicalConfigs:
    def test_single_substream_system_works(self):
        cfg = SystemConfig(n_servers=2, n_substreams=1)
        system = CoolstreamingSystem(cfg, seed=3)
        nodes = [system.spawn_peer(user_id=0)]
        system.run(until=120.0)
        assert nodes[0].state is NodeState.PLAYING

    def test_many_substreams_system_works(self):
        cfg = SystemConfig(n_servers=2, n_substreams=8)
        system = CoolstreamingSystem(cfg, seed=3)
        node = system.spawn_peer(user_id=0)
        system.run(until=120.0)
        assert node.state is NodeState.PLAYING

    def test_tiny_buffer_still_joins(self):
        cfg = SystemConfig(n_servers=2, buffer_seconds=20.0, tp_seconds=8.0,
                           player_buffer_s=5.0)
        system = CoolstreamingSystem(cfg, seed=3)
        node = system.spawn_peer(user_id=0)
        system.run(until=120.0)
        assert node.state is NodeState.PLAYING

    def test_nat_only_population_mostly_fails(self):
        """With every peer behind NAT and tiny server fleet, late joiners
        cannot find partners once the servers saturate -- the system sheds
        load instead of wedging."""
        from repro.network.connectivity import ConnectivityMix

        cfg = SystemConfig(n_servers=1, server_max_partners=4,
                           nat_traversal_prob=0.0)
        system = CoolstreamingSystem(
            cfg, seed=3,
            connectivity_mix=ConnectivityMix(
                fractions={ConnectivityClass.NAT: 1.0}
            ),
        )
        nodes = []
        for u in range(20):
            system.engine.schedule(
                u * 0.5, lambda u=u: nodes.append(system.spawn_peer(user_id=u))
            )
        system.run(until=300.0)
        # engine terminates, some succeeded, the rest left impatient
        assert all(not n.alive or n.state is not NodeState.INIT for n in nodes)
        left = [n for n in nodes if not n.alive]
        assert left  # shedding happened
