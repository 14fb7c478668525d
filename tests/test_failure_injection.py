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


class TestDamagedSpillThroughReports:
    """``LogReader.reports()`` goes from chunk lines to reports without a
    ``LogEntry`` per line; damage must surface through it exactly as it
    does through ``iter_entries()`` + ``parse()``."""

    N, PER_CHUNK = 25, 10

    @pytest.fixture
    def spill(self, tmp_path):
        from repro.telemetry.reports import QoSReport, TrafficReport
        from repro.telemetry.server import LogServer
        from repro.telemetry.sink import SpillSink

        server = LogServer(sink=SpillSink(
            tmp_path / "log", lines_per_chunk=self.PER_CHUNK, compress=False))
        for i in range(self.N):
            cls = QoSReport if i % 2 else TrafficReport
            server.receive_report(i * 0.5, cls(
                time=i * 0.5, node_id=i, user_id=i, session_id=i))
        server.flush()
        return tmp_path / "log"

    @staticmethod
    def _both_ways(directory):
        """(reports seen, error) through ``reports()`` and through
        ``iter_entries()`` + ``parse()``."""
        from repro.telemetry.sink import LogReader

        def drain(stream):
            seen = []
            try:
                for report in stream:
                    seen.append(report)
            except ValueError as exc:
                return seen, (type(exc), str(exc))
            return seen, None

        reader = LogReader(directory)
        direct = drain(reader.reports())
        by_entry = drain(e.parse() for e in reader.iter_entries())
        assert direct == by_entry
        return direct

    def test_truncated_gzip_member(self, tmp_path):
        from repro.telemetry.reports import QoSReport
        from repro.telemetry.server import LogServer
        from repro.telemetry.sink import SpillSink

        server = LogServer(sink=SpillSink(tmp_path / "gz", lines_per_chunk=10))
        for i in range(25):
            server.receive_report(float(i), QoSReport(
                time=float(i), node_id=i, user_id=i, session_id=i))
        server.flush()
        chunk = tmp_path / "gz" / "chunk-000001.log.gz"
        chunk.write_bytes(chunk.read_bytes()[:-12])
        seen, (kind, message) = self._both_ways(tmp_path / "gz")
        assert kind is ValueError and chunk.name in message
        assert "spill chunk" in message
        assert 10 <= len(seen) < 20   # the healthy chunk streamed first

    def test_chunk_one_line_short_of_its_manifest_count(self, spill):
        chunk = spill / "chunk-000000.log"
        lines = chunk.read_text().splitlines(keepends=True)
        chunk.write_text("".join(lines[:-1]))
        seen, (kind, message) = self._both_ways(spill)
        assert kind is ValueError and chunk.name in message
        assert "holds 9 lines, manifest says 10" in message
        assert len(seen) == 9

    def test_non_numeric_arrival_stamp(self, spill):
        chunk = spill / "chunk-000001.log"
        lines = chunk.read_text().splitlines(keepends=True)
        lines[4] = "half-past " + lines[4].partition(" ")[2]
        chunk.write_text("".join(lines))
        seen, (kind, message) = self._both_ways(spill)
        assert kind is ValueError and chunk.name in message
        assert len(seen) == self.PER_CHUNK + 4

    def test_garbage_log_string_in_a_stored_line(self, spill):
        # the door validates what it stores; a line edited on disk reaches
        # the parser, which raises its own error (no chunk name, as today)
        chunk = spill / "chunk-000002.log"
        lines = chunk.read_text().splitlines(keepends=True)
        lines[1] = "11.000 /log?type=alien&t=1\n"
        chunk.write_text("".join(lines))
        seen, (kind, message) = self._both_ways(spill)
        assert kind is ValueError and "unknown report type" in message
        assert len(seen) == 2 * self.PER_CHUNK + 1

    def test_blank_lines_are_skipped_and_not_counted(self, spill):
        from repro.telemetry.sink import LogReader

        expected = list(LogReader(spill).reports())
        chunk = spill / "chunk-000000.log"
        chunk.write_text("\n" + chunk.read_text().replace("\n", "\n  \n"))
        seen, error = self._both_ways(spill)
        assert error is None
        assert seen == expected and len(seen) == self.N


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
