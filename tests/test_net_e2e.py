"""End-to-end runs of the socket backend, plus registry and exit codes.

These deploy a real (localhost) Coolstreaming network: a coordinator
process-internal to the backend, dedicated servers, and user peers
exchanging wire frames over TCP.  Wall time is bounded by running tiny
audiences at a high virtual-time scale.
"""

import socket
from collections import Counter

import pytest

from repro.core.config import SystemConfig
from repro.core.node import LeaveReason
from repro.net.backend import NetBackend
from repro.net.codec import MsgType
from repro.net.config import NetConfig
from repro.net.peer import NetPeer
from repro.net.transport import NetStats
from repro.runtime.backends import (
    BackendStartupError,
    DetailedBackend,
    FluidBackend,
    available_engines,
    resolve_backend,
)
from repro.runtime.driver import sample_workload
from repro.workload.scenarios import uniform_ramp


def tiny_scenario(n_users=14, horizon_s=180.0):
    cfg = SystemConfig().with_overrides(status_report_period_s=30.0)
    return uniform_ramp(n_users=n_users, horizon_s=horizon_s,
                        n_servers=2, cfg=cfg)


def net_backend(scenario, seed=0, **net_kw):
    """A NetBackend with the scenario's workload staged (fast clock)."""
    net_kw.setdefault("time_scale", 40.0)
    backend = NetBackend(scenario, seed=seed, net=NetConfig(**net_kw))
    workload = sample_workload(scenario, seed)
    backend.apply_workload(workload.times, workload.durations)
    for time_s, prob in workload.endings:
        backend.add_program_ending(time_s, prob)
    return backend


class TestNetEndToEnd:
    def test_sixteen_node_deployment(self):
        scenario = tiny_scenario(n_users=14)  # + 2 servers = 16 nodes
        backend = net_backend(scenario, seed=0)
        try:
            backend.run(scenario.horizon_s)
        finally:
            backend.close()

        # the deployment-side ground truth
        metrics = backend.snapshot_metrics()
        assert metrics["sessions_spawned"] >= 14
        assert metrics["net.messages_sent"] > 0
        assert metrics["net.frames_rejected"] == 0

        # the coordinator's log is non-empty and feeds the existing
        # analysis folds: session + continuity figure reconstruction
        assert len(backend.log) > 0
        from repro.analysis.streaming import (
            ConcurrentUsersFold,
            ContinuitySamplesFold,
            SessionTableFold,
            fold_log,
        )

        table, cont, (grid, counts) = fold_log(
            backend.log, SessionTableFold(), ContinuitySamplesFold(),
            ConcurrentUsersFold())
        sessions = table._sessions
        assert len(sessions) >= 14
        assert all(s.join_time is not None for s in sessions.values())
        assert any(s.ready_time is not None for s in sessions.values())
        assert len(cont) > 0
        assert all(0.0 <= c <= 1.0 for _, _, c in cont)
        assert counts.max() >= 10

    def test_kill_one_peer_partners_recover(self):
        scenario = tiny_scenario(n_users=10)
        backend = net_backend(scenario, seed=0)
        killed = []

        def kill_one(system):
            candidates = [p for p in system.peers() if p.partners.ids()]
            if candidates:
                victim = max(candidates, key=lambda p: len(p.partners.ids()))
                killed.append((victim.node_id, set(victim.partners.ids())))
                victim.leave(LeaveReason.FAILURE, silent=True)

        backend.at(90.0, kill_one)
        try:
            backend.run(scenario.horizon_s)
        finally:
            backend.close()

        assert killed, "no partnered peer existed at kill time"
        victim_id, victim_partners = killed[0]
        system = backend.system

        # the victim is gone (freed from the registry) and every surviving
        # ex-partner noticed the dead TCP connection: nobody still lists it
        # as a partner
        assert system.get_node(victim_id) is None
        for node in system._nodes.values():
            if node.node_id != victim_id and node.alive:
                assert victim_id not in node.partners.ids()

        # the run completed and the audience recovered (the victim's user
        # retried, so the deployment spawned more sessions than users)
        metrics = backend.snapshot_metrics()
        assert metrics["sessions_spawned"] > 10
        assert metrics["concurrent_users"] >= 9


class TestLeaveNotifiesPartners:
    @pytest.mark.parametrize("silent", [False, True],
                             ids=["graceful", "silent"])
    def test_partner_close_frames(self, monkeypatch, silent):
        """A graceful leave sends each partner one PARTNER_CLOSE frame, as
        the simulator's ``rpc`` delivers one ``rpc_partner_close`` call; a
        silent leave sends none."""
        closes = []
        on_frame = NetPeer._on_frame

        def counting(self, link, msg_type, payload):
            if msg_type is MsgType.PARTNER_CLOSE:
                closes.append((link.remote_id, self.node_id))
            on_frame(self, link, msg_type, payload)

        monkeypatch.setattr(NetPeer, "_on_frame", counting)
        scenario = tiny_scenario(n_users=6, horizon_s=120.0)
        backend = net_backend(scenario, seed=0)
        left = {}

        def leave_one(system):
            victim = max(system.peers(), key=lambda p: len(p.partners.ids()))
            left["id"] = victim.node_id
            left["partners"] = set(victim.partners.ids())
            victim.leave(LeaveReason.NORMAL, silent=silent)

        backend.at(40.0, leave_one)
        try:
            backend.run(45.0)
        finally:
            backend.close()

        assert left["partners"], "the leaver had no partner at t=40"
        sent = Counter(dst for src, dst in closes if src == left["id"])
        expected = {} if silent else dict.fromkeys(left["partners"], 1)
        assert sent == expected


class TestNetBackendLifecycle:
    """``net`` stages and reports exactly as ``detailed`` does."""

    def test_metric_keys_are_detaileds_plus_the_transport_counters(self):
        scenario = tiny_scenario(n_users=4, horizon_s=60.0)
        workload = sample_workload(scenario, 0)
        net_keys = set(NetStats().as_dict())
        for materialized in (False, True):
            backends = (DetailedBackend(scenario, seed=0),
                        NetBackend(scenario, seed=0))
            for backend in backends:
                backend.apply_workload(workload.times, workload.durations)
                if materialized:
                    backend.materialize()
            detailed, net = (set(b.snapshot_metrics()) for b in backends)
            assert ("adaptations" in detailed) is materialized
            assert net == detailed | net_keys
            assert not detailed & net_keys

    def test_staging_guards(self):
        backend = net_backend(tiny_scenario(n_users=4, horizon_s=60.0))
        workload = sample_workload(backend.scenario, 0)
        with pytest.raises(RuntimeError, match="already applied"):
            backend.apply_workload(workload.times, workload.durations)
        backend.add_program_ending(30.0, 0.5)
        try:
            backend.run(5.0)
            with pytest.raises(RuntimeError, match="after run"):
                backend.add_program_ending(40.0, 0.5)
        finally:
            backend.close()


class TestLogOrder:
    def test_an_out_of_order_in_memory_log_is_rebuilt_sorted(self,
                                                             monkeypatch):
        # frames from independent connections land slightly out of order;
        # the backend rebuilds its in-memory log in arrival order, stable
        # among entries whose .3f times tie
        from repro.telemetry.reports import QoSReport
        from repro.telemetry.sink import SPILL_ENV_VAR, MemorySink

        monkeypatch.delenv(SPILL_ENV_VAR, raising=False)
        backend = NetBackend(tiny_scenario(), seed=0)
        log = backend.system.log
        log.sink = MemorySink(lines_per_chunk=2)
        for node_id, arrival in enumerate((3.0, 1.0, 2.0004, 2.0001, 0.5)):
            log.receive_report(arrival, QoSReport(
                time=arrival, node_id=node_id, user_id=0, session_id=0))
        backend._order_log()
        assert backend.log is log and isinstance(log.sink, MemorySink)
        assert log.sink.lines_per_chunk == 2
        assert [r.node_id for r in log.reports()] == [4, 1, 2, 3, 0]
        assert [e.arrival_time for e in log.iter_entries()] == \
               [0.5, 1.0, 2.0, 2.0, 3.0]
        log.receive_report(4.0, QoSReport(time=4.0, node_id=5, user_id=0,
                                          session_id=0))
        assert len(log) == 6

    def test_an_ordered_log_is_left_as_it_is(self, monkeypatch):
        from repro.telemetry.reports import QoSReport
        from repro.telemetry.sink import SPILL_ENV_VAR

        monkeypatch.delenv(SPILL_ENV_VAR, raising=False)
        backend = NetBackend(tiny_scenario(), seed=0)
        log = backend.system.log
        for node_id, arrival in enumerate((0.5, 1.0, 1.0, 2.0)):
            log.receive_report(arrival, QoSReport(
                time=arrival, node_id=node_id, user_id=0, session_id=0))
        sink = log.sink
        backend._order_log()
        assert log.sink is sink and len(log) == 4

    def test_a_closed_log_stays_closed(self, monkeypatch):
        from repro.telemetry.reports import QoSReport
        from repro.telemetry.sink import SPILL_ENV_VAR

        monkeypatch.delenv(SPILL_ENV_VAR, raising=False)
        backend = NetBackend(tiny_scenario(), seed=0)
        log = backend.system.log
        for arrival in (2.0, 1.0):
            log.receive_report(arrival, QoSReport(
                time=arrival, node_id=1, user_id=0, session_id=0))
        log.close()
        backend._order_log()
        assert [e.arrival_time for e in log.iter_entries()] == [1.0, 2.0]
        with pytest.raises(ValueError, match="closed"):
            log.receive_report(3.0, QoSReport(time=3.0, node_id=1,
                                              user_id=0, session_id=0))


class TestBackendRegistry:
    def test_net_engine_registered(self):
        assert set(available_engines()) >= {"detailed", "fast", "net"}

    def test_resolution(self):
        assert resolve_backend("detailed") is DetailedBackend
        assert resolve_backend("fast") is FluidBackend
        assert resolve_backend("net") is NetBackend  # lazy spec resolved

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_backend("warp")

    def test_campaign_spec_accepts_net(self):
        from repro.campaign.spec import CampaignSpec

        spec = CampaignSpec.from_dict(
            {"name": "x",
             "entries": [{"experiment": "fig3", "engine": "net"}]},
            code_version=None)
        assert spec.runs[0].overrides == {"engine": "net"}


class TestStartupFailureExitCodes:
    def test_port_in_use_raises_startup_error(self):
        blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        busy_port = blocker.getsockname()[1]
        try:
            scenario = tiny_scenario(n_users=2, horizon_s=60.0)
            backend = net_backend(scenario, seed=0, port=busy_port)
            with pytest.raises(BackendStartupError, match="cannot bind"):
                backend.run(scenario.horizon_s)
            backend.close()
        finally:
            blocker.close()

    def test_parity_cli_maps_startup_error_to_exit_1(self, monkeypatch, capsys):
        import repro.runtime.parity as parity
        from repro.experiments.cli import main as repro_main

        def boom(*args, **kwargs):
            raise BackendStartupError("port 9 already in use")

        monkeypatch.setattr(parity, "run_parity_suite", boom)
        assert repro_main(["parity", "--scenario", "steady_audience"]) == 1
        assert "backend startup" in capsys.readouterr().err

    def test_run_cli_maps_startup_error_to_exit_1(self, monkeypatch, capsys):
        from repro.experiments import cli

        def boom(seed, jobs=1, engine=None):
            raise BackendStartupError("coordinator unreachable")

        monkeypatch.setitem(cli.EXPERIMENTS, "fig3", boom)
        assert cli.main(["fig3"]) == 1
        assert "backend startup" in capsys.readouterr().err

    def test_parity_cli_rejects_unknown_engines(self, capsys):
        from repro.experiments.cli import main as repro_main

        assert repro_main(["parity", "--engines", "detailed,warp"]) == 2

    def test_parity_cli_rejects_single_engine(self, capsys):
        from repro.experiments.cli import main as repro_main

        assert repro_main(["parity", "--engines", "detailed"]) == 2

    def test_run_cli_rejects_unknown_engine(self, capsys):
        from repro.experiments.cli import main as repro_main

        assert repro_main(["fig3", "--engine", "warp"]) == 2
