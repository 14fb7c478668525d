"""Tests for the join-funnel analysis and figure exports."""

import json

import pytest

from repro.analysis.funnel import JoinFunnel
from repro.analysis.streaming import JoinFunnelFold, fold_log
from repro.experiments.render import FigureResult
from repro.telemetry.reports import ActivityEvent, ActivityReport, LeaveReason
from repro.telemetry.server import LogServer


def session(server, sid, events):
    for event, t in events:
        server.receive_report(t, ActivityReport(
            time=t, node_id=sid, user_id=sid, session_id=sid,
            event=event,
            reason=LeaveReason.NORMAL if event is ActivityEvent.LEAVE else None,
        ))


class TestJoinFunnel:
    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            JoinFunnel(joined=1, subscribed=2, ready=0, completed=0)

    def test_rows_table(self):
        f = JoinFunnel(joined=4, subscribed=2, ready=1, completed=1)
        rows = f.rows()
        assert rows[0] == ("join", 4, "100.0%")
        assert rows[2] == ("player-ready", 1, "25.0%")

    def test_from_log(self):
        server = LogServer()
        # full normal session
        session(server, 1, [
            (ActivityEvent.JOIN, 0.0),
            (ActivityEvent.START_SUBSCRIPTION, 2.0),
            (ActivityEvent.PLAYER_READY, 10.0),
            (ActivityEvent.LEAVE, 100.0),
        ])
        # stalled in buffering
        session(server, 2, [
            (ActivityEvent.JOIN, 0.0),
            (ActivityEvent.START_SUBSCRIPTION, 2.0),
            (ActivityEvent.LEAVE, 40.0),
        ])
        # never subscribed
        session(server, 3, [(ActivityEvent.JOIN, 0.0)])
        (f,) = fold_log(server, JoinFunnelFold())
        assert (f.joined, f.subscribed, f.ready, f.completed) == (3, 2, 1, 1)

    def test_real_run_funnel_sane(self, populated_system):
        (f,) = fold_log(populated_system.log, JoinFunnelFold())
        assert f.joined >= 15
        assert 0.5 * f.joined <= f.ready <= f.subscribed <= f.joined


class TestFigureExports:
    def make(self):
        fr = FigureResult("Fig. T", "Test figure")
        fr.metrics["alpha"] = 1.5
        fr.metrics["beta"] = 0.25
        fr.note("a note")
        return fr

    def test_to_dict_schema(self):
        d = self.make().to_dict()
        assert d["figure_id"] == "Fig. T"
        assert d["metrics"]["alpha"] == 1.5
        assert d["notes"] == ["a note"]

    def test_to_json_roundtrip(self):
        back = json.loads(self.make().to_json())
        assert back["metrics"]["beta"] == 0.25
