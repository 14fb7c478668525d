"""Tests for the log server and the client-side reporter."""

import io

import pytest

from repro.sim.engine import Engine
from repro.telemetry.reporter import NodeReporter
from repro.telemetry.reports import (
    ActivityEvent,
    ActivityReport,
    PartnerOp,
    PartnerReport,
    QoSReport,
    TrafficReport,
)
from repro.telemetry.server import LogEntry, LogServer


def mk_status(now=0.0):
    header = dict(time=now, node_id=1, user_id=1, session_id=1)
    return (
        QoSReport(**header, continuity=0.99),
        TrafficReport(**header, bytes_up=1, bytes_down=2),
        PartnerReport(**header),
    )


#: lines that pass the log-string codec but are not reports
NOT_REPORTS = (
    "/log?foo=bar",                                    # no type
    "/log?type=alien&t=1",                             # unknown type
    "/log?type=act&t=x&node=1&user=1&sess=1&ev=join",  # bad number
    "/log?type=act&t=1&node=1&user=1&sess=1&ev=nap",   # bad enum
    "/log?type=act&t=1&node=1",                        # fields missing
    "/log?type=qos&t=1&node=1&user=1&sess=1&buf=zz",
    "/log?type=traf&t=1&node=1&user=1&sess=1&up=1",
    "/log?type=part&t=1&node=1&user=1&sess=1&pev=1.0%3Aa%3A7",  # short token
    "/log?type=qos&t=1&node=1&user=1&sess=1&play=yes",          # not a flag
    "/log?type=act&t=1&node=1&user=1&sess=1&ev=join&pub=2",
    "/log?type=part&t=1&node=1&user=1&sess=1&np=1&nin=0&nout=1"
    "&pev=1.0%3Aa%3A7%3Aq",                                     # direction
)


class TestLogServer:
    def test_receive_valid_string(self):
        server = LogServer()
        assert server.receive(1.0, "/log?type=act&t=1&node=1&user=1&sess=1&ev=join")
        assert len(server) == 1

    def test_malformed_counted_not_stored(self):
        server = LogServer()
        assert not server.receive(1.0, "GET /favicon.ico")
        assert len(server) == 0
        assert server.malformed_count == 1

    @pytest.mark.parametrize("line", NOT_REPORTS)
    def test_receive_drops_lines_that_are_not_reports(self, line):
        # the line URL-decodes, so it used to be stored -- and the next
        # reports()/fold_log pass over the log died on it
        server = LogServer()
        server.receive_report(0.0, mk_status()[0])
        assert not server.receive(1.0, line)
        assert server.malformed_count == 1
        assert len(server) == 1
        assert [type(r) for r in server.reports()] == [QoSReport]

    def test_load_drops_lines_that_are_not_reports(self):
        good = mk_status()[1].to_log_string()
        text = "".join(f"1.0 {line}\n" for line in (*NOT_REPORTS, good))
        back = LogServer.loads(text)
        assert back.malformed_count == len(NOT_REPORTS)
        assert [type(r) for r in back.reports()] == [TrafficReport]

    def test_reports_parse_in_arrival_order(self):
        server = LogServer()
        server.receive_report(2.0, mk_status()[0])
        server.receive_report(1.0, mk_status()[1])
        reports = list(server.reports())
        assert isinstance(reports[0], QoSReport)
        assert isinstance(reports[1], TrafficReport)

    def test_reports_of_filters_type(self):
        server = LogServer()
        for r in mk_status():
            server.receive_report(0.0, r)
        assert len(list(server.reports_of(QoSReport))) == 1

    def test_dump_load_roundtrip(self):
        server = LogServer()
        for r in mk_status():
            server.receive_report(5.0, r)
        text = server.dumps()
        back = LogServer.loads(text)
        assert len(back) == len(server)
        assert [e.log_string for e in back.entries()] == [
            e.log_string for e in server.entries()
        ]

    def test_dump_line_format(self):
        entry = LogEntry(3.125, "/log?a=b")
        assert entry.to_line() == "3.125 /log?a=b"
        assert LogEntry.from_line(entry.to_line()) == entry

    def test_load_skips_blank_lines(self):
        line = mk_status()[0].to_log_string()
        back = LogServer.load(io.StringIO(f"\n1.0 {line}\n\n  \n"))
        assert len(back) == 1
        assert back.malformed_count == 0

    def test_merged_with_sorts_by_arrival(self):
        a, b = LogServer(), LogServer()
        a.receive_report(5.0, mk_status()[0])
        b.receive_report(2.0, mk_status()[1])
        merged = a.merged_with(b)
        assert [e.arrival_time for e in merged.entries()] == [2.0, 5.0]


class TestReporter:
    def make(self, engine, server, period=300.0, delay=0.05):
        return NodeReporter(
            engine, server, node_id=1, user_id=2, session_id=3,
            uplink_delay_s=delay, status_period_s=period,
        )

    def test_activity_arrives_after_uplink_delay(self):
        engine, server = Engine(), LogServer()
        rep = self.make(engine, server, delay=0.5)
        rep.activity(ActivityEvent.JOIN)
        assert len(server) == 0
        engine.run(until=1.0)
        assert len(server) == 1
        assert server.entries()[0].arrival_time == pytest.approx(0.5)

    def test_status_cadence(self):
        engine, server = Engine(), LogServer()
        rep = self.make(engine, server, period=100.0)
        rep.install_status_provider(lambda: mk_status(engine.now))
        engine.run(until=350.0)
        # three firings x three reports each
        assert len(server) == 9

    def test_leave_closes_reporter(self):
        engine, server = Engine(), LogServer()
        rep = self.make(engine, server, period=100.0)
        rep.install_status_provider(lambda: mk_status(engine.now))
        engine.schedule(150.0, lambda: rep.activity(ActivityEvent.LEAVE))
        engine.run(until=500.0)
        # one status firing (t=100) + the final flush at leave (t=150)
        # + the leave activity itself; nothing after close
        types = [type(r).__name__ for r in server.reports()]
        assert types.count("QoSReport") == 2
        assert types.count("ActivityReport") == 1

    def test_leave_flushes_final_status_before_leave_report(self):
        """A graceful leave ships the partial status window so the
        session's last minutes reach the server (unlike a FAILURE)."""
        engine, server = Engine(), LogServer()
        rep = self.make(engine, server, period=300.0)
        rep.install_status_provider(lambda: mk_status(engine.now))
        engine.schedule(150.0, lambda: rep.activity(ActivityEvent.LEAVE))
        engine.run(until=1000.0)
        types = [type(r).__name__ for r in server.reports()]
        # the cadence never fired (period 300 > leave at 150), yet the
        # status triple is present -- and it precedes the leave report
        assert types == [
            "QoSReport", "TrafficReport", "PartnerReport", "ActivityReport",
        ]

    def test_silent_close_loses_pending_window(self):
        """The Section V.D artefact: whatever happened since the last
        5-minute report never reaches the server after an abrupt death."""
        engine, server = Engine(), LogServer()
        rep = self.make(engine, server, period=300.0)
        rep.install_status_provider(lambda: mk_status(engine.now))
        engine.schedule(299.0, lambda: rep.close(silent=True))
        engine.run(until=1000.0)
        assert len(list(server.reports_of(QoSReport))) == 0

    def test_partner_event_buffer_drains(self):
        engine, server = Engine(), LogServer()
        rep = self.make(engine, server)
        rep.record_partner_event(PartnerOp.ADD, 9, incoming=True)
        rep.record_partner_event(PartnerOp.DROP, 9, incoming=True)
        events = rep.drain_partner_events()
        assert len(events) == 2
        assert rep.drain_partner_events() == ()

    def test_no_events_recorded_after_close(self):
        engine, server = Engine(), LogServer()
        rep = self.make(engine, server)
        rep.close(silent=True)
        rep.record_partner_event(PartnerOp.ADD, 9, incoming=False)
        assert rep.drain_partner_events() == ()

    def test_activity_after_close_is_dropped(self):
        engine, server = Engine(), LogServer()
        rep = self.make(engine, server)
        rep.close(silent=True)
        rep.activity(ActivityEvent.LEAVE)
        engine.run(until=10.0)
        assert len(server) == 0
