"""Round-trip tests for every report type."""

from urllib.parse import parse_qsl

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.logstring import decode_log_string, encode_log_string
from repro.telemetry.reports import (
    ActivityEvent,
    ActivityReport,
    LeaveReason,
    PartnerEvent,
    PartnerOp,
    PartnerReport,
    QoSReport,
    TrafficReport,
    parse_report,
)
from repro.telemetry.server import LogEntry


def roundtrip(report):
    return parse_report(decode_log_string(encode_log_string(report.to_params())))


class TestActivityReport:
    def test_join_roundtrip(self):
        r = ActivityReport(time=12.5, node_id=7, user_id=3, session_id=9,
                           event=ActivityEvent.JOIN, attempt=2,
                           address_public=False)
        assert roundtrip(r) == r

    def test_leave_with_reason_roundtrip(self):
        r = ActivityReport(time=99.0, node_id=7, user_id=3, session_id=9,
                           event=ActivityEvent.LEAVE,
                           reason=LeaveReason.PROGRAM_END)
        back = roundtrip(r)
        assert back.reason is LeaveReason.PROGRAM_END

    @pytest.mark.parametrize("event", list(ActivityEvent))
    def test_all_events_roundtrip(self, event):
        r = ActivityReport(time=1.0, node_id=1, user_id=1, session_id=1,
                           event=event)
        assert roundtrip(r).event is event

    def test_time_precision_millisecond(self):
        r = ActivityReport(time=1.23456789, node_id=1, user_id=1,
                           session_id=1, event=ActivityEvent.JOIN)
        assert roundtrip(r).time == pytest.approx(1.235, abs=1e-9)


class TestQoSReport:
    def test_full_roundtrip(self):
        r = QoSReport(time=300.0, node_id=5, user_id=2, session_id=8,
                      continuity=0.98765, buffered_seconds=22.5, n_parents=4,
                      playing=True)
        back = roundtrip(r)
        assert back.continuity == pytest.approx(0.98765, abs=1e-4)
        assert back.buffered_seconds == pytest.approx(22.5)
        assert back.n_parents == 4
        assert back.playing

    def test_missing_continuity_roundtrip(self):
        r = QoSReport(time=300.0, node_id=5, user_id=2, session_id=8,
                      continuity=None)
        assert roundtrip(r).continuity is None

    def test_continuity_field_omitted_from_wire(self):
        r = QoSReport(time=1.0, node_id=1, user_id=1, session_id=1)
        assert "ci" not in r.to_params()


class TestTrafficReport:
    def test_roundtrip(self):
        r = TrafficReport(time=600.0, node_id=5, user_id=2, session_id=8,
                          bytes_up=1024.0, bytes_down=4096.0,
                          total_up=2048.0, total_down=8192.0)
        assert roundtrip(r) == r

    def test_bytes_rounded_to_integers(self):
        r = TrafficReport(time=1.0, node_id=1, user_id=1, session_id=1,
                          bytes_up=10.7, bytes_down=0.2)
        back = roundtrip(r)
        assert back.bytes_up == 11.0
        assert back.bytes_down == 0.0


class TestPartnerReport:
    def test_compact_event_encoding(self):
        ev = PartnerEvent(time=12.3, op=PartnerOp.ADD, partner_id=42,
                          incoming=True)
        assert ev.encode() == "12.3:a:42:i"
        assert PartnerEvent.decode(ev.encode()) == ev

    def test_report_with_events_roundtrip(self):
        events = (
            PartnerEvent(1.0, PartnerOp.ADD, 2, incoming=False),
            PartnerEvent(5.5, PartnerOp.DROP, 2, incoming=False),
            PartnerEvent(7.0, PartnerOp.ADD, 9, incoming=True),
        )
        r = PartnerReport(time=300.0, node_id=5, user_id=2, session_id=8,
                          events=events, n_partners=3, n_incoming=1,
                          n_outgoing=4)
        back = roundtrip(r)
        assert back.events == events
        assert back.n_incoming == 1

    def test_empty_events_roundtrip(self):
        r = PartnerReport(time=300.0, node_id=5, user_id=2, session_id=8)
        assert roundtrip(r).events == ()

    def test_pev_field_omitted_when_empty(self):
        r = PartnerReport(time=1.0, node_id=1, user_id=1, session_id=1)
        assert "pev" not in r.to_params()


class TestDispatch:
    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            parse_report({"type": "mystery", "t": "1"})

    def test_missing_type_rejected(self):
        with pytest.raises(ValueError):
            parse_report({"t": "1"})

    @given(
        t=st.floats(min_value=0, max_value=1e6),
        node=st.integers(0, 10**6),
        user=st.integers(0, 10**6),
        sess=st.integers(0, 10**6),
        cont=st.none() | st.floats(min_value=0.0, max_value=1.0),
        parents=st.integers(0, 8),
        playing=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_qos_roundtrip(self, t, node, user, sess, cont,
                                    parents, playing):
        r = QoSReport(time=t, node_id=node, user_id=user, session_id=sess,
                      continuity=cont, n_parents=parents, playing=playing)
        back = roundtrip(r)
        assert back.node_id == node
        assert back.playing == playing
        if cont is None:
            assert back.continuity is None
        else:
            assert back.continuity == pytest.approx(cont, abs=1e-4)


class TestFastWireEncoding:
    """`to_log_string` fast paths must be bit-identical to the codec."""

    REPORTS = [
        ActivityReport(time=12.5, node_id=7, user_id=3, session_id=9,
                       event=ActivityEvent.JOIN, attempt=2,
                       address_public=False),
        ActivityReport(time=99.0, node_id=7, user_id=3, session_id=9,
                       event=ActivityEvent.LEAVE,
                       reason=LeaveReason.PROGRAM_END),
        QoSReport(time=300.0, node_id=5, user_id=2, session_id=8,
                  continuity=0.98765, buffered_seconds=22.5, n_parents=4,
                  playing=True),
        QoSReport(time=300.0, node_id=5, user_id=2, session_id=8,
                  continuity=None),
        TrafficReport(time=600.0, node_id=5, user_id=2, session_id=8,
                      bytes_up=123456.7, bytes_down=9.2,
                      total_up=1e9, total_down=2.5e9),
        PartnerReport(time=300.0, node_id=5, user_id=2, session_id=8,
                      n_partners=3, n_incoming=1, n_outgoing=2),
        PartnerReport(
            time=300.0, node_id=5, user_id=2, session_id=8,
            events=(PartnerEvent(time=10.0, op=PartnerOp.ADD,
                                 partner_id=42, incoming=True),
                    PartnerEvent(time=20.5, op=PartnerOp.DROP,
                                 partner_id=42, incoming=False)),
            n_partners=1),
    ]

    @pytest.mark.parametrize(
        "report", REPORTS, ids=lambda r: type(r).__name__)
    def test_matches_codec(self, report):
        assert report.to_log_string() == encode_log_string(report.to_params())

    @pytest.mark.parametrize(
        "report", REPORTS, ids=lambda r: type(r).__name__)
    def test_wire_round_trip(self, report):
        """Join and leave-with-``why``, QoS with and without ``ci``,
        partner with and without ``pev``: the stored line decodes to what
        ``parse_qsl`` makes of it and parses back to the report that the
        wire's rounding left."""
        wire = report.to_log_string()
        params = decode_log_string(wire)
        assert params == report.to_params()
        assert list(params.items()) == parse_qsl(
            wire.partition("?")[2], keep_blank_values=True)
        back = LogEntry(0.0, wire).parse()
        assert back == parse_report(report.to_params())
        assert type(back) is type(report)
        assert back.to_log_string() == wire

    @given(
        t=st.floats(min_value=0, max_value=1e6),
        user=st.integers(0, 10**6),
        attempt=st.integers(1, 9),
        event=st.sampled_from(list(ActivityEvent)),
        reason=st.none() | st.sampled_from(list(LeaveReason)),
        pub=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_activity_matches_codec(self, t, user, attempt, event,
                                             reason, pub):
        r = ActivityReport(time=t, node_id=user + 100_000, user_id=user,
                           session_id=user + 1, event=event, attempt=attempt,
                           address_public=pub, reason=reason)
        assert r.to_log_string() == encode_log_string(r.to_params())
