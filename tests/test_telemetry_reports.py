"""Round-trip tests for every report type."""

import dataclasses
from dataclasses import dataclass
from typing import ClassVar, Dict
from unittest import mock
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
    Report,
    TrafficReport,
    _wire_form,
    decode_report,
    parse_report,
)
from repro.telemetry.server import LogEntry, LogServer
from repro.telemetry.sink import MemorySink


# The parameter dict of each report class, and the report built back from
# one, written out by hand: an oracle that is not generated from the
# classes' wire tables, which the generated codecs are held to.

def to_params(report) -> Dict[str, str]:
    """Serialize to the flat ``name=value`` parameter dict."""
    params = {"type": report.TYPE, "t": f"{report.time:.3f}",
              "node": str(report.node_id), "user": str(report.user_id),
              "sess": str(report.session_id)}
    if isinstance(report, ActivityReport):
        params["ev"] = report.event.value
        params["try"] = str(report.attempt)
        params["pub"] = "1" if report.address_public else "0"
        if report.reason is not None:
            params["why"] = report.reason.value
    elif isinstance(report, QoSReport):
        if report.continuity is not None:
            params["ci"] = f"{report.continuity:.5f}"
        params["buf"] = f"{report.buffered_seconds:.2f}"
        params["par"] = str(report.n_parents)
        params["play"] = "1" if report.playing else "0"
    elif isinstance(report, TrafficReport):
        params["up"] = f"{report.bytes_up:.0f}"
        params["down"] = f"{report.bytes_down:.0f}"
        params["tup"] = f"{report.total_up:.0f}"
        params["tdown"] = f"{report.total_down:.0f}"
    else:
        params["np"] = str(report.n_partners)
        params["nin"] = str(report.n_incoming)
        params["nout"] = str(report.n_outgoing)
        if report.events:
            params["pev"] = "|".join(e.encode() for e in report.events)
    return params


def _flag(value: str) -> bool:
    return {"1": True, "0": False}[value]


def _events(value: str):
    events = []
    for token in value.split("|"):
        t, op, pid, d = token.split(":")
        events.append(PartnerEvent(time=float(t), op=PartnerOp(op),
                                   partner_id=int(pid),
                                   incoming={"i": True, "o": False}[d]))
    return tuple(events)


def from_params(p: Dict[str, str]):
    """Parse back from a decoded parameter dict, as ``parse_report``
    does: an unknown type or a missing or malformed field is a
    ``ValueError``."""
    try:
        header = dict(time=float(p["t"]), node_id=int(p["node"]),
                      user_id=int(p["user"]), session_id=int(p["sess"]))
        if p["type"] == "act":
            return ActivityReport(
                **header, event=ActivityEvent(p["ev"]),
                attempt=int(p.get("try", "1")),
                address_public=_flag(p.get("pub", "1")),
                reason=LeaveReason(p["why"]) if "why" in p else None)
        if p["type"] == "qos":
            return QoSReport(
                **header, continuity=float(p["ci"]) if "ci" in p else None,
                buffered_seconds=float(p.get("buf", "0")),
                n_parents=int(p.get("par", "0")),
                playing=_flag(p.get("play", "0")))
        if p["type"] == "traf":
            return TrafficReport(
                **header, bytes_up=float(p["up"]), bytes_down=float(p["down"]),
                total_up=float(p.get("tup", "0")),
                total_down=float(p.get("tdown", "0")))
        if p["type"] == "part":
            return PartnerReport(
                **header, events=_events(p["pev"]) if p.get("pev") else (),
                n_partners=int(p.get("np", "0")),
                n_incoming=int(p.get("nin", "0")),
                n_outgoing=int(p.get("nout", "0")))
    except KeyError as exc:
        raise ValueError(f"missing or malformed {exc}") from None
    raise ValueError(f"unknown report type {p['type']!r}")


def roundtrip(report):
    return parse_report(decode_log_string(encode_log_string(to_params(report))))


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
        assert "ci" not in decode_log_string(r.to_log_string())


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
        assert "pev" not in decode_log_string(r.to_log_string())


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


_INTS = st.integers(-10**12, 10**18)
_FLOATS = (st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from([0.0, 1.0, -0.0, 1e300, -1e300, 5e-4]))


def _batch_of(cls, time, rows, event, reason):
    """``cls.log_strings`` over the columns of ``rows``, and the report
    each row stands for."""
    width = {ActivityReport: 5, QoSReport: 7, TrafficReport: 7,
             PartnerReport: 6}[cls]
    columns = [list(c) for c in zip(*rows)] or [[] for _ in range(width)]
    if cls is ActivityReport:
        lines = cls.log_strings(time, *columns[:3], event, *columns[3:],
                                reason)
        reports = [cls(time, *row[:3], event, *row[3:], reason)
                   for row in rows]
    elif cls is PartnerReport:
        lines = cls.log_strings(time, *columns)
        reports = [cls(time, *row[:3], (), *row[3:]) for row in rows]
    else:
        lines = cls.log_strings(time, *columns)
        reports = [cls(time, *row) for row in rows]
    return lines, reports


_HEADER_ROW = (_INTS, _INTS, _INTS)
_ROWS = {
    ActivityReport: st.tuples(*_HEADER_ROW, _INTS, st.booleans()),
    QoSReport: st.tuples(*_HEADER_ROW, st.none() | _FLOATS, _FLOATS, _INTS,
                         st.booleans()),
    TrafficReport: st.tuples(*_HEADER_ROW, _FLOATS, _FLOATS, _FLOATS,
                             _FLOATS),
    PartnerReport: st.tuples(*_HEADER_ROW, _INTS, _INTS, _INTS),
}


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
        assert report.to_log_string() == encode_log_string(to_params(report))

    @pytest.mark.parametrize(
        "report", REPORTS, ids=lambda r: type(r).__name__)
    def test_wire_round_trip(self, report):
        """Join and leave-with-``why``, QoS with and without ``ci``,
        partner with and without ``pev``: the stored line decodes to what
        ``parse_qsl`` makes of it and parses back to the report that the
        wire's rounding left."""
        wire = report.to_log_string()
        params = decode_log_string(wire)
        assert params == to_params(report)
        assert list(params.items()) == parse_qsl(
            wire.partition("?")[2], keep_blank_values=True)
        back = LogEntry(0.0, wire).parse()
        assert back == parse_report(to_params(report))
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
        assert r.to_log_string() == encode_log_string(to_params(r))

    @pytest.mark.parametrize("cls", list(_ROWS), ids=lambda c: c.__name__)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_log_strings_render_each_row_as_its_report(self, cls, data):
        """Row ``i`` of ``log_strings`` is the codec's encoding of the
        report built from row ``i`` of the columns -- ``ci`` absent,
        ``nan``, ``inf``, ``-0.0``, 18-digit ints, bools -- and decodes,
        through the positional path, to what the wire keeps of it."""
        from repro.telemetry import reports as reports_mod

        time = data.draw(_FLOATS)
        rows = data.draw(st.lists(_ROWS[cls], max_size=6))
        event = data.draw(st.sampled_from(list(ActivityEvent)))
        reason = data.draw(st.none() | st.sampled_from(list(LeaveReason)))
        lines, reports = _batch_of(cls, time, rows, event, reason)
        assert len(lines) == len(reports) == len(rows)
        kept = [parse_report(to_params(r)) for r in reports]
        for line, report in zip(lines, reports):
            assert line == encode_log_string(to_params(report))
            assert line == report.to_log_string()
            assert cls._WIRE.fullmatch(line) is not None
        with mock.patch.object(reports_mod, "decode_log_string",
                               side_effect=AssertionError("general path")):
            decoded = [decode_report(line) for line in lines]
        assert [(type(r), repr(r)) for r in decoded] == \
            [(type(r), repr(r)) for r in kept]


def _general(log_string):
    """The general decode path, and the oracle for ``decode_report``."""
    return parse_report(decode_log_string(log_string))


def _outcome(decode, log_string):
    """What ``decode`` makes of a string: the report (by type and repr,
    so ``nan`` fields compare equal) or ``ValueError``; anything else
    propagates and fails the test."""
    try:
        report = decode(log_string)
    except ValueError:
        return ValueError
    return type(report), repr(report)


_HEADER = dict(time=_FLOATS, node_id=_INTS, user_id=_INTS, session_id=_INTS)
_PARTNER_EVENTS = st.lists(
    st.builds(PartnerEvent, time=st.floats(-1e9, 1e9),
              op=st.sampled_from(list(PartnerOp)), partner_id=_INTS,
              incoming=st.booleans()),
    max_size=4).map(tuple)
_REPORTS = st.one_of(
    st.builds(ActivityReport, **_HEADER,
              event=st.sampled_from(list(ActivityEvent)), attempt=_INTS,
              address_public=st.booleans(),
              reason=st.none() | st.sampled_from(list(LeaveReason))),
    st.builds(QoSReport, **_HEADER,
              continuity=st.none() | st.sampled_from([0.0, 1.0]) | _FLOATS,
              buffered_seconds=_FLOATS, n_parents=_INTS,
              playing=st.booleans()),
    st.builds(TrafficReport, **_HEADER, bytes_up=_FLOATS, bytes_down=_FLOATS,
              total_up=_FLOATS, total_down=_FLOATS),
    st.builds(PartnerReport, **_HEADER, events=_PARTNER_EVENTS,
              n_partners=_INTS, n_incoming=_INTS, n_outgoing=_INTS),
)

_STRAY_PIECES = ["x=1", "why=normal", "why=", "ci=0.5", "ci=", "pev=", "pev=1",
                 "type=qos", "type=", "t=7", "=", "=1", "", "try", "play=1"]
_JUNK_VALUES = st.text(alphabet="0123456789.-+enaif =?:|%x_", max_size=6)


@st.composite
def _adversarial(draw):
    """An emitted log string with one thing wrong with it (or, for a few
    mutations, merely unusual about it)."""
    wire = draw(_REPORTS).to_log_string()
    path, _, query = wire.partition("?")
    pieces = query.split("&")
    at = draw(st.integers(0, len(pieces) - 1))
    name, _, value = pieces[at].partition("=")
    mutation = draw(st.sampled_from([
        "reorder", "duplicate", "duplicate_other_value", "blank_value",
        "bare_name", "stray_piece", "missing_key", "wrong_path",
        "no_question_mark", "empty_query", "escaped_value", "plus_in_value",
        "junk_value", "trailing_separator"]))
    if mutation == "reorder":
        pieces = list(draw(st.permutations(pieces)))
    elif mutation == "duplicate":
        pieces.insert(draw(st.integers(0, len(pieces))), pieces[at])
    elif mutation == "duplicate_other_value":
        pieces.insert(draw(st.integers(0, len(pieces))),
                      f"{name}={draw(_JUNK_VALUES)}")
    elif mutation == "blank_value":
        pieces[at] = f"{name}="
    elif mutation == "bare_name":
        pieces[at] = name
    elif mutation == "stray_piece":
        pieces.insert(draw(st.integers(0, len(pieces))),
                      draw(st.sampled_from(_STRAY_PIECES)))
    elif mutation == "missing_key":
        del pieces[at]
    elif mutation == "wrong_path":
        path = draw(st.sampled_from(["/lag", "", "/log/", "log", "/LOG", "?"]))
    elif mutation == "empty_query":
        pieces = []
    elif mutation == "escaped_value":
        pieces[at] = name + "=" + "".join(f"%{ord(c):02X}" for c in value)
    elif mutation == "plus_in_value":
        pieces[at] = f"{name}={value}+"
    elif mutation == "junk_value":
        pieces[at] = f"{name}={draw(_JUNK_VALUES)}"
    elif mutation == "trailing_separator":
        pieces.append("")
    if mutation == "no_question_mark":
        return path + "&".join(pieces)
    return f"{path}?{'&'.join(pieces)}"


class TestPositionalDecoder:
    """``decode_report`` reads a canonical line's values by position; it
    must return -- or raise -- what the general path does, for every
    string, and the general path must remain where everything else goes."""

    @given(report=_REPORTS)
    @settings(max_examples=400, deadline=None)
    def test_emitted_reports_decode_as_the_general_path_does(self, report):
        wire = report.to_log_string()
        assert _outcome(decode_report, wire) == _outcome(_general, wire)
        assert type(LogEntry(0.0, wire).parse()) is type(report)

    @given(log_string=_adversarial())
    @settings(max_examples=1500, deadline=None)
    def test_adversarial_strings_decode_as_the_general_path_does(
            self, log_string):
        expected = _outcome(_general, log_string)
        assert _outcome(decode_report, log_string) == expected
        # ... and the door counts exactly what the general path rejects
        server = LogServer(sink=MemorySink())
        assert server.receive(0.0, log_string) == (expected is not ValueError)
        assert server.malformed_count == (expected is ValueError)
        assert len(server) == (expected is not ValueError)

    @given(log_string=st.text(alphabet="/log?type=qsacrfp&%+10.:|\n ",
                              max_size=60))
    @settings(max_examples=500, deadline=None)
    def test_arbitrary_text_decodes_as_the_general_path_does(self, log_string):
        assert _outcome(decode_report, log_string) == \
               _outcome(_general, log_string)

    @pytest.mark.parametrize("log_string", [
        "", "/log", "/log?", "/log?type=qos", "/log?type=qos&",
        "/log?type=act&t=1.000&node=1&user=1&sess=1&ev=join&try=1&pub=1&why=",
        "/log?type=act&t=1.000&node=1&user=1&sess=1&ev=join&try=1&pub=",
        "/log?type=act&t=1.000&node=1&user=1&sess=1&ev=join&try=&pub=1",
        "/log?type=qos&t=1.000&node=1&user=1&sess=1&ci=&buf=0&par=0&play=1",
        "/log?type=qos&t=1.000&node=1&user=1&sess=1&buf=&par=0&play=1",
        "/log?type=qos&t=1=2&node=1&user=1&sess=1&buf=1&par=0&play=1",
        "/log?type=qos&t=1.000&node=1&user=1&sess=1&buf=1&par=0&play=1\n",
        "/log?type=traf&t=nan&node=1&user=1&sess=1&up=inf&down=-inf"
        "&tup=1e999&tdown=-0",
        "/log?type=part&t=1.000&node= 1 &user=1_0&sess=+1&np=1&nin=1&nout=1",
        "/log?type=part&t=1.000&node=1&user=1&sess=1&np=1&nin=1&nout=1&pev=",
        "/log?type=part&t=1.000&node=1&user=1&sess=1&np=1&nin=1&nout=1"
        "&pev=1.0%3Aa%3A2%3Ai%7C2.0%3Ad%3A2",
        "/log?type=alien&t=1", "/log?t=1&type=qos", "/lag?type=qos&t=1",
    ])
    def test_edge_strings(self, log_string):
        assert _outcome(decode_report, log_string) == \
               _outcome(_general, log_string)

    @pytest.mark.parametrize(
        "report", TestFastWireEncoding.REPORTS, ids=lambda r: type(r).__name__)
    def test_only_canonical_lines_skip_the_parameter_dict(self, report,
                                                          monkeypatch):
        from repro.telemetry import reports as reports_mod

        wire = report.to_log_string()
        expected = _general(wire)

        def general_path_taken(_log_string):
            raise AssertionError("general path")

        monkeypatch.setattr(reports_mod, "decode_log_string",
                            general_path_taken)
        if getattr(report, "events", ()):
            # escaped ``pev`` separators: never the positional form
            with pytest.raises(AssertionError, match="general path"):
                decode_report(wire)
        else:
            assert decode_report(wire) == expected
            query = wire.partition("?")[2].split("&")
            for other in ("/log?" + "&".join(reversed(query)),
                          wire + "&x=1", wire + "&" + query[-1],
                          wire.replace("&node=", "&node=%31")):
                with pytest.raises(AssertionError, match="general path"):
                    decode_report(other)

    def test_entries_do_not_cache_their_report(self):
        # the .3f/.5f wire rounding is part of the measurement: parse()
        # must decode the stored string each time, never hand back the
        # report the line was emitted from
        sent = QoSReport(time=1.23456, node_id=1, user_id=1, session_id=1,
                         continuity=0.123456789)
        server = LogServer(sink=MemorySink())
        server.receive_report(1.23456, sent)
        (entry,) = server.entries()
        assert entry.parse() == QoSReport(
            time=1.235, node_id=1, user_id=1, session_id=1, continuity=0.12346)
        assert entry.parse() is not entry.parse()
        assert not hasattr(entry, "__dict__") or set(vars(entry)) == {
            "arrival_time", "log_string"}


class TestWireBuiltReports:
    """``_from_wire`` builds a report without the dataclass ``__init__``
    (``object.__new__`` and one ``__dict__`` update); the report must be
    indistinguishable from the one the constructor builds."""

    @staticmethod
    def _pair(report):
        """The report its wire string decodes to through ``_from_wire``,
        and the one ``from_params`` builds with the constructor."""
        wire = report.to_log_string()
        cls = type(report)
        match = cls._WIRE.fullmatch(wire)
        assert match is not None
        return cls._from_wire(*match.groups()), parse_report(
            decode_log_string(wire))

    @given(report=_REPORTS.filter(lambda r: not getattr(r, "events", ())))
    @settings(max_examples=300, deadline=None)
    def test_equal_to_the_constructor_built_report(self, report):
        import copy
        import dataclasses
        import pickle

        wired, built = self._pair(report)
        assert type(wired) is type(built)
        assert repr(wired) == repr(built)
        assert list(vars(wired)) == list(vars(built))
        assert [f.name for f in dataclasses.fields(wired)] == list(vars(wired))
        if any(v != v for v in vars(built).values()):  # nan: never ==
            return
        assert wired == built and hash(wired) == hash(built)
        for twin in (pickle.loads(pickle.dumps(wired)), copy.copy(wired),
                     dataclasses.replace(wired)):
            assert type(twin) is type(built) and twin == built
            assert list(vars(twin)) == list(vars(built))
        assert dataclasses.replace(wired, node_id=-1) == \
            dataclasses.replace(built, node_id=-1)

    @pytest.mark.parametrize(
        "report", [r for r in TestFastWireEncoding.REPORTS
                   if not getattr(r, "events", ())],
        ids=lambda r: type(r).__name__)
    def test_frozen(self, report):
        import dataclasses

        wired, built = self._pair(report)
        with pytest.raises(dataclasses.FrozenInstanceError):
            wired.node_id = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            del wired.time
        assert wired == built


def _oracle(log_string):
    """The hand-written oracle over the codec's parameter dict."""
    return from_params(decode_log_string(log_string))


class TestGeneratedFromParams:
    """``from_params``, compiled from each class's wire table, accepts
    and rejects what the hand-written oracle does, on any string."""

    @given(log_string=_adversarial())
    @settings(max_examples=1500, deadline=None)
    def test_adversarial_strings_parse_as_the_oracle_does(self, log_string):
        assert _outcome(_general, log_string) == _outcome(_oracle, log_string)

    @given(log_string=st.text(
        alphabet="/log?type=qsacrfpintevwhyjbudp0123456789&%+.:|\n -",
        max_size=90))
    @settings(max_examples=500, deadline=None)
    def test_arbitrary_text_parses_as_the_oracle_does(self, log_string):
        assert _outcome(_general, log_string) == _outcome(_oracle, log_string)

    @pytest.mark.parametrize("log_string", [
        "/log?type=act&t=1&node=1&user=1&sess=1&ev=join",
        "/log?type=qos&t=1&node=1&user=1&sess=1",
        "/log?type=traf&t=1&node=1&user=1&sess=1&up=1&down=2",
        "/log?type=part&t=1&node=1&user=1&sess=1",
        "/log?type=part&t=1&node=1&user=1&sess=1&pev=",
    ])
    def test_absent_keys_read_as_their_defaults(self, log_string):
        report = decode_report(log_string)
        assert report == _oracle(log_string)
        header = {f.name for f in dataclasses.fields(Report)}
        for f in dataclasses.fields(report):
            if f.name not in header | {"event", "bytes_up", "bytes_down"}:
                assert getattr(report, f.name) == (
                    f.default if f.default_factory is dataclasses.MISSING
                    else f.default_factory())

    @pytest.mark.parametrize("log_string", [
        "/log?type=act&t=1&node=1&user=1&sess=1&try=1&pub=1",
        "/log?type=traf&t=1&node=1&user=1&sess=1&down=2",
        "/log?type=traf&t=1&node=1&user=1&sess=1&up=1",
        "/log?type=qos&node=1&user=1&sess=1&buf=1&par=0&play=1",
        "/log?type=act&t=1&node=1&user=1&sess=1&ev=join&try=1&pub=yes",
        "/log?type=act&t=1&node=1&user=1&sess=1&ev=join&try=1&pub=2",
        "/log?type=qos&t=1&node=1&user=1&sess=1&buf=1&par=0&play=",
        "/log?type=part&t=1&node=1&user=1&sess=1&np=1&nin=0&nout=1"
        "&pev=1.0%3Aa%3A7%3Aq",
    ])
    def test_required_keys_flags_and_directions(self, log_string):
        """``ev``, ``up``, ``down`` and the header are required; a flag
        is ``1`` or ``0`` (here on lines otherwise in the canonical form)
        and a partner direction ``i`` or ``o``."""
        for decode in (decode_report, _general, _oracle):
            with pytest.raises(ValueError):
                decode(log_string)


class TestWireTable:
    """A class's wire table is checked when the class is created."""

    def test_a_table_naming_a_non_field_is_refused(self):
        with pytest.raises(TypeError, match=r"has no field \['lag'\]"):
            @_wire_form(("lag", "lag", ".3f"))
            @dataclass(frozen=True)
            class LagReport(Report):
                TYPE: ClassVar[str] = "lag"

    def test_a_field_type_without_a_wire_conversion_is_refused(self):
        with pytest.raises(TypeError, match="no wire conversion"):
            @_wire_form(("lb", "label", ""))
            @dataclass(frozen=True)
            class LabelReport(Report):
                label: str = ""

                TYPE: ClassVar[str] = "lbl"

    def test_a_post_init_is_refused(self):
        with pytest.raises(TypeError, match="__post_init__"):
            @_wire_form()
            @dataclass(frozen=True)
            class CheckedReport(Report):
                TYPE: ClassVar[str] = "chk"

                def __post_init__(self):
                    raise AssertionError("the decoders would skip this")
