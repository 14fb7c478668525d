"""Streaming folds: single-pass analysis equals whole-trace analysis,
in memory and over a spilled log, bit for bit."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.classification import classify_users
from repro.analysis.continuity import (
    continuity_by_type,
    continuity_samples,
    mean_continuity,
)
from repro.analysis.contribution import contribution_by_type, upload_totals
from repro.analysis.funnel import join_funnel
from repro.analysis.partners import churn_by_type, partner_events
from repro.analysis import streaming
from repro.analysis.sessions import SessionTable
from repro.analysis.streaming import (
    ClassifyUsersFold,
    ConcurrentUsersFold,
    ContinuitySamplesFold,
    Fold,
    JoinFunnelFold,
    PartnerEventsFold,
    SessionTableFold,
    UploadTotalsFold,
    fold_log,
    iter_reports,
)
from repro.runtime import run_scenario
from repro.telemetry.reports import (
    ActivityEvent,
    ActivityReport,
    LeaveReason,
    PartnerEvent,
    PartnerOp,
    PartnerReport,
    QoSReport,
    TrafficReport,
)
from repro.telemetry.server import LogServer
from repro.telemetry.sink import LogReader, SpillSink
from repro.workload.scenarios import steady_audience


@pytest.fixture(scope="module")
def mem_log():
    """A churny default-engine log exercising every report type."""
    scenario = steady_audience(rate_per_s=0.3, horizon_s=400.0, n_servers=2)
    res = run_scenario(scenario, seed=3, engine="detailed")
    return res.system.log


@pytest.fixture(scope="module")
def spilled_log(mem_log, tmp_path_factory):
    """The same log reloaded into a spill sink with many chunk rotations."""
    root = tmp_path_factory.mktemp("spill")
    server = LogServer.loads(
        mem_log.dumps(), sink=SpillSink(root / "log", lines_per_chunk=50))
    assert len(server) == len(mem_log)
    return server


def _table_payload(table: SessionTable):
    """Everything a figure reads off a session table."""
    return (
        [(s.user_id, s.session_id, s.node_id, s.attempt, s.address_public,
          s.join_time, s.subscription_time, s.ready_time, s.leave_time,
          s.leave_reason)
         for s in table.sessions()],
        tuple(a.tolist() for a in
              table.concurrent_users(t0=0.0, t1=400.0, step_s=30.0)),
        table.retry_histogram(),
    )


class TestSpilledEqualsMemory:
    """Every figure reconstruction is bit-identical over the spilled log."""

    def test_log_not_trivial(self, mem_log):
        # the fixture must exercise folds for real: hundreds of reports,
        # several users, at least one departure
        assert len(mem_log) > 200
        table = SessionTable.from_log(mem_log)
        assert len(table.sessions()) > 10
        assert any(s.leave_time is not None for s in table.sessions())

    def test_sessions_table(self, mem_log, spilled_log):
        assert _table_payload(SessionTable.from_log(mem_log)) == \
               _table_payload(SessionTable.from_log(spilled_log))

    def test_classification(self, mem_log, spilled_log):
        assert classify_users(mem_log) == classify_users(spilled_log)

    def test_upload_totals_and_contribution(self, mem_log, spilled_log):
        assert upload_totals(mem_log) == upload_totals(spilled_log)
        assert contribution_by_type(mem_log) == \
               contribution_by_type(spilled_log)

    def test_continuity(self, mem_log, spilled_log):
        assert continuity_samples(mem_log) == continuity_samples(spilled_log)
        by_type_mem = continuity_by_type(mem_log)
        by_type_spill = continuity_by_type(spilled_log)
        assert by_type_mem.keys() == by_type_spill.keys()
        for utype, series_mem in by_type_mem.items():
            for arr_mem, arr_spill in zip(series_mem, by_type_spill[utype]):
                assert np.array_equal(arr_mem, arr_spill, equal_nan=True)
        a = mean_continuity(mem_log, after=60.0)
        b = mean_continuity(spilled_log, after=60.0)
        assert (a == b) or (np.isnan(a) and np.isnan(b))

    def test_partner_events_and_churn(self, mem_log, spilled_log):
        assert partner_events(mem_log) == partner_events(spilled_log)
        assert churn_by_type(mem_log) == churn_by_type(spilled_log)

    def test_join_funnel(self, mem_log, spilled_log):
        assert join_funnel(mem_log) == join_funnel(spilled_log)


class TestSinglePassEqualsWholeTrace:
    """fold_log over N folds equals N independent whole-trace passes."""

    def test_multi_fold_single_pass(self, mem_log):
        types, totals, samples, events = fold_log(
            mem_log, ClassifyUsersFold(), UploadTotalsFold(),
            ContinuitySamplesFold(), PartnerEventsFold())
        assert types == classify_users(mem_log)
        assert totals == upload_totals(mem_log)
        assert samples == continuity_samples(mem_log)
        assert events == partner_events(mem_log)

    def test_wrapped_folds(self, mem_log):
        (grid, counts), funnel = fold_log(
            mem_log,
            ConcurrentUsersFold(t0=0.0, t1=400.0, step_s=30.0),
            JoinFunnelFold())
        ref_grid, ref_counts = SessionTable.from_log(
            mem_log).concurrent_users(t0=0.0, t1=400.0, step_s=30.0)
        assert np.array_equal(grid, ref_grid)
        assert np.array_equal(counts, ref_counts)
        assert funnel == join_funnel(mem_log)

    def test_session_fold_alone(self, mem_log):
        (table,) = fold_log(mem_log, SessionTableFold())
        assert _table_payload(table) == \
               _table_payload(SessionTable.from_log(mem_log))


def _shipped_folds():
    """Every ``Fold`` subclass ``analysis.streaming`` defines."""
    return sorted(
        (cls for cls in vars(streaming).values()
         if isinstance(cls, type) and issubclass(cls, Fold) and cls is not Fold),
        key=lambda cls: cls.__name__)


def _comparable(result):
    """A fold result as plain values ``==`` can compare."""
    if isinstance(result, SessionTable):
        return _table_payload(result)
    if isinstance(result, tuple):
        return tuple(r.tolist() if isinstance(r, np.ndarray) else r
                     for r in result)
    return result


class TestDispatchEqualsShowingEveryReport:
    """``fold_log`` shows a fold only the report classes it ``consumes``;
    the result must be what calling ``update`` on every report gives, or
    the declaration has dropped reports."""

    def test_every_shipped_fold_declares_what_it_consumes(self):
        assert len(_shipped_folds()) >= 7
        assert all(cls.consumes != Fold.consumes for cls in _shipped_folds())

    @pytest.mark.parametrize("fold_cls", _shipped_folds(),
                             ids=lambda cls: cls.__name__)
    @pytest.mark.parametrize("storage", ["memory", "spilled"])
    def test_fold(self, fold_cls, storage, mem_log, spilled_log):
        log = mem_log if storage == "memory" else spilled_log
        assert {type(r) for r in log.reports()} == {
            ActivityReport, QoSReport, TrafficReport, PartnerReport}
        reference = fold_cls()
        for report in log.reports():
            reference.update(report)
        (alone,) = fold_log(log, fold_cls())
        assert _comparable(alone) == _comparable(reference.result())
        # ... and as one of many in a single pass, in any position
        others = [cls() for cls in _shipped_folds()]
        among = fold_log(log, *others, fold_cls())[-1]
        assert _comparable(among) == _comparable(reference.result())

    def test_undeclared_fold_sees_every_report_in_order(self, mem_log):
        class Times(Fold):
            def __init__(self):
                self.seen = []

            def update(self, report):
                self.seen.append((type(report), report.time))

            def result(self):
                return self.seen

        (seen, _) = fold_log(mem_log, Times(), UploadTotalsFold())
        assert seen == [(type(r), r.time) for r in mem_log.reports()]

    def test_subclassed_reports_reach_their_parents_folds(self):
        class TaggedQoS(QoSReport):
            pass

        report = TaggedQoS(time=1.0, node_id=1, user_id=1, session_id=1,
                           continuity=0.5, playing=True)
        (samples, totals) = fold_log(
            [report], ContinuitySamplesFold(), UploadTotalsFold())
        assert samples == [(1.0, 1, 0.5)] and totals == {}


def _seven_folds():
    """The benchmark's fold set: the session table and both of its views."""
    return {
        "session_table": SessionTableFold(),
        "classify_users": ClassifyUsersFold(),
        "upload_totals": UploadTotalsFold(),
        "continuity_samples": ContinuitySamplesFold(),
        "partner_events": PartnerEventsFold(),
        "concurrent_users": ConcurrentUsersFold(t1=400.0, step_s=30.0),
        "join_funnel": JoinFunnelFold(),
    }


def _fold_alone(source, name):
    (result,) = fold_log(source, _seven_folds()[name])
    return _comparable(result)


@pytest.fixture(scope="module", params=["detailed", "fast", "ode"])
def engine_log(request, mem_log):
    """The churny scenario's log from each engine that writes one
    in-process (``mem_log`` is the detailed engine's)."""
    if request.param == "detailed":
        return mem_log
    scenario = steady_audience(rate_per_s=0.3, horizon_s=400.0, n_servers=2)
    return run_scenario(scenario, seed=3, engine=request.param).log


class TestSharedSessionTable:
    """In one pass ``ConcurrentUsersFold`` and ``JoinFunnelFold`` read the
    ``SessionTableFold``'s table instead of each rebuilding it; no result
    may move, and a fold driven by hand is still its own fold."""

    def test_together_equals_alone_equals_spilled(self, engine_log, tmp_path):
        assert len(engine_log) > 200
        folds = _seven_folds()
        together = {name: _comparable(result) for name, result in zip(
            folds, fold_log(engine_log, *folds.values()))}
        assert together["session_table"][0], "no sessions reconstructed"
        assert together == {name: _fold_alone(engine_log, name)
                            for name in folds}

        spilled = LogServer.loads(
            engine_log.dumps(),
            sink=SpillSink(tmp_path / "log", lines_per_chunk=97))
        spilled.flush()
        reader = LogReader(tmp_path / "log")
        assert len(reader) == len(engine_log)
        folds = _seven_folds()
        assert together == {name: _comparable(result) for name, result in zip(
            folds, fold_log(reader, *folds.values()))}
        # the views before the table, and without a table at all
        names = ["join_funnel", "concurrent_users", "session_table"]
        for chosen in (names, names[:2], names[1:]):
            folds = _seven_folds()
            results = fold_log(reader, *(folds[name] for name in chosen))
            assert [_comparable(r) for r in results] == \
                   [together[name] for name in chosen]

    def test_each_activity_report_reaches_one_table(self, mem_log,
                                                    monkeypatch):
        calls = []
        update = SessionTableFold.update

        def counting(self, report):
            calls.append(report)
            update(self, report)

        monkeypatch.setattr(SessionTableFold, "update", counting)
        fold_log(mem_log, *_seven_folds().values())
        activity = [r for r in mem_log.reports()
                    if isinstance(r, ActivityReport)]
        assert calls == activity
        del calls[:]
        fold_log(mem_log, ConcurrentUsersFold(), JoinFunnelFold())
        assert calls == activity

    def test_views_driven_by_hand(self, mem_log):
        by_hand = [ConcurrentUsersFold(t1=400.0, step_s=30.0),
                   JoinFunnelFold()]
        for report in mem_log.reports():
            for fold in by_hand:
                fold.update(report)
        assert [_comparable(f.result()) for f in by_hand] == [
            _fold_alone(mem_log, "concurrent_users"),
            _fold_alone(mem_log, "join_funnel")]

    def test_a_fold_fed_by_hand_keeps_what_it_saw(self, mem_log):
        reports = list(mem_log.reports())
        first, second = reports[:len(reports) // 2], reports[len(reports) // 2:]
        assert any(isinstance(r, ActivityReport) for r in first)
        view = ConcurrentUsersFold(t1=400.0, step_s=30.0)
        for report in first:
            view.update(report)
        # beside a fresh table in one pass: the table sees the second half
        # only, the view both halves, and the untouched funnel the second
        table, curve, funnel = fold_log(
            second, SessionTableFold(), view, JoinFunnelFold())
        assert _comparable(curve) == _fold_alone(reports, "concurrent_users")
        assert _comparable(table) == _fold_alone(second, "session_table")
        assert funnel == _fold_alone(second, "join_funnel")
        # and a table fed by hand is not lent to a fresh view
        fed = SessionTableFold()
        for report in first:
            fed.update(report)
        table, funnel = fold_log(second, fed, JoinFunnelFold())
        assert _comparable(table) == _fold_alone(reports, "session_table")
        assert funnel == _fold_alone(second, "join_funnel")

    def test_a_subclassed_table_is_not_shared(self, mem_log):
        class JoinsOnly(SessionTableFold):
            def update(self, report):
                if getattr(report, "event", None) is ActivityEvent.JOIN:
                    super().update(report)

        table, funnel = fold_log(mem_log, JoinsOnly(), JoinFunnelFold())
        assert all(s.leave_time is None for s in table.sessions())
        assert funnel == _fold_alone(mem_log, "join_funnel")

    def test_the_same_fold_listed_twice_is_fed_twice(self, mem_log):
        # as before: fold_log feeds its arguments, it does not deduplicate
        samples = ContinuitySamplesFold()
        once = _fold_alone(mem_log, "continuity_samples")
        assert len(fold_log(mem_log, samples, samples)[0]) == 2 * len(once)


class TestFigurePayloadsUnderSpill:
    """End-to-end: a figure regenerated with a spill root configured
    renders byte-identically to the in-memory run -- spilling relocates
    log storage only, on each figure's default engine."""

    @pytest.mark.parametrize("name,kwargs", [
        ("fig3", dict(seed=1, rate_per_s=0.4, horizon_s=240.0)),
        ("fig5", dict(seed=1, day_seconds=1800.0, peak_rate=0.5,
                      n_servers=2)),
    ])
    def test_figure_render_identical(self, tmp_path, name, kwargs):
        from repro.experiments.figures import (
            fig3_user_types_and_contribution,
            fig5_user_evolution,
        )
        from repro.telemetry import sink as sink_mod

        fn = {"fig3": fig3_user_types_and_contribution,
              "fig5": fig5_user_evolution}[name]
        ref = fn(**kwargs)
        root = tmp_path / "spill"
        sink_mod.set_spill_root(root)
        try:
            spilled = fn(**kwargs)
        finally:
            sink_mod.set_spill_root(None)
        assert spilled.render() == ref.render()
        assert any(root.iterdir()), "spill root was configured but unused"


_times = st.sampled_from([0.0, 1.0, 2.0, 2.5])  # few values: ties everywhere
_ids = st.integers(min_value=0, max_value=4)


def _activity():
    return st.builds(
        ActivityReport, time=_times, node_id=_ids, user_id=_ids,
        session_id=_ids, event=st.sampled_from(list(ActivityEvent)),
        attempt=st.integers(1, 3), address_public=st.booleans(),
        reason=st.none() | st.sampled_from(list(LeaveReason)))


def _qos():
    return st.builds(
        QoSReport, time=_times, node_id=_ids, user_id=_ids, session_id=_ids,
        continuity=st.none() | st.sampled_from([float("nan"), 0.0, 0.5, 1.0]),
        playing=st.booleans())


def _traffic():
    return st.builds(
        TrafficReport, time=_times, node_id=_ids, user_id=_ids,
        session_id=_ids,
        total_up=st.sampled_from([-0.0, 0.0, -3.0, 7.0, 9.0, float("nan")]))


def _partner():
    event = st.builds(PartnerEvent, time=_times,
                      op=st.sampled_from(list(PartnerOp)),
                      partner_id=_ids, incoming=st.booleans())
    return st.builds(
        PartnerReport, time=_times, node_id=_ids, user_id=_ids,
        session_id=_ids, events=st.lists(event, max_size=3).map(tuple),
        n_incoming=st.integers(-1, 3), n_outgoing=st.integers(-1, 3))


#: every fold that defines ``merge``, including a configured one
MERGEABLE = [SessionTableFold, ClassifyUsersFold, UploadTotalsFold,
             ContinuitySamplesFold, PartnerEventsFold,
             lambda: ContinuitySamplesFold(playing_only=False)]


def _exact(result):
    """A fold result as a string that differs wherever the results do:
    key order, ``-0.0`` against ``0.0`` and ``nan`` included."""
    if isinstance(result, SessionTable):
        return repr(result.sessions())
    return repr(result)


def _fed(fold, reports):
    for report in reports:
        fold.update(report)
    return fold


def _assert_merge_law(reports):
    """``fold(A + B) == fold(A).merge(fold(B))`` for every cut A | B."""
    for make in MERGEABLE:
        whole = _exact(_fed(make(), reports).result())
        for cut in range(len(reports) + 1):
            first = _fed(make(), reports[:cut])
            later = _fed(first.empty(), reports[cut:])
            merged = first.merge(later)
            assert merged is first
            assert _exact(merged.result()) == whole, (make, cut)


class TestMergeLaw:
    """The folds ``fold_log`` may split: merging the fold of a stream's
    tail into the fold of its head is the fold of the whole stream."""

    def test_every_shipped_fold_but_the_views_merges(self):
        views = {ConcurrentUsersFold, JoinFunnelFold}
        assert {cls for cls in _shipped_folds()
                if hasattr(cls, "merge")} == set(_shipped_folds()) - views

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_activity() | _qos() | _traffic() | _partner(),
                    max_size=24))
    def test_generated_streams(self, reports):
        _assert_merge_law(reports)

    def test_the_cases_a_merge_can_get_wrong(self):
        def act(t, sess, event, reason=None, node=1, pub=True):
            return ActivityReport(time=t, node_id=node, user_id=sess,
                                  session_id=sess, event=event,
                                  attempt=sess, address_public=pub,
                                  reason=reason)

        def traffic(t, up, node=1):
            return TrafficReport(time=t, node_id=node, user_id=1,
                                 session_id=1, total_up=up)

        def partner(t, *event_times, node=1):
            return PartnerReport(
                time=t, node_id=node, user_id=1, session_id=1,
                events=tuple(PartnerEvent(e, PartnerOp.ADD, 9, i % 2 == 0)
                             for i, e in enumerate(event_times)),
                n_incoming=1)

        reports = [
            act(0.0, 1, ActivityEvent.JOIN, pub=False),
            partner(0.5, 3.0, 1.0, node=2),
            traffic(0.5, -0.0), traffic(0.6, 0.0, node=2),
            QoSReport(time=1.0, node_id=1, user_id=1, session_id=1,
                      continuity=None, playing=True),
            act(1.0, 1, ActivityEvent.LEAVE, LeaveReason.NORMAL),
            act(1.0, 2, ActivityEvent.JOIN),
            QoSReport(time=1.5, node_id=1, user_id=1, session_id=1,
                      continuity=float("nan"), playing=True),
            traffic(1.5, -2.0), traffic(1.5, 0.0),
            act(2.0, 1, ActivityEvent.LEAVE),  # a second leave, no reason
            act(2.0, 1, ActivityEvent.PLAYER_READY, node=3, pub=True),
            partner(2.5, 1.0, 3.0, node=2), partner(2.5, 1.0),
            traffic(3.0, 0.0), traffic(3.0, -0.0, node=3),
        ]
        _assert_merge_law(reports)
        # what those cases produce, so the law is not met by both sides
        # dropping them alike
        (table,) = fold_log(reports, SessionTableFold())
        assert table.get(1).leave_time == 2.0
        assert table.get(1).leave_reason is None
        (totals,) = fold_log(reports, UploadTotalsFold())
        assert repr(totals) == "{1: 0.0, 2: 0.0, 3: 0.0}"
        (events,) = fold_log(reports, PartnerEventsFold())
        assert [(e[0], e[4]) for e in events] == [
            (1.0, False), (1.0, True), (1.0, True),
            (3.0, True), (3.0, False)]


class TestFoldProtocol:
    def test_no_folds_rejected(self, mem_log):
        with pytest.raises(ValueError, match="at least one fold"):
            fold_log(mem_log)

    def test_base_class_is_abstract(self):
        fold = Fold()
        with pytest.raises(NotImplementedError):
            fold.update(None)
        with pytest.raises(NotImplementedError):
            fold.result()

    def test_iter_reports_accepts_plain_iterables(self, mem_log):
        reports = list(mem_log.reports())
        (totals,) = fold_log(reports, UploadTotalsFold())
        assert totals == upload_totals(mem_log)
        assert list(iter_reports(reports)) == reports

    def test_iter_reports_accepts_entry_sources(self, mem_log):
        class EntriesOnly:
            def __init__(self, server):
                self._server = server

            def iter_entries(self):
                return self._server.iter_entries()

        (totals,) = fold_log(EntriesOnly(mem_log), UploadTotalsFold())
        assert totals == upload_totals(mem_log)
