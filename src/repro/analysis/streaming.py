"""Single-pass streaming analysis: incremental folds over a report stream.

Every figure reconstruction in :mod:`repro.analysis` used to iterate the
whole log once *per statistic*; at production volume (the ROADMAP
north star) that re-parses millions of log strings over and over, and
requires the log to fit in RAM in the first place.  This module factors
the per-report logic of each reconstruction into a :class:`Fold` --
``update(report)`` consumes one parsed report, ``result()`` finalises --
and :func:`fold_log` drives any number of folds down a single pass over
any report source (an in-memory :class:`~repro.telemetry.server.LogServer`,
a spilled :class:`~repro.telemetry.sink.LogReader`, or a plain iterable).

The whole-trace functions (``SessionTable.from_log``, ``classify_users``,
``upload_totals``, ``continuity_samples``, ``partner_events``,
``join_funnel``) are now thin wrappers over these folds, so every
caller's output is bit-identical by construction: the folds run the very
same per-report statements in the very same encounter order.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Type

import numpy as np

from repro.analysis.classification import UserType, _Observed
from repro.analysis.sessions import Session, SessionTable
from repro.telemetry.reports import (
    ActivityEvent,
    ActivityReport,
    PartnerOp,
    PartnerReport,
    QoSReport,
    Report,
    TrafficReport,
)

__all__ = [
    "Fold",
    "fold_log",
    "iter_reports",
    "SessionTableFold",
    "ClassifyUsersFold",
    "UploadTotalsFold",
    "ContinuitySamplesFold",
    "PartnerEventsFold",
    "ConcurrentUsersFold",
    "JoinFunnelFold",
    "fold_many",
]


class Fold:
    """One incremental statistic over a report stream.

    Subclasses consume parsed reports through :meth:`update` and finalise
    through :meth:`result`.  A fold must depend only on the reports it is
    shown and their order, never on the storage they came from -- that is
    what makes spilled and in-memory analysis bit-identical.

    ``consumes`` names the report classes :meth:`update` acts on;
    :func:`fold_log` shows a fold no other report.  ``update`` is public
    and must still ignore anything else itself, so declaring too much
    only costs time -- declaring too little drops reports.
    """

    consumes: Tuple[Type[Report], ...] = (Report,)

    def update(self, report: Report) -> None:
        """Consume one parsed report."""
        raise NotImplementedError

    def result(self):
        """Finalise and return this fold's statistic."""
        raise NotImplementedError


def iter_reports(source) -> Iterator[Report]:
    """Parsed-report stream of ``source``.

    Accepts a :class:`~repro.telemetry.server.LogServer`, a
    :class:`~repro.telemetry.sink.LogReader` (anything with ``reports()``),
    anything with ``iter_entries()``, or a plain iterable of reports.
    """
    reports = getattr(source, "reports", None)
    if callable(reports):
        return iter(reports())
    iter_entries = getattr(source, "iter_entries", None)
    if callable(iter_entries):
        return (entry.parse() for entry in iter_entries())
    return iter(source)


def fold_log(source, *folds: Fold) -> Tuple:
    """Drive every fold down one pass over ``source``'s reports.

    Returns one result per fold, in argument order.  This is the whole
    point of the module: N statistics over a spilled multi-gigabyte log
    cost one streaming read, not N.
    """
    if not folds:
        raise ValueError("fold_log needs at least one fold")
    fed = _share_session_table(folds)
    # per report class, the updates to call, in fold order -- built the
    # first time the class is seen, so a report costs only the folds
    # that consume it (of the seven shipped: 2/1/1/2 calls for
    # activity/QoS/traffic/partner reports)
    updates_for: Dict[type, List[Callable[[Report], None]]] = {}
    for report in iter_reports(source):
        cls = report.__class__
        try:
            updates = updates_for[cls]
        except KeyError:
            updates = updates_for[cls] = [
                f.update for f in fed if issubclass(cls, f.consumes)
            ]
        for update in updates:
            update(report)
    return tuple(f.result() for f in folds)


def _share_session_table(folds: Tuple[Fold, ...]) -> List[Fold]:
    """The folds one pass must feed, after pointing every fold that is a
    view of the session table at one table.

    ``ConcurrentUsersFold`` and ``JoinFunnelFold`` each reconstruct
    sessions only to read a statistic off them; in one pass beside a
    ``SessionTableFold`` (or beside each other) that is the same table
    built two or three times.  Views that have seen no report yet adopt
    the pass's first, still empty, ``SessionTableFold`` -- or the first
    view's own -- and each distinct table is then fed once.  A fold that
    was already fed by hand keeps its own table, so nothing it has seen
    is lost or lent to another fold.
    """
    view_types = (ConcurrentUsersFold, JoinFunnelFold)
    views = [f for f in folds if isinstance(f, view_types)]
    # exactly a SessionTableFold: a subclass may reconstruct differently
    shared = next((f for f in folds if type(f) is SessionTableFold), None)
    if shared is None and views:
        shared = views[0]._table
    if shared is not None and not shared._sessions:
        for view in views:
            if not view._table._sessions:
                view._table = shared
    fed = [f for f in folds if not isinstance(f, view_types)]
    for view in views:
        if all(view._table is not f for f in fed):
            fed.append(view._table)
    return fed


# ---------------------------------------------------------------------------
# the figure-reconstruction folds
# ---------------------------------------------------------------------------
class SessionTableFold(Fold):
    """Session reconstruction (Section V.C) as a fold.

    Per-report logic identical to the historical
    ``SessionTable.from_log`` loop, which now wraps this fold.
    """

    consumes = (ActivityReport,)

    def __init__(self) -> None:
        self._sessions: Dict[int, Session] = {}

    def update(self, report: Report) -> None:
        """Fold one report in (non-activity reports are ignored)."""
        if not isinstance(report, ActivityReport):
            return
        sess = self._sessions.get(report.session_id)
        if sess is None:
            sess = Session(
                session_id=report.session_id,
                user_id=report.user_id,
                node_id=report.node_id,
                attempt=report.attempt,
                address_public=report.address_public,
            )
            self._sessions[report.session_id] = sess
        if report.event is ActivityEvent.JOIN:
            sess.join_time = report.time
        elif report.event is ActivityEvent.START_SUBSCRIPTION:
            sess.subscription_time = report.time
        elif report.event is ActivityEvent.PLAYER_READY:
            sess.ready_time = report.time
        elif report.event is ActivityEvent.LEAVE:
            sess.leave_time = report.time
            sess.leave_reason = report.reason

    def result(self) -> SessionTable:
        """The reconstructed session table."""
        return SessionTable(self._sessions)


class ClassifyUsersFold(Fold):
    """The Section V.B user-type classifier as a fold."""

    consumes = (ActivityReport, PartnerReport)

    def __init__(self) -> None:
        self._observed: Dict[int, _Observed] = {}

    def update(self, report: Report) -> None:
        """Fold one report's address/partnership evidence in."""
        if isinstance(report, ActivityReport):
            obs = self._observed.setdefault(report.node_id, _Observed())
            obs.address_public = report.address_public
        elif isinstance(report, PartnerReport):
            obs = self._observed.setdefault(report.node_id, _Observed())
            # cumulative counters: the latest report carries the total
            obs.incoming = max(obs.incoming, report.n_incoming)
            obs.outgoing = max(obs.outgoing, report.n_outgoing)
            # the compact event series also reveals direction
            for event in report.events:
                if event.incoming:
                    obs.incoming = max(obs.incoming, 1)
                else:
                    obs.outgoing = max(obs.outgoing, 1)

    def result(self) -> Dict[int, UserType]:
        """node_id -> :class:`UserType`, per the Section V.B rules."""
        result: Dict[int, UserType] = {}
        for node_id, obs in self._observed.items():
            public = bool(obs.address_public)
            has_incoming = obs.incoming > 0
            if public and has_incoming:
                result[node_id] = UserType.DIRECT
            elif not public and has_incoming:
                result[node_id] = UserType.UPNP
            elif not public:
                result[node_id] = UserType.NAT
            else:
                result[node_id] = UserType.FIREWALL
        return result


class UploadTotalsFold(Fold):
    """Per-node upload totals (Fig. 3b input) as a fold."""

    consumes = (TrafficReport,)

    def __init__(self) -> None:
        self._totals: Dict[int, float] = {}

    def update(self, report: Report) -> None:
        """Track the running max of each node's cumulative upload."""
        if not isinstance(report, TrafficReport):
            return
        prev = self._totals.get(report.node_id, 0.0)
        self._totals[report.node_id] = max(prev, report.total_up)

    def result(self) -> Dict[int, float]:
        """node_id -> total uploaded bytes."""
        return self._totals


class ContinuitySamplesFold(Fold):
    """Continuity samples (Figs. 8/9 input) as a fold."""

    consumes = (QoSReport,)

    def __init__(self, *, playing_only: bool = True) -> None:
        self._playing_only = playing_only
        self._samples: List[Tuple[float, int, float]] = []

    def update(self, report: Report) -> None:
        """Collect one QoS report's continuity sample, if it carried one."""
        if not isinstance(report, QoSReport):
            return
        if report.continuity is None:
            return
        if self._playing_only and not report.playing:
            return
        self._samples.append((report.time, report.node_id, report.continuity))

    def result(self) -> List[Tuple[float, int, float]]:
        """``(report_time, node_id, continuity)`` in encounter order."""
        return self._samples


class PartnerEventsFold(Fold):
    """Flattened partner add/drop events as a fold."""

    consumes = (PartnerReport,)

    def __init__(self) -> None:
        self._events: List[Tuple[float, int, PartnerOp, int, bool]] = []

    def update(self, report: Report) -> None:
        """Unpack one compact partner report's event series."""
        if not isinstance(report, PartnerReport):
            return
        for ev in report.events:
            self._events.append(
                (ev.time, report.node_id, ev.op, ev.partner_id, ev.incoming)
            )

    def result(self) -> List[Tuple[float, int, PartnerOp, int, bool]]:
        """Events sorted by event time (stable, as before)."""
        self._events.sort(key=lambda x: x[0])
        return self._events


class ConcurrentUsersFold(Fold):
    """Fig. 5's concurrent-user curve as a fold over activity reports."""

    consumes = SessionTableFold.consumes

    def __init__(self, *, t0: float = 0.0, t1: Optional[float] = None,
                 step_s: float = 60.0) -> None:
        self._table = SessionTableFold()
        self._t0 = t0
        self._t1 = t1
        self._step_s = step_s

    def update(self, report: Report) -> None:
        """Fold one report into the underlying session table."""
        self._table.update(report)

    def result(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(grid, counts)`` exactly as ``SessionTable.concurrent_users``."""
        return self._table.result().concurrent_users(
            t0=self._t0, t1=self._t1, step_s=self._step_s
        )


class JoinFunnelFold(Fold):
    """The Section V.C join funnel as a fold over activity reports."""

    consumes = SessionTableFold.consumes

    def __init__(self) -> None:
        self._table = SessionTableFold()

    def update(self, report: Report) -> None:
        """Fold one report into the underlying session table."""
        self._table.update(report)

    def result(self):
        """The :class:`~repro.analysis.funnel.JoinFunnel` of the stream."""
        from repro.analysis.funnel import funnel_of_table

        return funnel_of_table(self._table.result())


def fold_many(source, folds: Iterable[Fold]) -> Tuple:
    """``fold_log`` with the folds given as an iterable (convenience for
    callers assembling fold sets dynamically)."""
    return fold_log(source, *folds)
