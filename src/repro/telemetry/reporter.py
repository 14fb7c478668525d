"""Client-side reporting agent.

Each peer owns a :class:`NodeReporter` that (a) ships activity reports the
instant the event occurs, and (b) ships the three status reports (QoS,
traffic, partner) every five minutes, phase-shifted by join time as in the
deployed ActiveX collector.

Two behaviours of the deployed pipeline are reproduced deliberately
because Section V.D leans on them:

* **report latency**: a report reaches the server one uplink delay after
  being sent;
* **loss on abrupt departure**: when a session ends in ``FAILURE`` nothing
  more is sent -- in particular, the low continuity a failing NAT user
  experienced during its last minutes never reaches the server, inflating
  NAT users' measured continuity (the Fig. 8 inversion).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.sim.engine import Engine, PeriodicTask
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
)
from repro.telemetry.server import LogServer

__all__ = ["NodeReporter"]


class NodeReporter:
    """Reporting agent for one session of one node.

    Parameters
    ----------
    engine, server:
        Simulation kernel and the destination log server.
    node_id, user_id, session_id:
        Identity of the session being reported.
    uplink_delay_s:
        One-way latency from this client to the log server.
    status_period_s:
        Cadence of status reports (300 s in the deployed system).
    status_provider:
        Callback returning the current ``(qos, traffic, partner)`` report
        triple; installed by the peer node.
    """

    __slots__ = (
        "_engine", "_server", "node_id", "user_id", "session_id", "_delay",
        "_period", "_public", "_status_provider", "_task", "_closed",
        "_partner_events", "reports_sent",
    )

    def __init__(
        self,
        engine: Engine,
        server: LogServer,
        *,
        node_id: int,
        user_id: int,
        session_id: int,
        uplink_delay_s: float = 0.05,
        status_period_s: float = 300.0,
        address_public: bool = True,
    ) -> None:
        self._engine = engine
        self._server = server
        self.node_id = node_id
        self.user_id = user_id
        self.session_id = session_id
        self._delay = float(uplink_delay_s)
        self._period = float(status_period_s)
        self._public = bool(address_public)
        self._status_provider: Optional[
            Callable[[], tuple[QoSReport, TrafficReport, PartnerReport]]
        ] = None
        self._task: Optional[PeriodicTask] = None
        self._closed = False
        self._partner_events: List[PartnerEvent] = []
        self.reports_sent = 0

    # --- wiring -------------------------------------------------------------
    def install_status_provider(
        self,
        provider: Callable[[], tuple[QoSReport, TrafficReport, PartnerReport]],
    ) -> None:
        """Set the status callback and start the 5-minute cadence."""
        self._status_provider = provider
        if self._task is None:
            self._task = PeriodicTask(
                self._engine, self._period, self._send_status
            )

    # --- event capture -----------------------------------------------------
    def record_partner_event(self, op: PartnerOp, partner_id: int,
                             incoming: bool) -> None:
        """Buffer a partner add/drop for the next compact partner report."""
        if not self._closed:
            self._partner_events.append(
                PartnerEvent(time=self._engine.now, op=op,
                             partner_id=partner_id, incoming=incoming)
            )

    def drain_partner_events(self) -> tuple[PartnerEvent, ...]:
        """Return and clear buffered partner events."""
        events = tuple(self._partner_events)
        self._partner_events.clear()
        return events

    # --- sending ---------------------------------------------------------------
    def activity(self, event: ActivityEvent, *, attempt: int = 1,
                 reason: Optional[LeaveReason] = None) -> None:
        """Ship an activity report immediately (plus uplink delay)."""
        if self._closed:
            return
        if event is ActivityEvent.LEAVE:
            # Graceful shutdown flushes the partial status window first so
            # the server sees the session's last minutes (an abrupt FAILURE
            # still loses them -- see the module docstring).
            self._send_status()
        report = ActivityReport(
            time=self._engine.now, node_id=self.node_id, user_id=self.user_id,
            session_id=self.session_id, event=event, attempt=attempt,
            address_public=self._public, reason=reason,
        )
        self._ship(report)
        if event is ActivityEvent.LEAVE:
            self.close(silent=False)

    def _send_status(self) -> None:
        if self._closed or self._status_provider is None:
            return
        qos, traffic, partner = self._status_provider()
        for report in (qos, traffic, partner):
            self._ship(report)

    def _ship(self, report: Report) -> None:
        self.reports_sent += 1
        arrival = self._engine.now + self._delay
        self._engine.schedule(
            self._delay,
            lambda r=report, t=arrival, s=self._server: s.receive_report(t, r)
        )

    # --- teardown -----------------------------------------------------------------
    def close(self, silent: bool) -> None:
        """Stop reporting.  ``silent=True`` models abrupt failure: pending
        status cadence stops and nothing further is sent, so whatever the
        node experienced since the last 5-minute report is lost to the
        measurement -- by design.  The status provider (the node's bound
        method) and the server are dropped (reports already in flight
        carry their own), so a closed reporter holds no node."""
        self._closed = True
        self._status_provider = None
        self._server = None
        if self._task is not None:
            self._task.stop()
            self._task = None
