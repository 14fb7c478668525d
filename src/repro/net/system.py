"""The deployment host: the simulator's peer host over sockets.

:class:`NetSystem` is a :class:`~repro.core.system.PeerHost` -- the same
registry, ``spawn_peer`` draws and id assignment, freeing of departed
peers and live views as ``CoolstreamingSystem`` -- whose RPC fabric
encodes wire frames and writes them to real TCP connections instead of
scheduling a latency-delayed callback.  That substitution is the whole
trick: :class:`~repro.core.node.PeerNode` logic, the
:class:`~repro.workload.users.UserPopulation` and the
:class:`~repro.telemetry.reporter.NodeReporter` all run unmodified on
top of it.  ``rpc`` follows the simulator's rule: a call is sent whether
or not its sender is still alive, so a graceful leaver's PARTNER_CLOSE
frames reach its partners before its links close.

A departed peer leaves the registry as in the simulator.  A graceful
leaver's coordinator link closes behind its LEAVE report frame, a silent
leaver's at once, so no socket task keeps a departed peer alive.

Time: the host's :class:`~repro.sim.engine.Engine` is a real simulation
engine used as a virtual-time timer wheel.  The backend pumps it from the
wall clock (``engine.run(until=clock.now())``), so every ``PeriodicTask``
and delayed callback the reused protocol code creates fires at the right
virtual instant, interleaved with socket I/O.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Optional, Tuple

from repro.core.config import SystemConfig
from repro.core.membership import MCacheEntry
from repro.core.node import PeerNode
from repro.core.system import NullReporter, PeerHost
from repro.net.codec import MsgType, encode_entry
from repro.net.config import NetConfig
from repro.net.coordinator import NullLatency
from repro.net.peer import NetPeer
from repro.net.transport import NetStats
from repro.network.capacity import CapacityModel
from repro.network.connectivity import ConnectivityMix
from repro.telemetry.reporter import NodeReporter
from repro.telemetry.reports import ActivityEvent, ActivityReport, Report
from repro.telemetry.server import LogServer

__all__ = ["NetSystem", "RemoteLogProxy", "CoordinatorProxy"]


class RemoteLogProxy:
    """``LogServer`` stand-in handed to a peer's :class:`NodeReporter`.

    The reporter schedules ``receive_report(t, report)`` one uplink delay
    out on the engine -- exactly as in the simulator -- and this proxy
    turns the firing into a LOG_REPORT frame to the coordinator, which
    feeds its real :class:`~repro.telemetry.server.LogServer` the same
    log string.  Frames ride the peer's coordinator link, which outlives
    a graceful leave by one uplink delay: the LEAVE report is the
    session's last frame and closes the link behind it.  A crash -- silent
    leave -- severs the link at once, losing the final status window
    exactly like the deployed collector.
    """

    def __init__(self, peer) -> None:
        self._peer = peer

    def receive_report(self, arrival_time: float, report: Report) -> None:
        """Encode and ship one report line; a LEAVE report, the session's
        last, closes the coordinator link behind it."""
        line = report.to_log_string()
        peer = self._peer
        peer.send_coord(
            MsgType.LOG_REPORT, {"t": float(arrival_time), "line": line})
        if (isinstance(report, ActivityReport)
                and report.event is ActivityEvent.LEAVE
                and peer.coord_link is not None):
            peer.coord_link.close()


class CoordinatorProxy:
    """Bootstrap-node stand-in: the registration RPCs become frames.

    Matches the :class:`~repro.core.source.BootstrapNode` call surface
    used by ``PeerNode`` (``register``/``request_list``/``unregister``),
    so the reused join and maintenance paths talk to the coordinator
    without knowing it lives across a socket.
    """

    def __init__(self, system: "NetSystem") -> None:
        self._system = system

    def register(self, entry: MCacheEntry) -> None:
        """Announce a node to the channel (REGISTER frame)."""
        peer = self._system._nodes.get(entry.node_id)
        if peer is None:
            return
        address = peer.transport.address or (self._system.net.host, 0)
        peer.send_coord(MsgType.REGISTER, {
            "entry": encode_entry(entry, address),
            "server": bool(peer.is_server),
        })

    def request_list(self, node) -> None:
        """Ask for a fresh peer list (PEERS_REQUEST frame)."""
        node.send_coord(MsgType.PEERS_REQUEST, {})

    def unregister(self, node_id: int) -> None:
        """Graceful departure (UNREGISTER frame); dropped when the link
        is already gone -- the coordinator notices the dead TCP anyway."""
        peer = self._system._nodes.get(node_id)
        if peer is not None:
            peer.send_coord(MsgType.UNREGISTER, {"node_id": int(node_id)})


class NetSystem(PeerHost):
    """One real-network Coolstreaming deployment (peer side).

    The registry, spawning, freeing of departed peers and live views are
    :class:`~repro.core.system.PeerHost`'s, exactly as in the simulator;
    this class swaps the transport.  The coordinator (bootstrap + origin
    + log intake) is a separate object reachable only through sockets,
    exactly like the deployed system.
    """

    peer_class = NetPeer

    def __init__(
        self,
        cfg: Optional[SystemConfig] = None,
        *,
        seed: int = 0,
        net: Optional[NetConfig] = None,
        capacity_model: Optional[CapacityModel] = None,
        connectivity_mix: Optional[ConnectivityMix] = None,
        log_server: Optional[LogServer] = None,
    ) -> None:
        # ``log`` is the coordinator's log (same process; read-only here)
        super().__init__(cfg, seed=seed, latency=NullLatency(),
                         capacity_model=capacity_model,
                         connectivity_mix=connectivity_mix,
                         log_server=log_server)
        self.net = net or NetConfig()
        self.stats = NetStats()
        self.bootstrap = CoordinatorProxy(self)
        #: coordinator listen address; set by the backend once bound
        self.coordinator_address: Optional[Tuple[str, int]] = None
        #: engine pump installed by the backend (reentrancy-guarded)
        self.pump: Callable[[], None] = lambda: None
        #: event loop peers spawn their I/O tasks on (set by the backend)
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        #: strong refs to in-flight background tasks -- the loop only
        #: keeps weak ones, so an unreferenced task can be collected
        #: mid-flight and die without ever raising (ASY003)
        self._bg_tasks: set = set()

    # ------------------------------------------------------------------
    # RPC fabric & telemetry
    # ------------------------------------------------------------------
    def rpc(self, src_id: int, dst_id: int, method: str, *args) -> None:
        """The transport substitution point: the reference node's RPCs
        become wire frames sent from ``src``'s sockets.  As in the
        simulator, a sender already marked LEFT still sends (a graceful
        leaver's PARTNER_CLOSE frames); a receiver drops what reaches it
        after its own departure."""
        sender = self._nodes.get(src_id)
        if sender is not None:
            sender.send_rpc(dst_id, method, args)

    def make_reporter(self, node: PeerNode):
        """Telemetry agent wired to ship over the coordinator link."""
        if node.is_server:
            return NullReporter()
        return NodeReporter(
            self.engine,
            RemoteLogProxy(node),
            node_id=node.node_id,
            user_id=node.user_id,
            session_id=node.session_id,
            uplink_delay_s=0.05,
            status_period_s=self.cfg.status_report_period_s,
            address_public=node.connectivity.has_public_address,
        )

    # ------------------------------------------------------------------
    # peer bring-up
    # ------------------------------------------------------------------
    def _start_peer(self, node: NetPeer) -> None:
        """Bring the peer's sockets up asynchronously: listener bind,
        coordinator dial and REGISTER happen on the event loop, while
        :meth:`spawn_peer` returns the node at once so the workload layer
        can hook it."""
        self.spawn_task(node.start_net())

    def spawn_task(self, coro) -> None:
        """Run a coroutine on the deployment's event loop.

        The returned task is kept in :attr:`_bg_tasks` until done;
        without that strong reference the loop's weak tracking would
        let a busy GC collect the task before it finishes.
        """
        assert self.loop is not None, "backend must install the event loop"
        task = self.loop.create_task(coro)
        self._bg_tasks.add(task)
        task.add_done_callback(self._bg_tasks.discard)
