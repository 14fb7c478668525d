"""The deployment façade: a ``CoolstreamingSystem`` look-alike over sockets.

:class:`NetSystem` exposes the exact attribute surface the reference
protocol objects consume -- ``cfg``/``geometry``/``engine``/``rng``,
``bootstrap``, ``make_reporter``, ``spawn_peer``, ``rpc`` -- but its RPC
fabric encodes wire frames and writes them to real TCP connections
instead of scheduling a latency-delayed callback.  That substitution is
the whole trick: :class:`~repro.core.node.PeerNode` logic, the
:class:`~repro.workload.users.UserPopulation` and the
:class:`~repro.telemetry.reporter.NodeReporter` all run unmodified on
top of it.

Time: the façade's :class:`~repro.sim.engine.Engine` is a real simulation
engine used as a virtual-time timer wheel.  The backend pumps it from the
wall clock (``engine.run(until=clock.now())``), so every ``PeriodicTask``
and delayed callback the reused protocol code creates fires at the right
virtual instant, interleaved with socket I/O.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.blocks import StreamGeometry
from repro.core.config import SystemConfig
from repro.core.membership import MCacheEntry
from repro.core.node import NodeState, PeerNode
from repro.net.codec import MsgType, encode_entry
from repro.net.config import NetConfig
from repro.net.transport import NetStats
from repro.network.capacity import CapacityModel
from repro.network.connectivity import ConnectivityClass, ConnectivityMix
from repro.obs import context as _obs_context
from repro.sim.engine import Engine
from repro.sim.rng import RngHub
from repro.telemetry.reporter import NodeReporter
from repro.telemetry.reports import Report
from repro.telemetry.server import LogServer

__all__ = ["NetSystem", "RemoteLogProxy", "CoordinatorProxy"]


class _NullLatency:
    """Latency-model stand-in: the real network provides the delays."""

    def register(self, node_id: int, rng) -> None:
        """No-op (sockets do not need registered endpoints)."""

    def unregister(self, node_id: int) -> None:
        """No-op."""


class RemoteLogProxy:
    """``LogServer`` stand-in handed to a peer's :class:`NodeReporter`.

    The reporter schedules ``receive_report(t, report)`` one uplink delay
    out on the engine -- exactly as in the simulator -- and this proxy
    turns the firing into a LOG_REPORT frame to the coordinator, which
    feeds its real :class:`~repro.telemetry.server.LogServer` the same
    log string.  Frames ride the peer's coordinator link, which outlives
    the session (a crash -- silent leave -- severs it, losing the final
    status window exactly like the deployed collector).
    """

    def __init__(self, peer) -> None:
        self._peer = peer

    def receive_report(self, arrival_time: float, report: Report) -> None:
        """Encode and ship one report line."""
        line = report.to_log_string()
        self._peer.send_coord(
            MsgType.LOG_REPORT, {"t": float(arrival_time), "line": line})


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


class NetSystem:
    """One real-network Coolstreaming deployment (peer side).

    Owns the node registry and the shared virtual-time engine; the
    coordinator (bootstrap + origin + log intake) is a separate object
    reachable only through sockets, exactly like the deployed system.
    """

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
        self.cfg = cfg or SystemConfig()
        self.net = net or NetConfig()
        self.engine = Engine()
        self.rng = RngHub(seed)
        self.geometry = StreamGeometry(self.cfg.n_substreams)
        self.latency = _NullLatency()
        self.capacity = capacity_model or CapacityModel()
        self.mix = connectivity_mix or ConnectivityMix()
        #: the coordinator's log (same process; read-only on this side)
        self.log = log_server or LogServer()
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

        _ctx = _obs_context.current()
        if _ctx is not None:
            _ctx.note_seed(seed)
            _ctx.note_config(self.cfg)
            if (_ctx.progress is not None
                    and _ctx.progress.live_peers_fn is None):
                _ctx.progress.live_peers_fn = lambda: self.concurrent_users
            if "run.live_peers" not in _ctx.gauge_providers:
                _ctx.register_gauge_provider(
                    "run.live_peers", lambda: self.concurrent_users)

        self._nodes: Dict[int, object] = {}
        self._next_node_id = 1000
        self._next_session_id = 1
        self.sessions_spawned = 0
        self.servers: List[PeerNode] = []

    # ------------------------------------------------------------------
    # registry & RPC fabric
    # ------------------------------------------------------------------
    def get_node(self, node_id: int):
        """Node object by id (None when unknown).  Only locally-hosted
        nodes are visible -- remote state arrives via frames."""
        return self._nodes.get(node_id)

    def rpc(self, src_id: int, dst_id: int, method: str, *args) -> None:
        """The transport substitution point: the reference node's RPCs
        become wire frames sent from ``src``'s sockets."""
        sender = self._nodes.get(src_id)
        if sender is not None and getattr(sender, "alive", False):
            sender.send_rpc(dst_id, method, args)

    def make_reporter(self, node: PeerNode):
        """Telemetry agent wired to ship over the coordinator link."""
        if node.is_server:
            from repro.core.system import NullReporter
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
    # population management
    # ------------------------------------------------------------------
    def spawn_peer(
        self,
        *,
        user_id: int,
        attempt: int = 1,
        connectivity: Optional[ConnectivityClass] = None,
        upload_bps: Optional[float] = None,
    ):
        """Create a peer and bring its sockets up asynchronously.

        Mirrors ``CoolstreamingSystem.spawn_peer`` (same rng stream, same
        id assignment) but the join itself -- listener bind, coordinator
        dial, REGISTER -- happens on the event loop; the node object is
        returned immediately so the workload layer can hook it.
        """
        from repro.net.peer import NetPeer

        rng = self.rng.stream("population")
        if connectivity is None:
            connectivity = self.mix.sample(rng)
        if upload_bps is None:
            upload_bps = self.capacity.sample_upload(connectivity, rng)
        node_id = self._next_node_id
        self._next_node_id += 1
        session_id = self._next_session_id
        self._next_session_id += 1
        node = NetPeer(
            self,
            node_id=node_id,
            user_id=user_id,
            session_id=session_id,
            attempt=attempt,
            connectivity=connectivity,
            upload_bps=upload_bps,
        )
        self._nodes[node_id] = node
        self.sessions_spawned += 1
        self.spawn_task(node.start_net())
        return node

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

    def on_node_left(self, node: PeerNode) -> None:
        """Callback from a leaving node (registry keeps the dead object,
        like the simulator, so post-run inspection works)."""

    # ------------------------------------------------------------------
    # views (same shapes as CoolstreamingSystem)
    # ------------------------------------------------------------------
    def peers(self, *, alive_only: bool = True) -> List[PeerNode]:
        """All user peers (never servers)."""
        out = []
        for node in self._nodes.values():
            if isinstance(node, PeerNode) and not node.is_server:
                if not alive_only or node.alive:
                    out.append(node)
        return out

    @property
    def concurrent_users(self) -> int:
        """Alive user peers right now."""
        return sum(
            1 for n in self._nodes.values()
            if isinstance(n, PeerNode) and not n.is_server and n.alive
        )

    def summary(self) -> Dict[str, float]:
        """Quick aggregate health snapshot (deployment-side)."""
        peers = self.peers(alive_only=True)
        playing = [p for p in peers if p.state is NodeState.PLAYING]
        cont = [
            p.playback.continuity_index for p in playing if p.playback is not None
        ]
        return {
            "time": self.engine.now,
            "concurrent_users": float(len(peers)),
            "playing": float(len(playing)),
            "mean_continuity": (sum(cont) / len(cont)) if cont else float("nan"),
            "sessions_spawned": float(self.sessions_spawned),
            "log_entries": float(len(self.log)),
        }
