"""Whole-system wiring: engine + source + servers + bootstrap + peers.

:class:`PeerHost` is the host half every deployment shares: the node
registry, the id and session counters, ``spawn_peer``'s draws, the
freeing of departed peers and the live views.  :class:`CoolstreamingSystem`
adds the simulated rest -- source, dedicated servers, boot-strap node and
the latency-scheduled RPC fabric over which nodes talk; the socket
backend's :class:`~repro.net.system.NetSystem` adds sockets instead.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.blocks import StreamGeometry
from repro.core.config import SystemConfig
from repro.core.node import NodeState, PeerNode
from repro.core.source import (
    LOGSERVER_ID,
    SOURCE_ID,
    BootstrapNode,
    DedicatedServer,
    SourceNode,
)
from repro.network.capacity import CapacityModel
from repro.network.connectivity import ConnectivityClass, ConnectivityMix
from repro.network.latency import LatencyModel
from repro.obs import context as _obs_context
from repro.sim.engine import Engine
from repro.sim.rng import RngHub
from repro.telemetry.reporter import NodeReporter
from repro.telemetry.server import LogServer

__all__ = ["CoolstreamingSystem", "NullReporter", "PeerHost"]


class NullReporter:
    """Reporter stand-in for infrastructure nodes: swallows everything."""

    def __init__(self) -> None:
        self.reports_sent = 0

    def activity(self, *args, **kwargs) -> None:
        """No-op: infrastructure nodes do not report."""
        pass

    def install_status_provider(self, provider) -> None:
        """No-op: infrastructure nodes do not report."""
        pass

    def record_partner_event(self, *args, **kwargs) -> None:
        """No-op: infrastructure nodes do not report."""
        pass

    def drain_partner_events(self) -> tuple:
        """Return and clear buffered partner events."""
        return ()

    def close(self, silent: bool) -> None:
        """Stop reporting."""
        pass


class PeerHost:
    """The host half of a deployment: registry, spawning, live views.

    It owns the node registry and the id and session counters, spawns
    sessions with the ``population`` stream's draws, and frees a departed
    peer once its counters are folded into the every-session totals.  A
    subclass supplies the fabric -- ``rpc(src, dst, method, *args)`` and
    ``make_reporter(node)`` -- and may swap :attr:`peer_class` and
    :meth:`_start_peer`, which is all that differs between the simulator
    and the socket deployment.
    """

    #: the session class :meth:`spawn_peer` builds
    peer_class = PeerNode

    def __init__(
        self,
        cfg: Optional[SystemConfig],
        *,
        seed: int,
        latency,
        capacity_model: Optional[CapacityModel] = None,
        connectivity_mix: Optional[ConnectivityMix] = None,
        log_server: Optional[LogServer] = None,
        engine: Optional[Engine] = None,
        rng: Optional[RngHub] = None,
        node_id_base: int = 1000,
        session_id_base: int = 1,
    ) -> None:
        self.cfg = cfg or SystemConfig()
        # engine/rng may be supplied so several systems (e.g. the channels
        # of a multi-channel deployment) share one simulated clock while
        # keeping their random streams independent
        self.engine = engine if engine is not None else Engine()
        self.rng = rng if rng is not None else RngHub(seed)
        self.geometry = StreamGeometry(self.cfg.n_substreams)
        self.latency = latency
        self.capacity = capacity_model or CapacityModel()
        self.mix = connectivity_mix or ConnectivityMix()
        self.log = log_server or LogServer()

        # observability: record provenance in the active session's manifest
        # and give the progress heartbeat a live-peer-count view
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
        # id bases keep node/session ids disjoint across co-hosted systems
        # (multi-channel deployments merge their logs for analysis)
        self._next_node_id = int(node_id_base)
        self._next_session_id = int(session_id_base)
        self.sessions_spawned = 0
        # what departed peers contributed to the every-session totals
        # below, folded in by on_node_left before the peer is dropped
        self._left_adaptations = 0
        self._left_pull_requests = 0
        self._left_parents = 0
        self.servers: List[PeerNode] = []

    # ------------------------------------------------------------------
    # registry & population management
    # ------------------------------------------------------------------
    def get_node(self, node_id: int):
        """Node object by id (None when unknown)."""
        return self._nodes.get(node_id)

    def spawn_peer(
        self,
        *,
        user_id: int,
        attempt: int = 1,
        connectivity: Optional[ConnectivityClass] = None,
        upload_bps: Optional[float] = None,
    ) -> PeerNode:
        """Create and start a new peer session."""
        rng = self.rng.stream("population")
        if connectivity is None:
            connectivity = self.mix.sample(rng)
        if upload_bps is None:
            upload_bps = self.capacity.sample_upload(connectivity, rng)
        node_id = self._next_node_id
        self._next_node_id += 1
        session_id = self._next_session_id
        self._next_session_id += 1
        node = self.peer_class(
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
        self._start_peer(node)
        return node

    def _start_peer(self, node: PeerNode) -> None:
        """Bring a spawned session up (registered already, so its join
        can reach it)."""
        node.start()

    def on_node_left(self, node: PeerNode) -> None:
        """Callback from a leaving node: free everything the system holds
        for it.

        Its counters are folded into the every-session totals
        (:attr:`adaptations`, :attr:`pull_requests_sent`,
        :attr:`parents_held`), which is what post-run readers used to sum
        over dead registry entries.  Then its latency endpoint, its
        ``node.{id}`` random stream and its registry entry go: an RPC still
        in flight to it finds no node and is dropped, as it was for a dead
        one.  With nothing else holding it, the node is freed by
        refcounting, so memory follows the live audience, not every
        session ever spawned.
        """
        node_id = node.node_id
        if not node.is_server:
            self._left_adaptations += node.adaptation_count
            if node.pull_req is not None:
                self._left_pull_requests += node.pull_req.requests_sent
            self._left_parents += sum(1 for p in node.parents
                                      if p is not None)
        self.latency.unregister(node_id)
        self.rng.release(f"node.{node_id}")
        self._nodes.pop(node_id, None)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def peers(self) -> List[PeerNode]:
        """Live user peers (never servers or the source).  Departed peers
        are gone from the registry; their counters live on in the
        every-session totals."""
        return [
            n for n in self._nodes.values()
            if isinstance(n, PeerNode) and not n.is_server and n.alive
        ]

    def _registered_peers(self):
        """User peers still in the registry, live or not (a peer killed by
        assigning ``state`` never called :meth:`on_node_left`)."""
        return (n for n in self._nodes.values()
                if isinstance(n, PeerNode) and not n.is_server)

    @property
    def adaptations(self) -> int:
        """Parent re-selections by adaptation, summed over every session
        spawned so far, departed ones included."""
        return self._left_adaptations + sum(
            p.adaptation_count for p in self._registered_peers())

    @property
    def pull_requests_sent(self) -> int:
        """Pull-mode block requests, summed over every session so far."""
        return self._left_pull_requests + sum(
            p.pull_req.requests_sent for p in self._registered_peers()
            if p.pull_req is not None)

    @property
    def parents_held(self) -> int:
        """Sub-stream parents held, summed over every session: a departed
        session counts those it held when it left."""
        return self._left_parents + sum(
            1 for p in self._registered_peers()
            for parent in p.parents if parent is not None)

    def all_streaming_nodes(self) -> List[PeerNode]:
        """Servers plus alive user peers (potential parents)."""
        return [
            n for n in self._nodes.values()
            if isinstance(n, PeerNode) and n.alive
        ]

    @property
    def concurrent_users(self) -> int:
        """Alive user peers right now."""
        return sum(
            1 for n in self._nodes.values()
            if isinstance(n, PeerNode) and not n.is_server and n.alive
        )

    def parent_child_edges(self) -> List[Tuple[int, int, int]]:
        """Current (parent, child, substream) edges, servers included."""
        edges = []
        for node in self._nodes.values():
            if isinstance(node, PeerNode) and node.alive:
                for sub, parent in enumerate(node.parents):
                    if parent is not None:
                        edges.append((parent, node.node_id, sub))
        return edges

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """Quick aggregate health snapshot (host-side, not from logs)."""
        peers = self.peers()
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


class CoolstreamingSystem(PeerHost):
    """A complete Coolstreaming deployment on one simulation engine.

    Parameters
    ----------
    cfg:
        Protocol and deployment parameters (Table I and friends).
    seed:
        Root seed for every random stream in the run.
    capacity_model, latency_model, connectivity_mix:
        Network substrate; defaults follow DESIGN.md's 2006 calibration.
    log_server:
        Destination for telemetry; a fresh one is created when omitted.
    """

    def __init__(
        self,
        cfg: Optional[SystemConfig] = None,
        *,
        seed: int = 0,
        capacity_model: Optional[CapacityModel] = None,
        latency_model: Optional[LatencyModel] = None,
        connectivity_mix: Optional[ConnectivityMix] = None,
        log_server: Optional[LogServer] = None,
        start_servers: bool = True,
        engine: Optional[Engine] = None,
        rng: Optional[RngHub] = None,
        node_id_base: int = 1000,
        session_id_base: int = 1,
    ) -> None:
        super().__init__(
            cfg, seed=seed, latency=latency_model or LatencyModel(),
            capacity_model=capacity_model, connectivity_mix=connectivity_mix,
            log_server=log_server, engine=engine, rng=rng,
            node_id_base=node_id_base, session_id_base=session_id_base)
        # log-server uplink latency endpoint
        self.latency.register(LOGSERVER_ID, self.rng.stream("latency"))

        self.bootstrap = BootstrapNode(self)
        self.source = SourceNode(self)
        self._nodes[SOURCE_ID] = self.source
        if start_servers:
            for i in range(self.cfg.n_servers):
                # servers sit just below the peer id range so they stay
                # disjoint across co-hosted channels too
                server = DedicatedServer(self, node_id=node_id_base - 1000 + i + 1)
                self._nodes[server.node_id] = server
                self.servers.append(server)
                server.start()

    # ------------------------------------------------------------------
    # RPC fabric & telemetry
    # ------------------------------------------------------------------
    def rpc(self, src_id: int, dst_id: int, method: str, *args) -> None:
        """Invoke ``method`` on the destination node after one propagation
        delay.  Dropped silently if the destination is gone by then."""
        try:
            delay = self.latency.delay(src_id, dst_id)
        except KeyError:
            delay = self.latency.base_s

        def dispatch() -> None:
            """Deliver the RPC if the destination is still alive."""
            node = self._nodes.get(dst_id)
            if node is None or not getattr(node, "alive", False):
                return
            fn = getattr(node, method, None)
            if fn is not None:
                fn(*args)

        self.engine.schedule(delay, dispatch)

    def make_reporter(self, node: PeerNode):
        """Build the telemetry agent for a node."""
        if node.is_server:
            return NullReporter()
        try:
            uplink = self.latency.delay(node.node_id, LOGSERVER_ID)
        except KeyError:
            uplink = 0.05
        return NodeReporter(
            self.engine,
            self.log,
            node_id=node.node_id,
            user_id=node.user_id,
            session_id=node.session_id,
            uplink_delay_s=uplink,
            status_period_s=self.cfg.status_report_period_s,
            address_public=node.connectivity.has_public_address,
        )

    def run(self, until: float) -> None:
        """Advance the simulation to absolute time ``until``."""
        self.engine.run(until=until)
