"""The bootstrap/origin coordinator: one asyncio server per deployment.

The coordinator plays the three infrastructure roles of the measured
system that are not peers:

* **boot-strap node** -- channel registration and mCache seeding.  It
  embeds a real :class:`~repro.core.source.BootstrapNode` (same sampling
  rules, same ``"bootstrap"`` rng stream, same guaranteed-server top-up)
  and answers PEERS_REQUEST frames from its registry;
* **stream origin** -- a real :class:`~repro.core.source.SourceNode`
  runs on the shared virtual-time engine and pushes block intervals to
  every registered dedicated server as BLOCKS frames down the server's
  registration link (the source schedule *is* the simulator's source
  schedule);
* **log server** -- LOG_REPORT frames feed the standard
  :class:`~repro.telemetry.server.LogServer`, so the collected log is
  byte-compatible with a simulated run's.

The embedded protocol objects talk to remote servers through
:class:`_ServerStub` handles, which translate the simulator's direct
``deliver_blocks`` calls into frames -- the coordinator-side twin of the
peers' transport substitution.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.blocks import StreamGeometry
from repro.core.config import SystemConfig
from repro.core.source import BootstrapNode, SourceNode
from repro.net.codec import CodecError, MsgType, decode_entry, encode_entry
from repro.net.config import NetConfig
from repro.net.transport import Link, NetStats
from repro.obs import inc as _obs_inc
from repro.sim.engine import Engine
from repro.sim.rng import RngHub
from repro.telemetry.server import LogServer

__all__ = ["NetCoordinator", "NullLatency"]


class NullLatency:
    """Latency-model stand-in for the coordinator's embedded protocol
    objects and the peers' host: the real network provides the delays."""

    def register(self, node_id: int, rng) -> None:
        """No-op (sockets do not need registered endpoints)."""

    def unregister(self, node_id: int) -> None:
        """No-op."""


class _ServerStub:
    """Remote dedicated server as seen by the embedded origin.

    ``SourceNode`` pushes by calling ``child.deliver_blocks`` on whatever
    ``system.get_node`` returns; this stub forwards the call as a BLOCKS
    frame on the server's registration link.
    """

    is_server = True

    def __init__(self, node_id: int, link: Link) -> None:
        self.node_id = node_id
        self._link = link

    @property
    def alive(self) -> bool:
        """A server is alive while its registration link is."""
        return not self._link.closed

    def deliver_blocks(self, from_id: int, substream: int, first: int,
                       last: int) -> None:
        """Forward one pushed interval over the wire."""
        self._link.send(MsgType.BLOCKS, {
            "substream": substream, "first": first, "last": last})

    def rpc_bm_update(self, from_id: int, bm) -> None:
        """Origin freshness pokes: servers never partner with the source,
        so the update would be a no-op on the far side -- drop it here."""


class _CoordSystem:
    """Minimal ``CoolstreamingSystem`` surface for the embedded
    :class:`BootstrapNode` and :class:`SourceNode`."""

    def __init__(self, cfg: SystemConfig, engine: Engine, rng: RngHub,
                 geometry: StreamGeometry) -> None:
        self.cfg = cfg
        self.engine = engine
        self.rng = rng
        self.geometry = geometry
        self.latency = NullLatency()
        self._stubs: Dict[int, _ServerStub] = {}

    def get_node(self, node_id: int):
        """Only the registered server stubs are addressable here."""
        return self._stubs.get(node_id)


class NetCoordinator:
    """Registration, peer-list, telemetry and origin endpoint."""

    def __init__(
        self,
        cfg: SystemConfig,
        *,
        net: NetConfig,
        engine: Engine,
        rng: RngHub,
        geometry: StreamGeometry,
        log: LogServer,
        stats: NetStats,
    ) -> None:
        self.cfg = cfg
        self.net = net
        self.log = log
        self.stats = stats
        self._system = _CoordSystem(cfg, engine, rng, geometry)
        self.bootstrap = BootstrapNode(self._system)
        self.source = SourceNode(self._system)
        #: node id -> listen address, as registered / learned
        self.addresses: Dict[int, Tuple[str, int]] = {}
        self.links: Dict[int, Link] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self.address: Optional[Tuple[str, int]] = None
        #: engine pump installed by the backend
        self.pump: Callable[[], None] = lambda: None

    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind the coordinator socket; raises ``OSError`` (e.g. address
        in use) for the backend to convert into a startup failure."""
        self._server = await asyncio.start_server(
            self._accept, host=self.net.host, port=self.net.port)
        self.address = self._server.sockets[0].getsockname()[:2]
        return self.address

    async def _accept(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        link = Link(reader, writer, stats=self.stats,
                    max_frame_bytes=self.net.max_frame_bytes)
        link.start_reading(self._on_frame, self._on_lost)

    # ------------------------------------------------------------------
    def _on_frame(self, link: Link, msg_type: MsgType,
                  payload: Dict[str, Any]) -> None:
        self.pump()
        try:
            if msg_type is MsgType.LOG_REPORT:
                self.log.receive(float(payload["t"]), str(payload["line"]))
            elif msg_type is MsgType.REGISTER:
                self._register(link, payload)
            elif msg_type is MsgType.PEERS_REQUEST:
                self._serve_peers(link)
            elif msg_type is MsgType.UNREGISTER:
                self.bootstrap.unregister(int(payload["node_id"]))
            else:
                raise CodecError(f"{msg_type.name} is not a coordinator message")
        except (CodecError, KeyError, TypeError, ValueError):
            self.stats.frames_rejected += 1
            _obs_inc("net.frames_rejected")
            link.close()

    def _register(self, link: Link, payload: Dict[str, Any]) -> None:
        entry, address = decode_entry(payload["entry"])
        node_id = entry.node_id
        link.remote_id = node_id
        self.links[node_id] = link
        if address is not None:
            self.addresses[node_id] = address
        self.bootstrap.register(entry)
        if payload.get("server"):
            # attach the server to the origin at its current live edge
            # (the net analogue of DedicatedServer.start reading
            # source.heads directly) and acknowledge with the offset
            self._system._stubs[node_id] = _ServerStub(node_id, link)
            start = max(0, min(self.source.heads))
            for sub in range(self.cfg.n_substreams):
                self.source.rpc_subscribe(node_id, sub, start)
            link.send(MsgType.REGISTER_OK, {"start": start})

    def _serve_peers(self, link: Link) -> None:
        if link.remote_id is None:
            raise CodecError("PEERS_REQUEST before REGISTER")
        entries = self.bootstrap.sample_for(link.remote_id)
        link.send(MsgType.PEERS_REPLY, {"entries": [
            encode_entry(e, self.addresses.get(e.node_id)) for e in entries
        ]})

    def _on_lost(self, link: Link) -> None:
        """A registration link died: dead-TCP detection stands in for the
        explicit UNREGISTER an abrupt departure never sends."""
        node_id = link.remote_id
        if node_id is None:
            return
        if self.links.get(node_id) is link:
            del self.links[node_id]
        if node_id in self._system._stubs:
            del self._system._stubs[node_id]
            self.source.rpc_partner_close(node_id)
        self.bootstrap.unregister(node_id)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the listener and every registration link."""
        for link in list(self.links.values()):
            link.cancel()
        self.links.clear()
        if self._server is not None:
            self._server.close()
            self._server = None
