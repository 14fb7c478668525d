"""Network peers: the reference protocol objects over real sockets.

:class:`NetPeer` subclasses :class:`~repro.core.node.PeerNode` and
overrides *only* the transport touchpoints -- where the simulator pokes a
peer object directly (gossip, BM broadcast, block push) or goes through
the latency-scheduled RPC fabric (partnership, subscription, pull).
Everything that makes the protocol the paper's protocol -- offset choice,
adaptation Inequalities (1)/(2), join patience, the stall watchdog, the
water-filled upload scheduler, telemetry cadence -- is inherited
unchanged and exercised over TCP.

The frame dispatch below is the inverse mapping: an incoming wire
message decodes its fields and calls the *inherited* ``rpc_*`` handler,
with the sender identity taken from the connection (the HELLO-registered
``link.remote_id``), never from the payload.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional, Tuple

from repro.core.buffer import SyncBuffer
from repro.core.node import NodeState, PeerNode
from repro.core.source import SOURCE_ID
from repro.net.codec import (
    CodecError,
    MsgType,
    decode_bm,
    decode_entry,
    decode_pull_requests,
    encode_bm,
    encode_entry,
    encode_pull_requests,
)
from repro.net.transport import Link, PeerTransport, dial
from repro.network.connectivity import ConnectivityClass
from repro.obs import context as _obs_context
from repro.obs import inc as _obs_inc
from repro.telemetry.reports import LeaveReason

__all__ = ["NetPeer", "NetServer"]

#: the coordinator's id on a peer's coordinator link (it is not a peer)
COORDINATOR_ID = -1


class NetPeer(PeerNode):
    """One real session of one peer: a ``PeerNode`` whose messages travel
    over sockets."""

    def __init__(self, system, **kwargs) -> None:
        super().__init__(system, **kwargs)
        self.transport = PeerTransport(
            self.node_id,
            net=system.net,
            stats=system.stats,
            on_message=self._on_frame,
            on_link_lost=self._on_link_lost,
        )
        #: node id -> (host, port) listen addresses learned from the
        #: coordinator, gossip, partner requests and HELLOs
        self.addresses: Dict[int, Tuple[str, int]] = {}
        self.coord_link: Optional[Link] = None

    # ------------------------------------------------------------------
    # bring-up / teardown
    # ------------------------------------------------------------------
    async def start_net(self) -> None:
        """Bind the listener, dial the coordinator, then run the normal
        (inherited) join sequence."""
        net = self.system.net
        await self.transport.start()
        assert self.system.coordinator_address is not None
        host, port = self.system.coordinator_address
        conn = await dial(
            host, port,
            timeout_s=net.connect_timeout_s,
            retries=net.connect_retries,
            backoff_s=net.connect_backoff_s,
            stats=self.system.stats,
        )
        if not self.alive:
            # the user already gave up (ultra-short session)
            if conn is not None:
                conn[1].close()
            self.transport.close()
            return
        if conn is None:
            # coordinator unreachable: the join fails like a crash -- the
            # workload layer sees the failure and applies its retry policy
            self.transport.close()
            self.leave(LeaveReason.FAILURE, silent=True)
            return
        self.coord_link = Link(
            conn[0], conn[1],
            stats=self.system.stats,
            max_frame_bytes=net.max_frame_bytes,
            remote_id=COORDINATOR_ID,
        )
        self.coord_link.start_reading(self._on_coord_frame, self._on_coord_lost)
        self.system.pump()
        self._protocol_start()

    def _protocol_start(self) -> None:
        """The join sequence proper (split out so the server variant can
        replace it)."""
        PeerNode.start(self)

    def start(self) -> None:  # pragma: no cover - guard
        raise RuntimeError("net peers start via start_net()")

    def send_coord(self, msg_type: MsgType, payload: Dict[str, Any]) -> bool:
        """Ship one frame to the coordinator (False when the link is gone)."""
        if self.coord_link is None or self.coord_link.closed:
            return False
        return self.coord_link.send(msg_type, payload)

    def leave(self, reason: LeaveReason, *, silent: bool = False) -> None:
        """End the session; sockets mirror the departure style.

        A silent (abrupt) leave aborts every connection *first* so no
        goodbye of any kind escapes -- partners discover the death via
        EOF or BM silence, and the final status window never reaches the
        log, exactly like the deployed system.  A graceful leave sends
        the inherited notifications, then closes peer links; the
        coordinator link stays open until the engine-delayed LEAVE report
        frame has shipped (:class:`~repro.net.system.RemoteLogProxy`
        closes it behind that frame).
        """
        if self.state is NodeState.LEFT:
            return
        if silent:
            self.transport.close(abort=True)
            if self.coord_link is not None:
                self.coord_link.cancel()
        super().leave(reason, silent=silent)
        if not silent:
            self.transport.close()

    # ------------------------------------------------------------------
    # outbound: the RPC fabric becomes frames
    # ------------------------------------------------------------------
    def send_rpc(self, dst: int, method: str, args: tuple) -> None:
        """Encode one reference-node RPC as a wire frame to ``dst``.

        ``args[0]`` is always the sender id (the wire carries identity in
        the connection instead).  Unknown destinations behave like the
        simulator's RPCs to departed nodes: dropped silently.
        """
        t = self.transport
        if method == "rpc_partner_request":
            address = self.addresses.get(dst)
            if address is None:
                self._partner_dial_failed(dst)
                return
            payload = {"entry": encode_entry(args[1], t.address)}
            t.connect_and_send(dst, address, MsgType.PARTNER_REQUEST, payload,
                               on_failure=self._partner_dial_failed)
        elif method == "rpc_partner_reply":
            _, accept, bm, entry = args
            t.send(dst, MsgType.PARTNER_REPLY, {
                "accept": bool(accept),
                "bm": encode_bm(bm) if bm is not None else None,
                "entry": (encode_entry(entry, t.address)
                          if entry is not None else None),
            })
            if not accept:
                t.drop_link(dst)
        elif method == "rpc_bm_update":
            t.send(dst, MsgType.BM_UPDATE, {"bm": encode_bm(args[1])})
        elif method == "rpc_partner_close":
            t.send(dst, MsgType.PARTNER_CLOSE, {})
            t.drop_link(dst)
        elif method == "rpc_subscribe":
            t.send(dst, MsgType.SUBSCRIBE, {
                "substream": int(args[1]), "from_index": int(args[2])})
        elif method == "rpc_unsubscribe":
            t.send(dst, MsgType.UNSUBSCRIBE, {"substream": int(args[1])})
        elif method == "rpc_request_blocks":
            t.send(dst, MsgType.PULL_REQUEST,
                   {"requests": encode_pull_requests(args[1])})
        # anything else has no wire equivalent and is dropped

    def _partner_dial_failed(self, dst: int) -> None:
        """A partner candidate could not be reached: same bookkeeping as
        the simulator's NAT-unreachable branch (drop it from the view)."""
        self._pending_partners.pop(dst, None)
        self.mcache.remove(dst)

    # ------------------------------------------------------------------
    # transport-touchpoint overrides
    # ------------------------------------------------------------------
    def _gossip(self) -> None:
        # same target/payload draws as the base class (rng parity), but
        # the payload travels as a GOSSIP frame carrying known addresses
        partner_ids = self.partners.ids()
        if not partner_ids:
            return
        target = partner_ids[int(self._rng.integers(len(partner_ids)))]
        payload = self.mcache.gossip_payload(
            self.cfg.gossip_fanout, self._rng, self_entry=self.self_entry()
        )
        own_address = self.transport.address
        objs = []
        for entry in payload:
            address = (own_address if entry.node_id == self.node_id
                       else self.addresses.get(entry.node_id))
            objs.append(encode_entry(entry, address))
        if self.transport.send(target, MsgType.GOSSIP, {"entries": objs}):
            ctx = _obs_context.current()
            if ctx is not None:
                ctx.registry.counter("core.gossip_messages").inc()
                ctx.registry.counter("core.gossip_entries").inc(len(payload))

    def _broadcast_bm(self) -> None:
        encoded = encode_bm(self._own_bm())
        sent = 0
        for pid in self.partners.ids():
            if self.transport.send(pid, MsgType.BM_UPDATE, {"bm": encoded}):
                sent += 1
        if sent:
            _obs_inc("core.bm_exchanges", sent)

    def _push(self, conn, first: int, last: int) -> None:
        ok = self.transport.send(conn.child_id, MsgType.BLOCKS, {
            "substream": conn.substream, "first": first, "last": last})
        if not ok:
            self.scheduler.drop_child(conn.child_id)

    def _pull_push(self, child_id: int, substream: int, first: int,
                   last: int) -> None:
        ok = self.transport.send(child_id, MsgType.BLOCKS, {
            "substream": substream, "first": first, "last": last})
        if not ok and self.pull_sched is not None:
            self.pull_sched.drop_child(child_id)

    def _drop_partner(self, partner_id: int, *, notify: bool) -> None:
        super()._drop_partner(partner_id, notify=notify)
        self.transport.drop_link(partner_id)

    def deliver_blocks(self, from_id: int, substream: int, first: int,
                       last: int) -> None:
        """Count duplicate deliveries (pull-timeout re-requests served
        twice arrive as already-held intervals) as retransmits."""
        if self.sync is not None and last <= self.heads[substream]:
            self.system.stats.retransmits += 1
            _obs_inc("net.retransmits")
        super().deliver_blocks(from_id, substream, first, last)

    # ------------------------------------------------------------------
    # inbound: frames become inherited rpc_* calls
    # ------------------------------------------------------------------
    def _on_frame(self, link: Link, msg_type: MsgType,
                  payload: Dict[str, Any]) -> None:
        self.system.pump()
        from_id = link.remote_id
        if from_id is None:
            link.close()  # protocol traffic before HELLO
            return
        if not self.alive:
            return
        try:
            if msg_type is MsgType.BLOCKS:
                self.deliver_blocks(from_id, int(payload["substream"]),
                                    int(payload["first"]), int(payload["last"]))
            elif msg_type is MsgType.BM_UPDATE:
                self.rpc_bm_update(from_id, decode_bm(payload["bm"]))
            elif msg_type is MsgType.HELLO:
                port = int(payload.get("port", 0))
                if port:
                    self.addresses[from_id] = (str(payload["host"]), port)
            elif msg_type is MsgType.GOSSIP:
                entries = []
                for obj in payload["entries"]:
                    entry, address = decode_entry(obj)
                    if address is not None and entry.node_id != self.node_id:
                        self.addresses[entry.node_id] = address
                    entries.append(entry)
                self.rpc_gossip(from_id, entries)
            elif msg_type is MsgType.PARTNER_REQUEST:
                entry, address = decode_entry(payload["entry"])
                if address is not None:
                    self.addresses[from_id] = address
                self.rpc_partner_request(from_id, entry)
            elif msg_type is MsgType.PARTNER_REPLY:
                raw_bm = payload.get("bm")
                bm = decode_bm(raw_bm) if raw_bm is not None else None
                raw_entry = payload.get("entry")
                entry = None
                if raw_entry is not None:
                    entry, address = decode_entry(raw_entry)
                    if address is not None:
                        self.addresses[from_id] = address
                self.rpc_partner_reply(from_id, bool(payload["accept"]),
                                       bm, entry)
            elif msg_type is MsgType.PARTNER_CLOSE:
                self.rpc_partner_close(from_id)
                self.transport.drop_link(from_id)
            elif msg_type is MsgType.SUBSCRIBE:
                self.rpc_subscribe(from_id, int(payload["substream"]),
                                   int(payload["from_index"]))
            elif msg_type is MsgType.UNSUBSCRIBE:
                self.rpc_unsubscribe(from_id, int(payload["substream"]))
            elif msg_type is MsgType.PULL_REQUEST:
                self.rpc_request_blocks(
                    from_id, decode_pull_requests(payload["requests"]))
            else:
                raise CodecError(f"{msg_type.name} is not a peer message")
        except (CodecError, KeyError, TypeError, ValueError):
            self.system.stats.frames_rejected += 1
            _obs_inc("net.frames_rejected")
            link.close()

    def _on_link_lost(self, link: Link) -> None:
        """EOF/reset on a peer link: the partner is gone.  Same path as a
        BM-silence timeout, but detected at TCP speed."""
        if link.remote_id is None or not self.alive:
            return
        self.system.pump()
        self._drop_partner(link.remote_id, notify=False)

    # ------------------------------------------------------------------
    # coordinator link
    # ------------------------------------------------------------------
    def _on_coord_frame(self, link: Link, msg_type: MsgType,
                        payload: Dict[str, Any]) -> None:
        self.system.pump()
        if not self.alive:
            return
        try:
            if msg_type in (MsgType.PEERS_REPLY, MsgType.REGISTER_OK):
                entries = []
                for obj in payload.get("entries", ()):
                    entry, address = decode_entry(obj)
                    if address is not None and entry.node_id != self.node_id:
                        self.addresses[entry.node_id] = address
                    entries.append(entry)
                self._on_coord_reply(msg_type, payload, entries)
            elif msg_type is MsgType.BLOCKS:
                self._on_coord_blocks(payload)
            else:
                raise CodecError(f"{msg_type.name} is not a coordinator reply")
        except (CodecError, KeyError, TypeError, ValueError):
            self.system.stats.frames_rejected += 1
            _obs_inc("net.frames_rejected")
            link.close()

    def _on_coord_reply(self, msg_type: MsgType, payload: Dict[str, Any],
                        entries: list) -> None:
        self.on_bootstrap_reply(entries)

    def _on_coord_blocks(self, payload: Dict[str, Any]) -> None:
        raise CodecError("only servers receive blocks from the origin")

    def _on_coord_lost(self, link: Link) -> None:
        """Coordinator link gone: the session keeps streaming (partners
        are independent connections); only registration/telemetry stop."""

    def close_sockets(self) -> None:
        """Backend teardown: release every socket this peer still holds."""
        self.transport.close()
        if self.coord_link is not None:
            self.coord_link.cancel()


class NetServer(NetPeer):
    """A dedicated streaming server over sockets.

    Mirrors :class:`~repro.core.source.DedicatedServer`: server-class
    connectivity and capacity, every sub-stream fed straight from the
    origin (which lives in the coordinator and pushes BLOCKS frames down
    the registration link), no playback, no patience, no departure.
    """

    is_server = True

    def __init__(self, system, node_id: int) -> None:
        super().__init__(
            system,
            node_id=node_id,
            user_id=-node_id,
            session_id=-node_id,
            attempt=1,
            connectivity=ConnectivityClass.SERVER,
            upload_bps=system.cfg.server_upload_bps,
        )
        #: set once REGISTER_OK arrives and relaying has begun
        self.ready = asyncio.Event()

    def _max_partners(self) -> int:
        return self.cfg.server_max_partners

    def _protocol_start(self) -> None:
        """Register with the coordinator; stream state is initialised by
        the REGISTER_OK reply (which carries the origin's start offset)."""
        self.joined_at = self.engine.now
        self.state = NodeState.PLAYING  # servers are always "up"
        self.system.bootstrap.register(self.self_entry())

    def _on_coord_reply(self, msg_type: MsgType, payload: Dict[str, Any],
                        entries: list) -> None:
        if msg_type is MsgType.REGISTER_OK:
            self._attach_to_origin(int(payload["start"]))
        else:
            self.on_bootstrap_reply(entries)

    def _attach_to_origin(self, start: int) -> None:
        """Initialise relay state at the origin's live edge (the net
        analogue of ``DedicatedServer.start``'s direct source read)."""
        if self.sync is not None:
            return
        k = self.cfg.n_substreams
        self.start_index = start
        self.sync = [SyncBuffer(start) for _ in range(k)]
        self.heads = [start - 1] * k
        self.playback = None  # servers do not play back
        for sub in range(k):
            self.parents[sub] = SOURCE_ID
        self._start_tasks()
        self.ready.set()

    def _on_coord_blocks(self, payload: Dict[str, Any]) -> None:
        self.deliver_blocks(SOURCE_ID, int(payload["substream"]),
                            int(payload["first"]), int(payload["last"]))

    def _control_tick(self) -> None:
        # DedicatedServer's slim tick: no joining, no adaptation, no
        # patience -- just partner hygiene, BM broadcast and gossip
        if not self.alive:
            return
        self._control_ticks += 1
        for pid in self.partners.stale_partners(self.engine.now,
                                                self._stale_timeout):
            self._drop_partner(pid, notify=False)
        self._broadcast_bm()
        if self._control_ticks % self._gossip_every == 0:
            self._gossip()

    def _maybe_player_ready(self) -> None:
        return  # nothing to get ready

    def _drop_partner(self, partner_id: int, *, notify: bool) -> None:
        if partner_id == SOURCE_ID:
            return  # the origin is not droppable
        super()._drop_partner(partner_id, notify=notify)
