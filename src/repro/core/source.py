"""Source node, dedicated servers and the boot-strap node.

Deployment as measured (Section V.A): "The source sends video streams to
the servers, which are collectively responsible for streaming the video to
peers."  Peers never talk to the source directly; they learn server
addresses from the boot-strap node and treat servers as ordinary (very
capable, always-on) partners.
"""

from __future__ import annotations

from operator import indexOf
from typing import TYPE_CHECKING, Dict, List

from repro.core.buffer import BufferMap, SyncBuffer
from repro.core.membership import MCacheEntry
from repro.core.node import NodeState, PeerNode
from repro.core.stream import SubscriptionConn, UploadScheduler
from repro.network.connectivity import ConnectivityClass
from repro.sim.engine import PeriodicTask

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import CoolstreamingSystem

__all__ = ["SourceNode", "DedicatedServer", "BootstrapNode"]

SOURCE_ID = 0
BOOTSTRAP_ID = -1
LOGSERVER_ID = -2


class SourceNode:
    """The stream origin.

    Generates each sub-stream at one block per second from stream start and
    pushes to its direct children (the dedicated servers).  It exposes just
    enough of the node RPC surface to act as a parent.
    """

    is_server = True
    is_source = True
    connectivity = ConnectivityClass.SERVER
    alive = True

    def __init__(self, system: "CoolstreamingSystem") -> None:
        self.system = system
        self.cfg = system.cfg
        self.engine = system.engine
        self.node_id = SOURCE_ID
        self.stream_start = self.engine.now
        self.upload_bps = self.cfg.source_upload_bps
        self.scheduler = UploadScheduler(
            self.upload_bps, self.cfg.substream_rate_bps, self.cfg.block_bits
        )
        self._children: List[int] = []
        self._last_delivery = self.engine.now
        system.latency.register(self.node_id, system.rng.stream("latency"))
        self._task = PeriodicTask(
            self.engine, self.cfg.delivery_interval_s, self._delivery_tick,
            first_delay=self.cfg.delivery_interval_s,
        )

    # --- stream production ------------------------------------------------
    @property
    def heads(self) -> List[int]:
        """Contiguous local head per sub-stream: the live edge."""
        edge = self.system.geometry.live_edge_local(self.engine.now - self.stream_start)
        return [edge] * self.cfg.n_substreams

    def _own_bm(self) -> BufferMap:
        return BufferMap.from_local_heads(self.heads, self.system.geometry)

    # --- parent RPC surface ---------------------------------------------------
    def rpc_subscribe(self, child_id: int, substream: int, from_index: int) -> None:
        """A child subscribes to one of our sub-streams."""
        child = self.system.get_node(child_id)
        if child is None or not getattr(child, "is_server", False):
            return  # only dedicated servers may pull from the source
        self.scheduler.subscribe(child_id, substream, from_index, self.engine.now)
        if child_id not in self._children:
            self._children.append(child_id)

    def rpc_unsubscribe(self, child_id: int, substream: int) -> None:
        """A child stops pulling one of our sub-streams."""
        self.scheduler.unsubscribe(child_id, substream)

    def rpc_partner_close(self, from_id: int) -> None:
        """A partner closed the partnership."""
        self.scheduler.drop_child(from_id)
        if from_id in self._children:
            self._children.remove(from_id)

    def _push(self, conn: SubscriptionConn, first: int, last: int) -> None:
        child = self.system.get_node(conn.child_id)
        if child is None or not child.alive:
            self.scheduler.drop_child(conn.child_id)
            return
        child.deliver_blocks(self.node_id, conn.substream, first, last)

    def _delivery_tick(self) -> None:
        now = self.engine.now
        dt = now - self._last_delivery
        self._last_delivery = now
        if dt <= 0:
            return
        heads = self.heads
        if self.scheduler.substream_degree:
            self.scheduler.deliver(
                dt, heads, int(self.cfg.buffer_seconds), self._push,
            )
        # keep the servers' view of our buffer fresh
        bm = self._own_bm()
        for child_id in self._children:
            child = self.system.get_node(child_id)
            if child is not None and child.alive:
                child.rpc_bm_update(self.node_id, bm)


class DedicatedServer(PeerNode):
    """A dedicated streaming server (one of the paper's 24 x 100 Mbps).

    Behaves as a peer with server-class connectivity and capacity, except
    that it (a) pulls every sub-stream straight from the source, (b) never
    plays back, never loses patience and never leaves, and (c) does not
    report to the log server (server traffic is infrastructure, not user
    telemetry).
    """

    is_server = True

    def __init__(self, system: "CoolstreamingSystem", node_id: int) -> None:
        super().__init__(
            system,
            node_id=node_id,
            user_id=-node_id,
            session_id=-node_id,
            attempt=1,
            connectivity=ConnectivityClass.SERVER,
            upload_bps=system.cfg.server_upload_bps,
        )

    def _max_partners(self) -> int:
        return self.cfg.server_max_partners

    def start(self) -> None:
        """Attach to the source and begin relaying immediately."""
        now = self.engine.now
        self.joined_at = now
        self.state = NodeState.PLAYING  # servers are always "up"; no buffering
        self.system.latency.register(self.node_id, self.system.rng.stream("latency"))
        self.system.bootstrap.register(self.self_entry())
        # full stream from the origin, from its live edge
        source = self.system.source
        start = max(0, min(source.heads))
        for sub in range(self.cfg.n_substreams):
            source.rpc_subscribe(self.node_id, sub, start)
        self._attach_to_origin(start)

    def _attach_to_origin(self, start: int) -> None:
        """Relay every sub-stream from the origin, beginning at local block
        ``start`` (the origin already pushes to us from there)."""
        k = self.cfg.n_substreams
        self.start_index = start
        self.sync = [SyncBuffer(start) for _ in range(k)]
        self.heads = [start - 1] * k
        self.playback = None  # servers do not play back
        for sub in range(k):
            self.parents[sub] = SOURCE_ID
        self._start_tasks()

    def _control_tick(self) -> None:  # pragma: no cover - thin override
        if not self.alive:
            return
        self._control_ticks += 1
        for pid in self.partners.stale_partners(self.engine.now, self._stale_timeout):
            self._drop_partner(pid, notify=False)
        self._broadcast_bm()
        if self._control_ticks % self._gossip_every == 0:
            self._gossip()

    def _maybe_player_ready(self) -> None:
        return  # nothing to get ready

    def _drop_partner(self, partner_id: int, *, notify: bool) -> None:
        if partner_id == SOURCE_ID:
            return  # the source is not droppable
        super()._drop_partner(partner_id, notify=notify)


class BootstrapNode:
    """Tracks active nodes and hands newcomers an initial peer list.

    The returned list is a uniform random sample of the active population,
    always topped up with at least one dedicated server so a joiner in an
    empty or NAT-saturated overlay still has a reachable first partner --
    mirroring the deployed web-server redirection to the server fleet.
    """

    node_id = BOOTSTRAP_ID

    def __init__(self, system: "CoolstreamingSystem", *, min_servers_in_reply: int = 1) -> None:
        self.system = system
        self._registry: Dict[int, MCacheEntry] = {}
        self._server_ids: List[int] = []
        self._min_servers = int(min_servers_in_reply)
        self.join_count = 0
        self.leave_count = 0
        system.latency.register(self.node_id, system.rng.stream("latency"))

    # --- registry ---------------------------------------------------------
    def register(self, entry: MCacheEntry) -> None:
        """Record a node as active."""
        self._registry[entry.node_id] = entry
        if entry.connectivity is ConnectivityClass.SERVER:
            if entry.node_id not in self._server_ids:
                self._server_ids.append(entry.node_id)
        else:
            self.join_count += 1

    def unregister(self, node_id: int) -> None:
        """Forget a node.  Idempotent."""
        if self._registry.pop(node_id, None) is not None:
            if node_id in self._server_ids:
                self._server_ids.remove(node_id)
            else:
                self.leave_count += 1

    @property
    def active_count(self) -> int:
        """Number of currently registered nodes."""
        return len(self._registry)

    # --- the join RPC -------------------------------------------------------
    def request_list(self, node: PeerNode) -> None:
        """Serve a joiner its initial node list after one round trip."""
        rtt = self.system.latency.rtt(self.node_id, node.node_id)
        self.system.engine.schedule(rtt, lambda: self._reply(node))

    def _reply(self, node: PeerNode) -> None:
        if not node.alive:
            return
        node.on_bootstrap_reply(self.sample_for(node.node_id))

    def sample_for(self, requester_id: int) -> List[MCacheEntry]:
        """Random peer list for a joining node."""
        rng = self.system.rng.stream("bootstrap")
        n = self.system.cfg.bootstrap_sample
        # every registered node but the requester, in registration order:
        # copied and searched in C rather than filtered entry by entry
        registry = self._registry
        pool = list(registry.values())
        if requester_id in registry:
            del pool[indexOf(registry, requester_id)]
        if not pool:
            return []
        take = min(n, len(pool))
        idx = rng.choice(len(pool), size=take, replace=False)
        sample = [pool[i] for i in idx]
        # guarantee server presence
        have_servers = sum(
            1 for e in sample if e.connectivity is ConnectivityClass.SERVER
        )
        if have_servers < self._min_servers and self._server_ids:
            k = min(self._min_servers - have_servers, len(self._server_ids))
            picks = rng.choice(len(self._server_ids), size=k, replace=False)
            extra = [self._registry[self._server_ids[i]] for i in picks]
            sample = extra + sample[: max(0, n - len(extra))]
        return sample
