"""The Coolstreaming peer node.

One :class:`PeerNode` instance is one *session* (join..leave) of one user.
It wires together the three modules of Fig. 1 -- membership manager
(:class:`~repro.core.membership.MCache` + gossip), partnership manager and
stream manager -- plus playback, the adaptation rules of Section IV and
the telemetry agent of Section V.A.

Event economy (this is the hot path at scale): each node runs exactly two
periodic tasks -- a *control tick* (BM exchange, partner maintenance, join
progress, adaptation, patience; default every 2 s) and a *delivery tick*
(push to children + playback accounting; default every 1 s).  Buffer-map
and gossip payloads are applied synchronously (their ~50 ms latency is
negligible against the 2 s exchange period), while the latency-sensitive
RPCs of the join path (bootstrap, partnership establishment, subscription)
go through the engine with real propagation delays, because Fig. 6/7 are
measurements of exactly those delays.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.adaptation import (
    CooldownTimer,
    choose_parent,
    qualified_parents,
)
from repro.core.buffer import BufferMap, CacheBuffer, SyncBuffer
from repro.core.membership import (
    MCache,
    MCacheEntry,
    ReplacementPolicy,
    make_entry,
)
from repro.core.partnership import Direction, PartnershipManager
from repro.core.pull import PullRequester, PullScheduler
from repro.core.stream import PlaybackState, SubscriptionConn, UploadScheduler
from repro.network.connectivity import ConnectivityClass, can_establish
from repro.obs import context as _obs_context
from repro.obs import inc as _obs_inc
from repro.sim.engine import PeriodicTask
from repro.telemetry.reports import (
    ActivityEvent,
    LeaveReason,
    PartnerOp,
    PartnerReport,
    QoSReport,
    TrafficReport,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import CoolstreamingSystem

__all__ = ["PeerNode", "NodeState", "SessionOutcome"]


class NodeState(str, enum.Enum):
    """Session lifecycle."""

    INIT = "init"
    JOINING = "joining"      # bootstrap contacted, gathering partners/BMs
    BUFFERING = "buffering"  # subscribed, waiting for the player buffer
    PLAYING = "playing"
    LEFT = "left"


class SessionOutcome(str, enum.Enum):
    """How the session ended (simulator-side ground truth)."""

    ACTIVE = "active"
    NORMAL = "normal"
    PROGRAM_END = "program_end"
    IMPATIENT = "impatient"   # never became ready, user gave up
    FAILED = "failed"         # abrupt disconnect


class PeerNode:
    """One session of one peer."""

    # one instance per session: slots instead of an instance dict, which
    # cost ~1.6 KB a node
    __slots__ = (
        "system", "cfg", "geometry", "engine", "node_id", "user_id",
        "session_id", "attempt", "connectivity", "upload_bps", "_state",
        "alive", "outcome", "joined_at", "start_subscription_at",
        "player_ready_at", "left_at", "_rng", "mcache", "partners", "cooldown",
        "scheduler", "cache", "pull_mode", "pull_sched", "pull_req", "sync",
        "heads", "parents", "playback", "start_index", "bits_downloaded",
        "_bits_down_reported", "_bits_up_reported", "adaptation_count",
        "on_session_end", "_pending_partners", "_last_bootstrap_contact",
        "_last_stall_check", "_control_task", "_delivery_task",
        "_last_delivery", "_control_ticks", "_gossip_every", "_block_bits",
        "_cache_window", "_stale_timeout", "_node_lookup", "reporter",
        "__weakref__",
    )

    is_server = False
    is_source = False

    def __init__(
        self,
        system: "CoolstreamingSystem",
        *,
        node_id: int,
        user_id: int,
        session_id: int,
        attempt: int,
        connectivity: ConnectivityClass,
        upload_bps: float,
    ) -> None:
        self.system = system
        self.cfg = system.cfg
        self.geometry = system.geometry
        self.engine = system.engine
        self.node_id = node_id
        self.user_id = user_id
        self.session_id = session_id
        self.attempt = attempt
        self.connectivity = connectivity
        self.upload_bps = float(upload_bps)

        cfg = self.cfg
        self._state = NodeState.INIT
        # `alive` is a plain attribute kept in sync by the `state` setter
        # rather than a property: it is read on every RPC dispatch and
        # every push, and the descriptor call dominated those paths
        self.alive = True
        self.outcome = SessionOutcome.ACTIVE
        self.joined_at: float = float("nan")
        self.start_subscription_at: Optional[float] = None
        self.player_ready_at: Optional[float] = None
        self.left_at: Optional[float] = None

        self._rng = system.rng.stream(f"node.{node_id}")
        self.mcache = MCache(
            node_id,
            cfg.mcache_size,
            ReplacementPolicy(cfg.mcache_replacement),
        )
        self.partners = PartnershipManager(node_id, self._max_partners())
        self.cooldown = CooldownTimer(cfg.ta_seconds, cfg.cooldown_enabled)
        self.scheduler = UploadScheduler(
            self.upload_bps, cfg.substream_rate_bps, cfg.block_bits
        )
        self.cache = CacheBuffer(int(cfg.buffer_seconds))
        self.pull_mode = cfg.delivery_mode == "pull"
        self.pull_sched: Optional[PullScheduler] = None
        self.pull_req: Optional[PullRequester] = None
        if self.pull_mode:
            self.pull_sched = PullScheduler(
                self.upload_bps, cfg.substream_rate_bps, cfg.block_bits
            )
            self.pull_req = PullRequester(
                cfg.n_substreams,
                horizon_blocks=max(1, int(cfg.pull_horizon_s)),
                timeout_s=cfg.pull_timeout_s,
            )

        k = cfg.n_substreams
        self.sync: Optional[List[SyncBuffer]] = None  # created at offset choice
        self.heads: List[int] = [-1] * k
        self.parents: List[Optional[int]] = [None] * k
        self.playback: Optional[PlaybackState] = None
        self.start_index: Optional[int] = None

        self.bits_downloaded = 0.0
        self._bits_down_reported = 0.0
        self._bits_up_reported = 0.0
        self.adaptation_count = 0
        # workload-layer hook: invoked once when the session ends
        self.on_session_end: Optional[object] = None

        self._pending_partners: Dict[int, float] = {}  # target -> request time
        self._last_bootstrap_contact: float = float("-inf")
        self._last_stall_check: float = float("-inf")
        self._control_task: Optional[PeriodicTask] = None
        self._delivery_task: Optional[PeriodicTask] = None
        self._last_delivery: float = 0.0
        self._control_ticks = 0
        self._gossip_every = max(
            1, round(cfg.gossip_period_s / cfg.bm_exchange_period_s)
        )
        # hot-path caches: these are invariants of the session, hoisted out
        # of per-tick/per-push code (cfg.block_bits is a derived property)
        self._block_bits = float(cfg.block_bits)
        self._cache_window = self.cache.window
        self._stale_timeout = 3.0 * cfg.bm_exchange_period_s + 1.0
        self._node_lookup = system._nodes.get

        self.reporter = system.make_reporter(self)

    # ------------------------------------------------------------------
    # identity helpers
    # ------------------------------------------------------------------
    def _max_partners(self) -> int:
        return self.cfg.max_partners

    def self_entry(self) -> MCacheEntry:
        """This node's own mCache entry, as gossiped to others."""
        return make_entry(self.node_id, self.connectivity, self.joined_at,
                          self.engine.now)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PeerNode {self.node_id} {self.connectivity.name}"
            f" {self.state.value}>"
        )

    @property
    def state(self) -> NodeState:
        """Session state.  Assigning ``NodeState.LEFT`` (as failure-injection
        harnesses do to simulate a crash) also clears ``alive``; hot paths
        read the backing ``_state``/``alive`` attributes directly."""
        return self._state

    @state.setter
    def state(self, value: NodeState) -> None:
        self._state = value
        self.alive = value is not NodeState.LEFT

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the session: report JOIN and contact the boot-strap node."""
        if self.state is not NodeState.INIT:
            raise RuntimeError("node already started")
        now = self.engine.now
        self.joined_at = now
        self.state = NodeState.JOINING
        self.system.latency.register(self.node_id, self.system.rng.stream("latency"))
        self.reporter.activity(ActivityEvent.JOIN, attempt=self.attempt)
        _obs_inc("core.sessions_started")
        self.system.bootstrap.register(self.self_entry())
        self._start_tasks()
        self.system.bootstrap.request_list(self)

    def _start_tasks(self) -> None:
        cfg = self.cfg
        jitter_rng = self._rng
        self._control_task = PeriodicTask(
            self.engine,
            cfg.bm_exchange_period_s,
            self._control_tick,
            first_delay=cfg.bm_exchange_period_s * float(jitter_rng.uniform(0.2, 1.0)),
        )
        self._last_delivery = self.engine.now
        self._delivery_task = PeriodicTask(
            self.engine,
            cfg.delivery_interval_s,
            self._delivery_tick,
            first_delay=cfg.delivery_interval_s * float(jitter_rng.uniform(0.2, 1.0)),
        )
        self.reporter.install_status_provider(self._status_reports)

    def leave(self, reason: LeaveReason, *, silent: bool = False) -> None:
        """End the session.

        ``silent`` models abrupt disconnection: no notifications are sent
        to partners (they discover the death via BM-silence timeouts) and
        no LEAVE report reaches the log server.
        """
        if self.state is NodeState.LEFT:
            return
        self.left_at = self.engine.now
        self.state = NodeState.LEFT  # setter clears `alive`
        self.outcome = {
            LeaveReason.NORMAL: SessionOutcome.NORMAL,
            LeaveReason.PROGRAM_END: SessionOutcome.PROGRAM_END,
            LeaveReason.IMPATIENCE: SessionOutcome.IMPATIENT,
            LeaveReason.FAILURE: SessionOutcome.FAILED,
        }[reason]
        if self._control_task:
            self._control_task.stop()
        if self._delivery_task:
            self._delivery_task.stop()
        if silent:
            self.reporter.close(silent=True)
        else:
            for pid in self.partners.ids():
                self.system.rpc(self.node_id, pid, "rpc_partner_close", self.node_id)
            self.reporter.activity(ActivityEvent.LEAVE, attempt=self.attempt,
                                   reason=reason)
        self.system.bootstrap.unregister(self.node_id)
        self.system.on_node_left(self)
        _obs_inc("core.sessions_ended")
        _obs_inc(f"core.sessions_ended.{reason.name.lower()}")
        if self.on_session_end is not None:
            self.on_session_end(self)

    # ------------------------------------------------------------------
    # bootstrap / membership
    # ------------------------------------------------------------------
    def on_bootstrap_reply(self, entries: List[MCacheEntry]) -> None:
        """Seed the mCache and start establishing partnerships."""
        if not self.alive:
            return
        self.mcache.insert_many(entries, self.engine.now, self._rng)
        self._maintain_partnerships()

    def rpc_gossip(self, from_id: int, entries: List[MCacheEntry]) -> None:
        """Receive a gossip payload of membership entries."""
        if not self.alive:
            return
        self.mcache.insert_many(entries, self.engine.now, self._rng)

    def _gossip(self) -> None:
        partner_ids = self.partners.ids()
        if not partner_ids:
            return
        target = partner_ids[int(self._rng.integers(len(partner_ids)))]
        payload = self.mcache.gossip_payload(
            self.cfg.gossip_fanout, self._rng, self_entry=self.self_entry()
        )
        if self._send_gossip(target, payload):
            ctx = _obs_context.current()
            if ctx is not None:
                ctx.registry.counter("core.gossip_messages").inc()
                ctx.registry.counter("core.gossip_entries").inc(len(payload))

    def _send_gossip(self, target: int, payload: List[MCacheEntry]) -> bool:
        """Hand one gossip payload to partner ``target``; False when it is
        gone.  The transport's one gossip hook."""
        peer = self.system.get_node(target)
        if peer is None or not peer.alive:
            return False
        peer.rpc_gossip(self.node_id, payload)
        return True

    # ------------------------------------------------------------------
    # partnership establishment
    # ------------------------------------------------------------------
    def _maintain_partnerships(self) -> None:
        cfg = self.cfg
        now = self.engine.now
        # expire stale pending requests (skip the rebuild when there are none)
        if self._pending_partners:
            self._pending_partners = {
                t: ts for t, ts in self._pending_partners.items()
                if now - ts < 10.0
            }
        want = cfg.target_partners - len(self.partners) - len(self._pending_partners)
        if want <= 0:
            return
        # isolated node with an exhausted view: only the boot-strap can help
        if (
            not self.partners.ids()
            and not self._pending_partners
            and len(self.mcache) == 0
            and now - self._last_bootstrap_contact > 5.0
        ):
            self._last_bootstrap_contact = now
            self.system.bootstrap.request_list(self)
            return
        exclude = self.partners._partners.keys() | self._pending_partners.keys()
        candidates = self.mcache.sample(want * 2, self._rng, exclude=exclude)
        for entry in candidates:
            if want <= 0:
                break
            if self.partners.is_full:
                break
            if not can_establish(
                self.connectivity, entry.connectivity,
                nat_traversal_prob=cfg.nat_traversal_prob, rng=self._rng,
            ):
                # unreachable (NAT/firewall target): drop it from the view so
                # we do not keep retrying a hopeless address
                self.mcache.remove(entry.node_id)
                continue
            self._pending_partners[entry.node_id] = now
            self.system.rpc(
                self.node_id, entry.node_id, "rpc_partner_request",
                self.node_id, self.self_entry(),
            )
            want -= 1

    def rpc_partner_request(self, from_id: int, entry: MCacheEntry) -> None:
        """A peer asks to become our partner.  Accept while under ``M``."""
        if not self.alive:
            return
        accept = (not self.partners.is_full) and from_id not in self.partners
        if accept:
            self.partners.add(from_id, Direction.INCOMING, self.engine.now, entry)
            self.mcache.insert(entry, self.engine.now, self._rng)
            self.reporter.record_partner_event(PartnerOp.ADD, from_id, incoming=True)
            _obs_inc("core.partnerships_formed")
        self.system.rpc(
            self.node_id, from_id, "rpc_partner_reply",
            self.node_id, accept, self._own_bm() if accept else None,
            self.self_entry() if accept else None,
        )

    def rpc_partner_reply(
        self,
        from_id: int,
        accepted: bool,
        bm: Optional[BufferMap],
        entry: Optional[MCacheEntry],
    ) -> None:
        """Handle the accept/reject reply to our partnership request."""
        if not self.alive:
            return
        self._pending_partners.pop(from_id, None)
        if not accepted:
            self.mcache.remove(from_id)
            return
        if from_id in self.partners or self.partners.is_full:
            return
        state = self.partners.add(from_id, Direction.OUTGOING, self.engine.now, entry)
        if bm is not None:
            state.update_bm(bm, self.engine.now)
        if entry is not None:
            self.mcache.insert(entry, self.engine.now, self._rng)
        self.reporter.record_partner_event(PartnerOp.ADD, from_id, incoming=False)
        _obs_inc("core.partnerships_formed")
        # answer with our own BM so both sides can select parents
        self.system.rpc(self.node_id, from_id, "rpc_bm_update",
                        self.node_id, self._own_bm())

    def rpc_partner_close(self, from_id: int) -> None:
        """Partner gracefully closed the partnership (or died and a helper
        delivers the teardown)."""
        if not self.alive:
            return
        self._drop_partner(from_id, notify=False)

    def _drop_partner(self, partner_id: int, *, notify: bool) -> None:
        state = self.partners.remove(partner_id)
        if state is None:
            return
        self.reporter.record_partner_event(
            PartnerOp.DROP, partner_id, incoming=(state.direction is Direction.INCOMING)
        )
        _obs_inc("core.partnerships_dropped")
        self.scheduler.drop_child(partner_id)
        if self.pull_sched is not None:
            self.pull_sched.drop_child(partner_id)
        self.mcache.remove(partner_id)
        if notify:
            self.system.rpc(self.node_id, partner_id, "rpc_partner_close", self.node_id)
        # orphaned sub-streams must re-select parents promptly (churn path --
        # not gated by the cool-down, the stream is already interrupted)
        for sub, parent in enumerate(self.parents):
            if parent == partner_id:
                self.parents[sub] = None
                self._reselect_parent(sub, force=True)

    # ------------------------------------------------------------------
    # buffer maps
    # ------------------------------------------------------------------
    def _own_bm(self) -> BufferMap:
        subscriptions = [p is not None for p in self.parents]
        return BufferMap.from_local_heads(self.heads, self.geometry, subscriptions)

    def rpc_bm_update(self, from_id: int, bm: BufferMap) -> None:
        """Receive a partner's refreshed buffer map."""
        if not self.alive:
            return
        self.partners.record_bm(from_id, bm, self.engine.now)

    def _broadcast_bm(self) -> None:
        bm = self._own_bm()
        now = self.engine.now
        own_id = self.node_id
        lookup = self._node_lookup
        sent = 0
        # iterate the partner map directly (we never mutate our own map
        # here, only the peers') with record_bm inlined: synchronous apply,
        # BM latency << exchange period, and the alive check just happened
        for pid in self.partners._partners:
            peer = lookup(pid)
            if peer is not None and peer.alive:
                state = peer.partners._partners.get(own_id)
                if state is not None:
                    state.bm = bm
                    state.last_bm_time = now
                sent += 1
        if sent:
            _obs_inc("core.bm_exchanges", sent)

    # ------------------------------------------------------------------
    # joining: offset choice and initial subscription
    # ------------------------------------------------------------------
    def _choose_offset(self) -> bool:
        """Pick the initial block offset per Section IV.A.  Returns True
        once the sync buffers exist."""
        if self.sync is not None:
            return True
        informed = self.partners.partners_with_bm()
        if not informed:
            return False
        # wait briefly for a second opinion unless we've been waiting already
        if len(informed) < 2 and (self.engine.now - self.joined_at) < 4.0:
            return False
        cfg = self.cfg
        m_local = max(
            s.bm.head_local(sub, self.geometry)
            for s in informed
            for sub in range(cfg.n_substreams)
        )
        if m_local < 0:
            return False
        if cfg.initial_offset_mode == "tp":
            start = max(0, m_local - int(cfg.tp_seconds))
        elif cfg.initial_offset_mode == "latest":
            start = m_local
        else:  # "oldest": the naive policy the paper argues against
            n_local = min(
                max(0, s.bm.head_local(sub, self.geometry))
                for s in informed
                for sub in range(cfg.n_substreams)
            )
            start = max(0, n_local - int(cfg.buffer_seconds) + 1)
        self.start_index = start
        self.sync = [SyncBuffer(start) for _ in range(cfg.n_substreams)]
        self.heads = [start - 1] * cfg.n_substreams
        self.playback = PlaybackState(cfg.n_substreams, start)
        return True

    def _join_progress(self) -> None:
        if not self._choose_offset():
            return
        missing = [s for s, p in enumerate(self.parents) if p is None]
        for sub in missing:
            self._reselect_parent(sub, force=True, initial=True)
        if self.state is NodeState.JOINING and any(
            p is not None for p in self.parents
        ):
            self.state = NodeState.BUFFERING

    # ------------------------------------------------------------------
    # parent selection / adaptation (Section IV.B)
    # ------------------------------------------------------------------
    def _reselect_parent(self, substream: int, *, force: bool = False,
                         initial: bool = False) -> bool:
        """Select a (new) parent for ``substream`` among qualified partners.

        ``force`` bypasses the cool-down (join and churn paths).  Returns
        True when a subscription was sent.
        """
        if not self.alive or self.sync is None:
            return False
        if not force and not self.cooldown.ready(self.engine.now):
            return False
        best_head = self.partners.best_partner_head()
        best_local = -1 if best_head < 0 else self.geometry.local_index(best_head)
        current = self.parents[substream]
        candidates = qualified_parents(
            self.partners.states(),
            substream,
            self.heads[substream],
            best_local,
            self.cfg.tp_seconds,
            self.geometry,
            exclude=() if current is None else (current,),
            cache_window=self.cache.window,
        )
        chosen = choose_parent(
            candidates, substream, self.geometry, self._rng,
            policy=self.cfg.parent_choice,
        )
        if chosen is None:
            # No qualified partner: churn the weakest partner slot so the
            # next maintenance round can try fresh peers ("the node has to
            # drop some partners and re-establish partnership").
            self._shed_useless_partner()
            return False
        old = self.parents[substream]
        if old is not None and old != chosen.node_id:
            self.system.rpc(self.node_id, old, "rpc_unsubscribe",
                            self.node_id, substream)
        self.parents[substream] = chosen.node_id
        from_index = self.heads[substream] + 1
        self.system.rpc(
            self.node_id, chosen.node_id, "rpc_subscribe",
            self.node_id, substream, from_index,
        )
        _obs_inc("core.parent_switches")
        if not initial:
            self.adaptation_count += 1
            _obs_inc("core.adaptations")
            if not force:
                self.cooldown.fire(self.engine.now)
        return True

    def _shed_useless_partner(self) -> None:
        """Drop the least useful non-parent partner to make room."""
        parent_ids = {p for p in self.parents if p is not None}
        droppable = [
            s for s in self.partners.states() if s.node_id not in parent_ids
        ]
        if not droppable or len(self.partners) < self.partners.max_partners:
            return
        worst = min(
            droppable,
            key=lambda s: (-1 if s.bm is None else s.bm.max_head),
        )
        self._drop_partner(worst.node_id, notify=True)

    def _adaptation_check(self) -> None:
        """Evaluate Inequalities (1) and (2) for every subscribed sub-stream
        and re-select the worst violator (at most one per cool-down)."""
        if self.sync is None:
            return
        cfg = self.cfg
        best_head = self.partners.best_partner_head()
        k = self.geometry.n_substreams
        best_local = -1 if best_head < 0 else best_head // k
        heads = self.heads
        max_head = max(heads)
        ts = cfg.ts_seconds
        tp = cfg.tp_seconds
        get_state = self.partners.get
        worst_sub = -1
        worst_lag = -1.0
        # inlined inequality1_ok/inequality2_ok/substream_lag with
        # max(heads) hoisted: this runs every control tick on every
        # buffering/playing node
        for sub, parent in enumerate(self.parents):
            if parent is None:
                continue
            lag = max_head - heads[sub]
            violated = lag >= ts
            if not violated and best_local >= 0:
                state = get_state(parent)
                bm = None if state is None else state.bm
                if bm is not None:
                    g = bm.heads[sub]
                    if g >= 0 and best_local - g // k >= tp:
                        violated = True
            if violated and lag > worst_lag:
                worst_lag = lag
                worst_sub = sub
        if worst_sub >= 0:
            self._reselect_parent(worst_sub)

    def _pull_round(self) -> None:
        """One DONet-style scheduling round (pull mode only).

        Choose the offset on first opportunity, then request missing
        block intervals from qualified suppliers every control tick.
        """
        if not self._choose_offset():
            return
        assert self.pull_req is not None
        suppliers = [
            (s.node_id,
             [s.bm.head_local(sub, self.geometry) for sub in range(self.cfg.n_substreams)])
            for s in self.partners.partners_with_bm()
        ]
        if not suppliers:
            return
        plan = self.pull_req.plan(self.engine.now, self.heads, suppliers, self._rng)
        for pid, requests in plan.items():
            self.system.rpc(self.node_id, pid, "rpc_request_blocks",
                            self.node_id, requests)
        if plan and self.state is NodeState.JOINING:
            self.state = NodeState.BUFFERING

    # ------------------------------------------------------------------
    # subscriptions (parent side)
    # ------------------------------------------------------------------
    def rpc_subscribe(self, child_id: int, substream: int, from_index: int) -> None:
        """A child subscribes to one of our sub-streams.  Always accepted
        (Section IV.B): competition plays out in the water-filling."""
        if not self.alive:
            return
        self.scheduler.subscribe(child_id, substream, from_index, self.engine.now)

    def rpc_unsubscribe(self, child_id: int, substream: int) -> None:
        """A child stops pulling one of our sub-streams."""
        if not self.alive:
            return
        self.scheduler.unsubscribe(child_id, substream)

    def rpc_request_blocks(self, child_id: int, requests: list) -> None:
        """Pull mode: a partner requests block intervals (DONet baseline)."""
        if not self.alive or self.pull_sched is None:
            return
        self.pull_sched.enqueue(child_id, requests)

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def deliver_blocks(self, from_id: int, substream: int, first: int,
                       last: int) -> None:
        """Receive a pushed interval of blocks on ``substream``."""
        if not self.alive or self.sync is None:
            return
        buf = self.sync[substream]
        head = buf.head
        if first > head + 1:
            # blocks before `first` were evicted from the parent's cache
            # before we could fetch them: a permanent hole, marked as "past"
            # (received with the interval) so the head can advance
            if self.playback is not None:
                self.playback.add_hole(substream, head + 1, first - 1)
            buf.receive_range(head + 1, last)
        else:
            buf.receive_range(first, last)
        head = buf.head
        self.heads[substream] = head
        if self.pull_req is not None:
            self.pull_req.note_head(substream, head)
        n = last - first + 1
        self.bits_downloaded += n * self._block_bits
        if self.start_subscription_at is None:
            self.start_subscription_at = self.engine.now
            self.reporter.activity(
                ActivityEvent.START_SUBSCRIPTION, attempt=self.attempt
            )
        if self._state is NodeState.BUFFERING:
            self._maybe_player_ready()

    def _maybe_player_ready(self) -> None:
        if self._state is not NodeState.BUFFERING or self.playback is None:
            return
        combined = min(self.heads) + 1
        if combined - self.start_index >= self.cfg.player_buffer_s:
            self.state = NodeState.PLAYING
            self.player_ready_at = self.engine.now
            self.playback.start(self.engine.now + self.cfg.playout_delay_s)
            self.reporter.activity(ActivityEvent.PLAYER_READY, attempt=self.attempt)

    def _push(self, conn: SubscriptionConn, first: int, last: int) -> None:
        child = self._node_lookup(conn.child_id)
        if child is None or not child.alive:
            self.scheduler.drop_child(conn.child_id)
            return
        child.deliver_blocks(self.node_id, conn.substream, first, last)

    def _pull_push(self, child_id: int, substream: int, first: int,
                   last: int) -> None:
        """Deliver a served pull request to the requesting child."""
        child = self._node_lookup(child_id)
        if child is None or not child.alive:
            if self.pull_sched is not None:
                self.pull_sched.drop_child(child_id)
            return
        child.deliver_blocks(self.node_id, substream, first, last)

    def _delivery_tick(self) -> None:
        now = self.engine.now
        dt = now - self._last_delivery
        self._last_delivery = now
        if dt <= 0:
            return
        if self.scheduler._conns:  # inlined substream_degree: per-tick path
            self.scheduler.deliver(
                dt, self.heads, self._cache_window, self._push
            )
            ctx = _obs_context.current()
            if ctx is not None:
                kind = "server" if self.is_server else "peer"
                reg = ctx.registry
                reg.counter(f"core.upload_quanta.{kind}").inc()
                if self.scheduler.last_saturated:
                    reg.counter(f"core.upload_saturated_quanta.{kind}").inc()
        if self.pull_sched is not None and self.pull_sched.busy_children:
            self.pull_sched.deliver(
                dt, self.heads, self._cache_window, self._pull_push
            )
        if self.playback is not None and self.playback.playing:
            self.playback.advance(dt, self.heads)

    # ------------------------------------------------------------------
    # control tick
    # ------------------------------------------------------------------
    def _control_tick(self) -> None:
        if not self.alive:
            return
        self._control_ticks += 1
        cfg = self.cfg
        now = self.engine.now
        # churn detection: partners that went silent (inlined stale scan --
        # the common case finds nothing and must not allocate)
        stale = None
        timeout = self._stale_timeout
        for state in self.partners._partners.values():
            if now - state.established_at < timeout:
                continue
            t = state.last_bm_time
            if t < 0 or now - t > timeout:
                if stale is None:
                    stale = [state.node_id]
                else:
                    stale.append(state.node_id)
        if stale is not None:
            for pid in stale:
                self._drop_partner(pid, notify=False)
        self._maintain_partnerships()
        self._broadcast_bm()
        if self._control_ticks % self._gossip_every == 0:
            self._gossip()
        if self.pull_mode:
            self._pull_round()
        else:
            if self._state is NodeState.JOINING or (
                # `None in list` short-circuits in C (identity first)
                self.sync is not None and None in self.parents
            ):
                self._join_progress()
            if self._state in (NodeState.BUFFERING, NodeState.PLAYING):
                self._adaptation_check()
        # user patience: sessions that never start playing are abandoned
        if (
            self._state in (NodeState.JOINING, NodeState.BUFFERING)
            and now - self.joined_at > cfg.join_patience_s
        ):
            self.leave(LeaveReason.IMPATIENCE)
            return
        # stall watchdog: an unwatchable stream makes the client depart and
        # re-enter (Section V.D) -- its recent bad continuity is lost to the
        # 5-minute report cadence, which is the Fig. 8 measurement artefact
        if self._state is NodeState.PLAYING and self.playback is not None:
            if self._last_stall_check == float("-inf"):
                self._last_stall_check = now
            elif now - self._last_stall_check >= cfg.stall_window_s:
                self._last_stall_check = now
                recent = self.playback.watchdog_continuity(reset=True)
                if recent is not None and recent < cfg.stall_exit_continuity:
                    self.leave(LeaveReason.FAILURE)

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def _status_reports(self) -> tuple[QoSReport, TrafficReport, PartnerReport]:
        now = self.engine.now
        header = dict(
            time=now, node_id=self.node_id, user_id=self.user_id,
            session_id=self.session_id,
        )
        continuity = None
        buffered = 0.0
        if self.playback is not None:
            continuity = self.playback.window_continuity()
            buffered = self.playback.buffered_seconds(self.heads)
        qos = QoSReport(
            **header,
            continuity=continuity,
            buffered_seconds=buffered,
            n_parents=sum(1 for p in self.parents if p is not None),
            playing=self.state is NodeState.PLAYING,
        )
        up_total = self.scheduler.bits_uploaded
        down_total = self.bits_downloaded
        traffic = TrafficReport(
            **header,
            bytes_up=(up_total - self._bits_up_reported) / 8.0,
            bytes_down=(down_total - self._bits_down_reported) / 8.0,
            total_up=up_total / 8.0,
            total_down=down_total / 8.0,
        )
        self._bits_up_reported = up_total
        self._bits_down_reported = down_total
        partner = PartnerReport(
            **header,
            events=self.reporter.drain_partner_events(),
            n_partners=len(self.partners),
            n_incoming=self.partners.total_incoming_ever,
            n_outgoing=self.partners.total_outgoing_ever,
        )
        return qos, traffic, partner
