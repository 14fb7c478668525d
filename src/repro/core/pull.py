"""Pull-mode block scheduling: the DONet/Coolstreaming-v1 baseline.

The system the paper measures *pushes* sub-streams: a child subscribes
once and the parent keeps sending (Section III/IV).  Its predecessor
DONet [3] *pulled*: every scheduling round, a node scanned its partners'
buffer maps and requested the blocks it missed, supplier by supplier.
The paper's design discussion (and the literature around it) credits the
push design with lower latency and less control overhead; this module
implements the pull baseline so that trade-off can be measured instead of
cited.

Child side (:class:`PullRequester`): each round, for every sub-stream,
request the interval from the contiguous head up to a bounded horizon
from one qualified supplier (a partner whose BM covers the interval),
avoiding duplicate in-flight requests and re-requesting on timeout.

Parent side (:class:`PullScheduler`): requested intervals queue per
child; each delivery quantum the parent water-fills its upload over the
children with outstanding requests and drains queues in FIFO order.

Both modes share everything else -- membership, partnerships, BM
exchange, buffering, playback, telemetry -- so a push-vs-pull comparison
isolates the scheduling discipline.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Tuple

from repro.network.fairshare import waterfill_rates
from repro.core.stream import CATCHUP_DEMAND_FACTOR

__all__ = ["PullScheduler", "PullRequester", "PullRequest"]


@dataclass(slots=True)
class PullRequest:
    """One requested block interval of one sub-stream."""

    substream: int
    first: int
    last: int

    def __post_init__(self) -> None:
        if self.last < self.first or self.first < 0:
            raise ValueError(f"bad interval [{self.first}, {self.last}]")

    @property
    def size(self) -> int:
        """Number of blocks covered by this request."""
        return self.last - self.first + 1


class PullScheduler:
    """Parent-side request queues with water-filled service.

    The parent serves whatever is asked ("a parent node ... will always
    accept requests"), bounded only by its upload capacity; competition
    between requesting children is resolved by max-min sharing exactly as
    in push mode, so the two disciplines differ only in *who decides what
    flows*, not in the bandwidth model.
    """

    __slots__ = (
        "upload_bps", "_sub_rate", "_block_bits", "_queues", "_credit",
        "_queued_blocks", "bits_uploaded", "requests_received",
    )

    def __init__(self, upload_bps: float, substream_rate_bps: float,
                 block_bits: float) -> None:
        if upload_bps < 0:
            raise ValueError("upload capacity must be non-negative")
        if substream_rate_bps <= 0 or block_bits <= 0:
            raise ValueError("rates must be positive")
        self.upload_bps = float(upload_bps)
        self._sub_rate = float(substream_rate_bps)
        self._block_bits = float(block_bits)
        self._queues: Dict[int, Deque[PullRequest]] = {}
        self._credit: Dict[int, float] = {}
        # cached per-child queued-block totals, kept in sync with _queues so
        # outstanding() is O(1) and busy_children O(children), not O(queue)
        self._queued_blocks: Dict[int, int] = {}
        self.bits_uploaded = 0.0
        self.requests_received = 0

    # --- request intake -------------------------------------------------
    def enqueue(self, child_id: int, requests: List[PullRequest]) -> None:
        """Accept a child's request batch."""
        if not requests:
            return
        queue = self._queues.setdefault(child_id, deque())
        queue.extend(requests)
        self._credit.setdefault(child_id, 0.0)
        self._queued_blocks[child_id] = (
            self._queued_blocks.get(child_id, 0)
            + sum(r.last - r.first + 1 for r in requests)
        )
        self.requests_received += len(requests)

    def drop_child(self, child_id: int) -> None:
        """Forget a departed child's outstanding requests."""
        self._queues.pop(child_id, None)
        self._credit.pop(child_id, None)
        self._queued_blocks.pop(child_id, None)

    def outstanding(self, child_id: int) -> int:
        """Blocks currently queued for ``child_id``.  O(1)."""
        return self._queued_blocks.get(child_id, 0)

    @property
    def busy_children(self) -> int:
        """Children with a non-empty queue.  O(children), not O(blocks):
        a queued request always covers >= 1 block, so a child's queue is
        non-empty exactly when its cached block count is positive."""
        return sum(1 for n in self._queued_blocks.values() if n)

    # --- the delivery quantum ---------------------------------------------
    def deliver(
        self,
        dt: float,
        parent_heads: List[int],
        window: int,
        push: Callable[[int, int, int, int], None],
    ) -> float:
        """Serve queues for ``dt`` seconds.

        ``window`` is the parent's cache window in blocks (oldest servable
        index is ``max(0, head - window + 1)``); ``push(child_id,
        substream, first, last)`` delivers blocks.  Intervals (or their
        prefixes) the parent cannot serve -- beyond its head or already
        evicted -- are discarded; the child's timeout machinery re-requests
        elsewhere, as in DONet.  Returns bits uploaded.
        """
        busy = [c for c, q in self._queues.items() if q]
        if not busy:
            return 0.0
        window = int(window)
        queued = self._queued_blocks
        demands = [self._sub_rate * CATCHUP_DEMAND_FACTOR] * len(busy)
        if sum(demands) <= self.upload_bps:
            rates = demands
        else:
            rates = waterfill_rates(self.upload_bps, demands)
        bits = 0.0
        for child, rate in zip(busy, rates):
            budget = self._credit.get(child, 0.0) + rate * dt / self._block_bits
            queue = self._queues[child]
            served_or_dropped = 0
            while queue and budget >= 1.0:
                req = queue[0]
                head = parent_heads[req.substream]
                if head < 0:
                    queue.popleft()  # nothing servable; child will retry
                    served_or_dropped += req.last - req.first + 1
                    continue
                floor = head - window + 1
                # clamp to what we can actually serve
                first = req.first if req.first >= floor else floor
                last = req.last if req.last <= head else head
                if last < first:
                    queue.popleft()  # nothing servable; child will retry
                    served_or_dropped += req.last - req.first + 1
                    continue
                n = min(int(budget), last - first + 1)
                push(child, req.substream, first, first + n - 1)
                bits += n * self._block_bits
                budget -= n
                if first + n - 1 >= req.last:
                    queue.popleft()
                    served_or_dropped += req.last - req.first + 1
                else:
                    served_or_dropped += first + n - req.first
                    req.first = first + n
            # push() can re-enter drop_child (the child departed); a child
            # dropped mid-loop keeps outstanding == 0 rather than resurrecting
            if served_or_dropped and child in queued:
                queued[child] -= served_or_dropped
            self._credit[child] = min(budget, 2.0)
        self.bits_uploaded += bits
        return bits


class PullRequester:
    """Child-side round-based request planner.

    Parameters
    ----------
    n_substreams:
        K.
    horizon_blocks:
        How far beyond the contiguous head to request per round (the
        DONet scheduling window).
    timeout_s:
        Re-request blocks not delivered within this long.
    """

    __slots__ = (
        "k", "horizon", "timeout_s", "_requested_until", "_requested_at",
        "requests_sent",
    )

    def __init__(self, n_substreams: int, horizon_blocks: int,
                 timeout_s: float) -> None:
        if n_substreams < 1 or horizon_blocks < 1:
            raise ValueError("bad requester geometry")
        if timeout_s <= 0:
            raise ValueError("timeout must be positive")
        self.k = n_substreams
        self.horizon = int(horizon_blocks)
        self.timeout_s = float(timeout_s)
        # per sub-stream: highest block index requested, and when
        self._requested_until: List[int] = [-1] * n_substreams
        self._requested_at: List[float] = [float("-inf")] * n_substreams
        self.requests_sent = 0

    def note_head(self, substream: int, head: int) -> None:
        """Observe the contiguous head advancing (deliveries arrived)."""
        if head > self._requested_until[substream]:
            self._requested_until[substream] = head

    def plan(
        self,
        now: float,
        heads: List[int],
        suppliers: List[Tuple[int, List[int]]],
        rng,
    ) -> Dict[int, List[PullRequest]]:
        """One scheduling round.

        ``suppliers`` is ``[(partner_id, partner_local_heads), ...]`` from
        the freshest buffer maps.  Returns partner_id -> request batch.
        A sub-stream with an un-expired in-flight request is skipped;
        expired ones are re-planned from the current head (the timeout
        re-request of DONet).
        """
        if len(heads) != self.k:
            raise ValueError("heads arity mismatch")
        plan: Dict[int, List[PullRequest]] = {}
        for sub in range(self.k):
            head = heads[sub]
            in_flight = self._requested_until[sub] > head
            if in_flight and (now - self._requested_at[sub]) < self.timeout_s:
                continue
            first = head + 1
            last = first + self.horizon - 1
            # qualified suppliers hold at least the first needed block
            capable = [
                (pid, pheads) for pid, pheads in suppliers
                if pheads[sub] >= first
            ]
            if not capable:
                continue
            pid, pheads = capable[int(rng.integers(len(capable)))]
            last = min(last, pheads[sub])
            req = PullRequest(substream=sub, first=first, last=last)
            plan.setdefault(pid, []).append(req)
            self._requested_until[sub] = last
            self._requested_at[sub] = now
            self.requests_sent += 1
        return plan
