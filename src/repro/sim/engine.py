"""Event-driven simulation kernel.

The kernel is deliberately small and callback-based rather than
coroutine-based: profiling mesh-pull workloads showed that the dominant cost
at scale is per-event overhead, and a plain ``heapq`` of ``(time, seq,
event)`` tuples is several times cheaper than generator-based processes.
Protocol code schedules closures; periodic behaviour uses
:class:`PeriodicTask`, which keeps one pending event of its own on the heap.

Three design points keep the constant factors down at paper scale:

* heap entries are plain tuples, so every sift comparison resolves on the
  ``(time, seq)`` prefix in C without calling back into Python;
* ``__len__`` is O(1): a live-event counter is maintained on schedule,
  cancel and pop instead of scanning the heap;
* cancellation is lazy (a flag checked on pop), but when cancelled entries
  outnumber live ones the heap is compacted in one O(n) pass -- partner
  reselection churn would otherwise grow the heap without bound.

There are two run loops: the plain one, used when no :mod:`repro.obs`
session is attached, and one instrumented loop serving metrics-only and
tracing sessions alike (:meth:`Engine._loop_observed`).

Determinism: events scheduled for the same timestamp fire in scheduling
order (a monotonically increasing sequence number breaks ties), so a run is
bit-for-bit reproducible given the same seed and scenario.  Compaction
cannot reorder anything: ``(time, seq)`` is a total order, so the pop
sequence of the rebuilt heap is identical to the lazy one.  Times and
delays are checked so that NaN fails every check: a NaN on the heap would
break that total order.
"""

from __future__ import annotations

import heapq
import itertools
import math
from time import perf_counter
from typing import Any, Callable, List, Optional, Tuple

from repro.obs import context as _obs_context

__all__ = ["Engine", "Event", "PeriodicTask", "SimulationError"]

#: Compaction threshold: never compact heaps smaller than this (the O(n)
#: rebuild is not worth it below a few hundred entries).
_COMPACT_MIN_HEAP = 512


class SimulationError(RuntimeError):
    """Raised on kernel misuse (scheduling in the past, running twice...)."""


class Event:
    """A scheduled callback.

    The heap stores ``(time, seq, event)`` tuples with a unique ``seq``, so
    sift comparisons never reach the event.  Cancelling an event merely
    flags it; the heap entry is skipped lazily when popped (cheaper than
    heap surgery for the cancellation rates seen in partner-reselection
    workloads), though the engine compacts in bulk when cancellations
    pile up.
    """

    __slots__ = ("time", "seq", "fn", "cancelled", "_engine")

    def __init__(self, time: float, seq: int, fn: Callable[[], None],
                 cancelled: bool = False, engine: Optional["Engine"] = None) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.cancelled = cancelled
        # back-reference used to maintain the engine's O(1) live-event
        # counter; detached (set to None) once the entry leaves the heap so
        # late cancels cannot corrupt the count
        self._engine = engine

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flag = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time} seq={self.seq}{flag}>"

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent.  The callback is
        dropped at once: the entry may sit in the heap for up to a period
        longer, and must not keep what the callback refers to alive."""
        if self.cancelled:
            return
        self.cancelled = True
        self.fn = None
        eng = self._engine
        if eng is not None:
            self._engine = None
            eng._live -= 1
            eng._maybe_compact()


class Engine:
    """Binary-heap discrete-event loop.

    Parameters
    ----------
    start_time:
        Simulated clock value at which the engine starts (seconds).

    Examples
    --------
    >>> eng = Engine()
    >>> out = []
    >>> _ = eng.schedule(5.0, lambda: out.append(eng.now))
    >>> eng.run(until=10.0)
    >>> out
    [5.0]
    """

    def __init__(self, start_time: float = 0.0) -> None:
        #: Current simulated time in seconds.  A plain attribute (the hot
        #: loops write it per event and protocol code reads it constantly);
        #: treat as read-only outside the kernel.
        self.now = float(start_time)
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._live = 0  # non-cancelled entries currently in the heap
        self._running = False
        self._stopped = False
        self.events_processed = 0
        self.events_cancelled = 0
        self.heap_compactions = 0
        # observability: engines created inside an active repro.obs session
        # attach automatically; otherwise the kernel keeps its original,
        # instrumentation-free loop (the disabled fast path)
        self._obs = _obs_context.current()

    # ------------------------------------------------------------------
    # clock & introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of pending (non-cancelled) events.  O(1)."""
        return self._live

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` to run ``delay`` seconds from now.

        Returns the :class:`Event`, which may be cancelled.
        """
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = next(self._seq)
        time = float(self.now + delay)
        ev = Event(time, seq, fn, False, self)
        heapq.heappush(self._heap, (time, seq, ev))
        self._live += 1
        return ev

    def schedule_at(self, time: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` at absolute simulated time ``time``."""
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        time = float(time)
        seq = next(self._seq)
        ev = Event(time, seq, fn, False, self)
        heapq.heappush(self._heap, (time, seq, ev))
        self._live += 1
        return ev

    # ------------------------------------------------------------------
    # heap hygiene
    # ------------------------------------------------------------------
    def _maybe_compact(self) -> None:
        """Rebuild the heap without cancelled entries once they dominate.

        Triggered from :meth:`Event.cancel`: when more than half the heap
        is dead weight (and the heap is big enough to matter), one O(n)
        heapify is cheaper than sifting every future push/pop through the
        corpses.  Removed entries count towards :attr:`events_cancelled`,
        exactly as if the loop had popped and skipped them.
        """
        heap = self._heap
        dead = len(heap) - self._live
        if dead <= self._live or len(heap) < _COMPACT_MIN_HEAP:
            return
        # in-place rebuild: the run loops hold a reference to this list
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self.events_cancelled += dead
        self.heap_compactions += 1

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Process events until the heap empties, ``until`` is reached, or
        ``max_events`` have fired.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier, so periodic statistics windows
        close deterministically.
        """
        if self._running:
            raise SimulationError("engine is already running")
        if until is not None and math.isnan(until):
            raise SimulationError("run(until=nan): the horizon must be a number")
        self._running = True
        self._stopped = False
        try:
            if self._obs is None:
                self._loop(until, max_events)
            else:
                self._loop_observed(until, max_events)
        finally:
            self._running = False
        if until is not None and not self._stopped and self.now < until:
            self.now = until

    def _loop(self, until: Optional[float], max_events: Optional[int]) -> None:
        """The original instrumentation-free hot loop (disabled fast path:
        observability adds exactly one ``is None`` dispatch per ``run()``
        call, nothing per event)."""
        fired = 0
        heap = self._heap
        pop = heapq.heappop
        # sentinel bounds turn the per-event `is not None` guards into one
        # plain comparison each (never true for the sentinels)
        if until is None:
            until = float("inf")
        if max_events is None:
            max_events = 0x7FFFFFFFFFFFFFFF
        while heap:
            entry = heap[0]
            ev = entry[2]
            if ev.cancelled:
                pop(heap)
                self.events_cancelled += 1
                continue
            time = entry[0]
            if time > until or fired >= max_events:
                break
            pop(heap)
            self._live -= 1
            ev._engine = None
            self.now = time
            ev.fn()
            fired += 1
            self.events_processed += 1
            if self._stopped:
                break

    def _loop_observed(self, until: Optional[float], max_events: Optional[int]) -> None:
        """Instrumented twin of :meth:`_loop`, for metrics and tracing alike.

        Per-event counters are batched (exact totals, flushed at every
        snapshot and when the loop exits, even by an exception).  The
        expensive reads -- a ``perf_counter`` pair, the callback's
        ``__qualname__``, the heap-depth gauges -- run on *sampled* events
        only: one in 64 in a metrics-only session, every event when the
        session traces, each sampled event then also emitting one
        ``cat="engine"`` trace span.  Sampling is by deterministic event
        index, so counters -- the seed-determinism subset -- stay exact.
        Simulation behaviour (event order, clock, RNG) is bit-identical to
        the plain loop in both tiers: instrumentation only reads.
        """
        ctx = self._obs
        reg = ctx.registry
        trace = ctx.trace
        progress = ctx.progress
        mask = 0 if trace is not None else 0x3F
        c_exec = reg.batched_counter("engine.events_executed")
        c_cancel = reg.batched_counter("engine.events_cancelled")
        g_heap = reg.gauge("engine.heap_depth")
        g_heap_max = reg.gauge("engine.heap_depth_max")
        site_timers: dict = {}
        fired = 0
        heap = self._heap
        pop = heapq.heappop
        if until is None:
            until = float("inf")
        if max_events is None:
            max_events = 0x7FFFFFFFFFFFFFFF
        try:
            while heap:
                entry = heap[0]
                ev = entry[2]
                if ev.cancelled:
                    pop(heap)
                    self.events_cancelled += 1
                    c_cancel.pending += 1
                    continue
                time = entry[0]
                if time > until or fired >= max_events:
                    break
                pop(heap)
                self._live -= 1
                ev._engine = None
                self.now = time
                fn = ev.fn
                if fired & mask:
                    # unsampled fast path: clock read and site lookup skipped
                    fn()
                else:
                    t0 = perf_counter()  # repro: noqa[DET002] obs event-timer instrumentation only
                    fn()
                    dur = perf_counter() - t0  # repro: noqa[DET002] obs event-timer instrumentation only
                    site = getattr(fn, "__qualname__", None) or type(fn).__name__
                    timer = site_timers.get(site)
                    if timer is None:
                        timer = reg.timer(f"engine.callback.{site}")
                        site_timers[site] = timer
                    timer.observe(dur)
                    if trace is not None:
                        trace.complete(site, trace.rel_us(t0), dur * 1e6,
                                       cat="engine", sim_time=time)
                    depth = len(heap)
                    g_heap.set(depth)
                    g_heap_max.max(depth)
                fired += 1
                self.events_processed += 1
                c_exec.pending += 1
                if progress is not None and not (fired & 0x3FF):
                    progress.maybe_beat(self.now, self.events_processed)
                if self._stopped:
                    break
        finally:
            # exact totals even if a callback raised mid-loop
            reg.flush_batched()

    def stop(self) -> None:
        """Stop the loop after the current callback returns."""
        self._stopped = True


class PeriodicTask:
    """Re-arming timer: runs ``fn`` every ``period`` seconds until stopped.

    The first invocation happens after ``first_delay`` (default: one full
    period).  Optional jitter decorrelates peers that start simultaneously --
    e.g. 5-minute status reports in a flash crowd must not all land on the
    log server in the same instant, exactly as in the deployed system where
    report phase depends on join time.

    A task owns one pending event at a time: it arms it through
    :meth:`Engine.schedule` and re-arms it after each firing, so tasks on
    one cadence fire in ``(time, seq)`` order like any other events.  A
    jittered task draws a fresh offset at every arming; an unjittered one
    draws nothing.
    """

    __slots__ = (
        "_engine", "_period", "_fn", "_jitter", "_rng", "_stopped", "_event",
    )

    def __init__(
        self,
        engine: Engine,
        period: float,
        fn: Callable[[], None],
        *,
        first_delay: Optional[float] = None,
        jitter: float = 0.0,
        rng: Optional[Any] = None,
    ) -> None:
        if not period > 0:
            raise SimulationError(f"period must be positive (got {period})")
        if jitter and rng is None:
            raise SimulationError("jitter requires an rng")
        self._engine = engine
        self._period = float(period)
        self._fn = fn
        self._jitter = float(jitter)
        self._rng = rng
        self._stopped = False
        self._event: Optional[Event] = None
        self._arm(self._period if first_delay is None else float(first_delay))

    def _arm(self, delay: float) -> None:
        if self._jitter:
            delay = max(0.0, delay + self._rng.uniform(-self._jitter, self._jitter))
        self._event = self._engine.schedule(delay, self._tick)

    def _tick(self) -> None:
        # a stopped task's pending event is cancelled, so it never gets here
        self._fn()
        if not self._stopped:
            self._arm(self._period)

    def stop(self) -> None:
        """Stop the task; pending firing is cancelled.

        The callback is dropped too: it is usually a bound method of the
        task's owner, which holds the task, and that cycle would keep a
        departed peer alive until the cyclic GC ran."""
        if self._stopped:
            return
        self._stopped = True
        self._event.cancel()
        self._fn = None
