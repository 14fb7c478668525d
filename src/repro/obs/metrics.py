"""Zero-dependency metrics registry: counters, gauges, histograms, timers.

This is the *simulator-side* instrumentation store -- deliberately distinct
from :mod:`repro.telemetry`, which models the measured system's own log
pipeline (Section V.A) and must keep reading only parsed log strings.  The
registry measures the measurement machine itself: event-loop throughput,
fastsim step cost, adaptation storms, protocol hot-spot rates.

Design constraints:

* **Determinism.** Counters and gauges record only simulation-deterministic
  quantities (event counts, peer counts); wall-clock observations live in
  timers/histograms, which are excluded from :meth:`MetricsRegistry.
  counter_values` so seed-determinism checks can compare runs.
* **Near-zero overhead when disabled.** Disabled code paths never reach
  this module at all (the engines keep a ``None`` observer and run their
  original loops); where a guard is impractical the :data:`NULL_REGISTRY`
  accepts every call as a no-op.
* **No dependencies.** Pure stdlib so the registry can be imported from
  any layer (kernel, fastsim, core protocol) without cycles.
"""

from __future__ import annotations

import bisect
import math
import re
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "Counter",
    "BatchedCounter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_TIME_BUCKETS_S",
]

# Fixed bucket boundaries for wall-time histograms (seconds).  Spanning
# 10 us .. 10 s covers everything from a no-op callback to a whole fastsim
# step over a million peers.
DEFAULT_TIME_BUCKETS_S: Tuple[float, ...] = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0, 10.0,
)


class Counter:
    """Monotonically increasing count of simulation-deterministic events."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (default 1) to the counter."""
        self.value += n


class BatchedCounter:
    """Write-combining facade over a :class:`Counter` for hot loops.

    Increments accumulate in :attr:`pending` (hot paths may bump the
    attribute directly, skipping even the method call) and fold into the
    registry-visible counter at snapshot boundaries --
    :meth:`MetricsRegistry.snapshot` and
    :meth:`MetricsRegistry.counter_values` flush first, so every exported
    value is exact and ``counter_values`` output is identical to
    unbatched counting.
    """

    __slots__ = ("counter", "pending")

    kind = "counter"

    def __init__(self, counter: Counter) -> None:
        self.counter = counter
        self.pending = 0

    @property
    def name(self) -> str:
        """The underlying counter's name."""
        return self.counter.name

    @property
    def value(self) -> int:
        """Exact current count (flushed + pending)."""
        return self.counter.value + self.pending

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (default 1) to the pending batch."""
        self.pending += n

    def flush(self) -> None:
        """Fold the pending batch into the underlying counter."""
        if self.pending:
            self.counter.value += self.pending
            self.pending = 0


class Gauge:
    """A point-in-time value (heap depth, live peers, RSS...)."""

    __slots__ = ("name", "value")

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        self.value = value

    def max(self, value: float) -> None:
        """Keep the running maximum."""
        if value > self.value:
            self.value = value


class Histogram:
    """Fixed-boundary histogram (cumulative bucket counts + sum + count).

    Bucket semantics follow the Prometheus convention: ``buckets[i]``
    counts observations ``<= bounds[i]``, with an implicit ``+Inf`` bucket
    equal to ``count``.
    """

    __slots__ = ("name", "bounds", "buckets", "count", "total")

    kind = "histogram"

    def __init__(self, name: str,
                 bounds: Sequence[float] = DEFAULT_TIME_BUCKETS_S) -> None:
        if list(bounds) != sorted(bounds) or len(bounds) == 0:
            raise ValueError("bucket bounds must be a non-empty sorted sequence")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.buckets: List[int] = [0] * len(self.bounds)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        idx = bisect.bisect_left(self.bounds, value)
        if idx < len(self.buckets):
            self.buckets[idx] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        """Mean observation (NaN when empty)."""
        return self.total / self.count if self.count else math.nan

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, Prometheus-style."""
        out: List[Tuple[float, int]] = []
        acc = 0
        for bound, n in zip(self.bounds, self.buckets):
            acc += n
            out.append((bound, acc))
        return out


class Timer:
    """Wall-time accumulator backed by a :class:`Histogram`.

    Use as a context manager for convenience, or feed externally measured
    durations to :meth:`observe` on hot paths (avoids ``with`` overhead).
    """

    __slots__ = ("name", "hist", "_t0")

    kind = "timer"

    def __init__(self, name: str,
                 bounds: Sequence[float] = DEFAULT_TIME_BUCKETS_S) -> None:
        self.name = name
        self.hist = Histogram(name, bounds)
        self._t0 = 0.0

    def observe(self, seconds: float) -> None:
        """Record an externally measured duration."""
        self.hist.observe(seconds)

    @property
    def count(self) -> int:
        """Number of recorded durations."""
        return self.hist.count

    def __enter__(self) -> "Timer":
        from time import perf_counter
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        from time import perf_counter
        self.hist.observe(perf_counter() - self._t0)


class MetricsRegistry:
    """Name-keyed store of metrics with get-or-create accessors.

    Metric names are dotted paths (``engine.events_executed``,
    ``fastsim.step_s``); the Prometheus exporter sanitizes them.
    """

    enabled = True

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}
        self._batched: Dict[str, BatchedCounter] = {}

    # --- get-or-create accessors ------------------------------------------
    def _get(self, name: str, cls, *args):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, *args)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """Get or create a counter."""
        return self._get(name, Counter)

    def batched_counter(self, name: str) -> BatchedCounter:
        """Get or create a write-combining facade over ``counter(name)``.

        The underlying counter is registered as usual; the facade is
        shared per name, so hot loops and slow paths can mix
        ``batched_counter(n)`` and ``counter(n)`` against one total.
        """
        batched = self._batched.get(name)
        if batched is None:
            batched = BatchedCounter(self.counter(name))
            self._batched[name] = batched
        return batched

    def flush_batched(self) -> None:
        """Fold every batched counter's pending increments in (called
        automatically by :meth:`snapshot` / :meth:`counter_values`)."""
        for batched in self._batched.values():
            batched.flush()

    def gauge(self, name: str) -> Gauge:
        """Get or create a gauge."""
        return self._get(name, Gauge)

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_TIME_BUCKETS_S) -> Histogram:
        """Get or create a fixed-boundary histogram."""
        return self._get(name, Histogram, bounds)

    def timer(self, name: str,
              bounds: Sequence[float] = DEFAULT_TIME_BUCKETS_S) -> Timer:
        """Get or create a wall-time timer."""
        return self._get(name, Timer, bounds)

    # --- views -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def metrics(self) -> List[object]:
        """All registered metrics, sorted by name."""
        return [self._metrics[k] for k in sorted(self._metrics)]

    def counter_values(self) -> Dict[str, int]:
        """``name -> value`` for counters only -- the deterministic subset
        compared by the seed-determinism regression test."""
        self.flush_batched()
        return {
            name: m.value for name, m in sorted(self._metrics.items())
            if isinstance(m, Counter)
        }

    def snapshot(self) -> Dict[str, object]:
        """Flat JSON-serialisable view of every metric.

        Counters/gauges map to their value; histograms and timers map to
        ``{count, total, mean, buckets}``.
        """
        self.flush_batched()
        out: Dict[str, object] = {}
        for name in sorted(self._metrics):
            m = self._metrics[name]
            if isinstance(m, (Counter, Gauge)):
                out[name] = m.value
            else:
                hist = m.hist if isinstance(m, Timer) else m
                mean = hist.mean
                out[name] = {
                    "count": hist.count,
                    "total": hist.total,
                    "mean": None if math.isnan(mean) else mean,
                    "buckets": hist.cumulative_buckets(),
                }
        return out


class _NullMetric:
    """Shared sink for every metric operation when observability is off."""

    __slots__ = ("pending",)
    value = 0
    count = 0
    total_s = 0.0

    def __init__(self) -> None:
        # batched-counter call sites may bump ``pending`` directly
        self.pending = 0

    def inc(self, n: int = 1) -> None:
        pass

    def flush(self) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def max(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_METRIC = _NullMetric()


class NullRegistry:
    """No-op registry: every accessor returns the same inert metric.

    Lets call sites write ``registry.counter("x").inc()`` unconditionally
    in paths where threading an ``if`` guard through would hurt clarity
    more than the two no-op calls hurt speed.
    """

    enabled = False

    def counter(self, name: str) -> _NullMetric:
        """Return the shared no-op metric."""
        return _NULL_METRIC

    gauge = counter
    histogram = counter
    timer = counter
    batched_counter = counter

    def flush_batched(self) -> None:
        """Nothing to flush."""

    def __len__(self) -> int:
        return 0

    def __contains__(self, name: str) -> bool:
        return False

    def metrics(self) -> List[object]:
        """Always empty."""
        return []

    def counter_values(self) -> Dict[str, int]:
        """Always empty."""
        return {}

    def snapshot(self) -> Dict[str, object]:
        """Always empty."""
        return {}


NULL_REGISTRY = NullRegistry()

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def prometheus_name(name: str) -> str:
    """Sanitize a dotted metric name for the Prometheus text format."""
    sane = _NAME_RE.sub("_", name)
    if sane and sane[0].isdigit():
        sane = "_" + sane
    return f"repro_{sane}"


def render_prometheus(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format."""
    registry.flush_batched()
    lines: List[str] = []
    for metric in registry.metrics():
        name = prometheus_name(metric.name)
        if isinstance(metric, Counter):
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {metric.value}")
        elif isinstance(metric, Gauge):
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {metric.value}")
        else:
            hist = metric.hist if isinstance(metric, Timer) else metric
            if isinstance(metric, Timer):
                name += "_seconds"
            lines.append(f"# TYPE {name} histogram")
            for bound, acc in hist.cumulative_buckets():
                lines.append(f'{name}_bucket{{le="{bound:g}"}} {acc}')
            lines.append(f'{name}_bucket{{le="+Inf"}} {hist.count}')
            lines.append(f"{name}_sum {hist.total}")
            lines.append(f"{name}_count {hist.count}")
    return "\n".join(lines) + ("\n" if lines else "")
