"""The ambient observability context.

An :class:`ObsContext` bundles one run's registry, optional trace
collector, optional progress reporter and the run manifest.  Exactly one
context may be *active* at a time; engines created while it is active
attach themselves automatically (:class:`repro.sim.engine.Engine`,
:class:`repro.fastsim.engine.FastSimulation`), so experiment code needs no
signature changes to become observable.

When no context is active, the engines keep their original,
instrumentation-free hot loops and the module-level counter helpers
(:func:`repro.obs.inc`) are cheap no-ops -- observability costs nothing
unless asked for.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional

from repro.obs.exporters import JsonlMetricsWriter
from repro.obs.manifest import RunManifest, manifest_path_for, peak_rss_bytes
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressReporter
from repro.obs.trace import TraceCollector

__all__ = ["ObsError", "ObsContext", "current", "activate", "deactivate",
           "session"]


class ObsError(RuntimeError):
    """Raised on observability misuse (a second session, deactivating an
    inactive context)."""


class ObsContext:
    """One run's worth of observability state."""

    def __init__(
        self,
        *,
        registry: Optional[MetricsRegistry] = None,
        trace: Optional[TraceCollector] = None,
        progress: Optional[ProgressReporter] = None,
        manifest: Optional[RunManifest] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.trace = trace
        self.progress = progress
        self.manifest = manifest if manifest is not None else RunManifest()
        # gauge providers are sampled at every snapshot beat: systems
        # register cheap callables (live peer count, running continuity)
        # instead of updating gauges from their hot paths
        self.gauge_providers: Dict[str, Callable[[], float]] = {}

    def register_gauge_provider(
        self, name: str, fn: Callable[[], float]
    ) -> None:
        """Install (or replace) a gauge provider sampled at each beat."""
        self.gauge_providers[name] = fn

    def sample_gauge_providers(self) -> None:
        """Pull every registered provider into its gauge, plus peak RSS."""
        for name, fn in self.gauge_providers.items():
            try:
                value = float(fn())
            except Exception:  # pragma: no cover - provider died mid-run
                continue
            if value == value:  # skip NaN (e.g. continuity before playback)
                self.registry.gauge(name).set(value)
        self.registry.gauge("run.peak_rss_mb").set(
            peak_rss_bytes() / (1024.0 * 1024.0)
        )

    # convenience pass-throughs used by instrumented call sites
    def note_config(self, cfg) -> None:
        """Record a config fingerprint in the run manifest."""
        self.manifest.note_config(cfg)

    def note_seed(self, seed: int) -> None:
        """Record the root seed in the run manifest."""
        self.manifest.note_seed(seed)


# the single ambient context (None = observability off)
_ACTIVE: Optional[ObsContext] = None


def current() -> Optional[ObsContext]:
    """The active context, or None when observability is off."""
    return _ACTIVE


def activate(ctx: ObsContext) -> ObsContext:
    """Make ``ctx`` the ambient context.  Refuses to nest (the
    double-instrumentation guard: two active sessions would double-count
    every hot-spot counter)."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise ObsError("an observability session is already active")
    _ACTIVE = ctx
    return ctx


def deactivate(ctx: Optional[ObsContext] = None) -> None:
    """Clear the ambient context (optionally verifying identity)."""
    global _ACTIVE
    if ctx is not None and _ACTIVE is not ctx and _ACTIVE is not None:
        raise ObsError("deactivating a context that is not active")
    _ACTIVE = None


@contextmanager
def session(
    *,
    metrics_path=None,
    trace_path=None,
    progress: bool = False,
    progress_interval_s: float = 5.0,
    scenario: Optional[str] = None,
    seed: Optional[int] = None,
    stream=None,
    trace_max_events: int = 500_000,
) -> Iterator[ObsContext]:
    """Run a block under an active observability session.

    On exit: a final metrics snapshot and the run manifest are written
    (when ``metrics_path`` is given), the Chrome trace is serialised (when
    ``trace_path`` is given), and the ambient context is cleared.  The
    progress heartbeat doubles as the JSONL time-series driver: every beat
    appends a snapshot line.
    """
    writer = JsonlMetricsWriter(metrics_path) if metrics_path else None
    trace = TraceCollector(max_events=trace_max_events) if trace_path else None
    registry = MetricsRegistry()

    manifest = RunManifest(scenario=scenario, seed=seed)
    ctx = ObsContext(registry=registry, trace=trace, progress=None,
                     manifest=manifest)

    reporter: Optional[ProgressReporter] = None
    if progress or writer is not None:
        on_beat = None
        if writer is not None:
            def on_beat(sim_t):
                ctx.sample_gauge_providers()
                writer.snapshot(registry, sim_t)
        reporter = ProgressReporter(
            interval_s=progress_interval_s,
            stream=stream if stream is not None else sys.stderr,
            print_lines=progress,
            on_beat=on_beat,
        )
        ctx.progress = reporter

    activate(ctx)
    try:
        yield ctx
    finally:
        deactivate(ctx)
        try:
            if writer is not None:
                ctx.sample_gauge_providers()
                writer.snapshot(registry, None)
                writer.close()
            if trace is not None and trace_path is not None:
                trace.write(trace_path)
            sidecar_source = metrics_path or trace_path
            if sidecar_source is not None:
                manifest.note("metrics_path", str(metrics_path) if metrics_path else None)
                manifest.note("trace_path", str(trace_path) if trace_path else None)
                manifest.write(manifest_path_for(sidecar_source))
        except OSError as exc:  # pragma: no cover - disk full etc.
            print(f"[obs] export failed: {exc}", file=sys.stderr)
