"""The Scenario -> Backend driver: one entry point for every experiment.

:func:`run_scenario` is the single way to execute a
:class:`~repro.workload.scenarios.Scenario` on either engine:

1. :func:`sample_workload` draws the workload realization *once* from a
   fresh :class:`~repro.sim.rng.RngHub` seeded with the run seed.  Hub
   streams are derived purely from ``(seed, stream name)`` -- see
   :mod:`repro.sim.rng` -- so the arrays are byte-identical to what
   either engine would have sampled from its own internal hub, and both
   engines consume the *same* arrival/duration/schedule realization.
2. :func:`build_backend` instantiates the requested adapter and applies
   that realization.
3. The backend runs to the horizon and the caller reads the standard
   :class:`~repro.telemetry.server.LogServer` (or engine metrics) off the
   returned :class:`RuntimeResult`.

Engine stochasticity *inside* the run (parent choice, connectivity
draws, silent leaves) still comes from each engine's own named streams,
so the two engines explore different protocol trajectories over the same
audience -- which is exactly what the parity harness
(:mod:`repro.runtime.parity`) compares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.runtime.backends import (
    FluidBackend,
    StreamingBackend,
    resolve_backend,
)
from repro.sim.rng import RngHub
from repro.telemetry.server import LogServer

if TYPE_CHECKING:  # pragma: no cover
    from repro.fastsim import FastSimConfig

__all__ = [
    "WorkloadRealization",
    "RuntimeResult",
    "sample_workload",
    "build_backend",
    "run_scenario",
]

#: RngHub stream names the workload realization is drawn from.  These are
#: load-bearing: they match the names the engines themselves historically
#: used, which is what makes externally sampled arrays bit-identical to
#: the old per-engine wiring.
ARRIVALS_STREAM = "workload.arrivals"
DURATIONS_STREAM = "workload.durations"


@dataclass(frozen=True)
class WorkloadRealization:
    """One sampled audience: what both engines consume for a (scenario,
    seed) pair."""

    times: np.ndarray       # sorted arrival times (s)
    durations: np.ndarray   # intended watch durations (s), aligned
    endings: tuple          # ((time_s, leave_probability), ...)

    def __post_init__(self) -> None:
        if self.times.shape != self.durations.shape:
            raise ValueError("times and durations must align")

    @property
    def n_users(self) -> int:
        """Number of arriving users."""
        return int(self.times.size)


def sample_workload(scenario, seed: int = 0) -> WorkloadRealization:
    """Draw the scenario's workload realization for ``seed``.

    Sampling uses a standalone :class:`RngHub` with the canonical stream
    names, so the result is independent of which engine (if any) will
    consume it, and identical for both.
    """
    hub = RngHub(int(seed))
    # declare the canonical streams so the opt-in seed-discipline
    # sanitizer can police this hub: any other stream created on it, or a
    # draw outside the workload scope, is a discipline violation
    hub.declare(ARRIVALS_STREAM, owner="workload")
    hub.declare(DURATIONS_STREAM, owner="workload")
    with hub.owned_by("workload"):
        times = np.asarray(
            scenario.arrivals.sample(scenario.horizon_s,
                                     hub.stream(ARRIVALS_STREAM)),
            dtype=float,
        )
        durations = np.asarray(
            scenario.duration_model.sample(hub.stream(DURATIONS_STREAM),
                                           len(times)),
            dtype=float,
        )
    return WorkloadRealization(
        times=times,
        durations=durations,
        endings=tuple(scenario.schedule.endings),
    )


@dataclass
class RuntimeResult:
    """A finished (or partially run) scenario execution."""

    scenario: "object"
    engine: str
    seed: int
    backend: StreamingBackend
    workload: WorkloadRealization

    @property
    def log(self) -> LogServer:
        """The run's telemetry log (uniform across engines)."""
        return self.backend.log

    def metrics(self) -> Dict[str, float]:
        """Engine-level metric snapshot at the current simulated time."""
        return self.backend.snapshot_metrics()

    # -- engine-specific escape hatches --------------------------------
    @property
    def system(self):
        """The peer host: :class:`CoolstreamingSystem` on ``detailed``,
        :class:`~repro.net.system.NetSystem` on ``net``; None otherwise."""
        return getattr(self.backend, "system", None)

    @property
    def population(self):
        """The :class:`UserPopulation` (``detailed`` and ``net``; None
        on the other engines or before the first run)."""
        return getattr(self.backend, "population", None)

    @property
    def sim(self):
        """The :class:`FastSimulation` (fluid engine only)."""
        return getattr(self.backend, "sim", None)


def _default_capacity_hint(n_users: int) -> int:
    """Slot capacity covering every arrival plus retry headroom."""
    return 2 * int(n_users) + 64


def build_backend(
    scenario,
    seed: int = 0,
    engine: str = "detailed",
    *,
    workload: Optional[WorkloadRealization] = None,
    fast: Optional[FastSimConfig] = None,
    capacity_hint: Optional[int] = None,
) -> StreamingBackend:
    """Instantiate a backend with the scenario's workload applied.

    Nothing runs yet; callers that need mid-run snapshots (e.g. the
    Fig. 4 overlay series) call :meth:`StreamingBackend.run` with an
    increasing ``until``.
    """
    factory = resolve_backend(engine)  # ValueError on unknown engines
    if workload is None:
        workload = sample_workload(scenario, seed)
    if engine == FluidBackend.name:
        backend: StreamingBackend = FluidBackend(
            scenario,
            seed,
            fast=fast,
            capacity_hint=(capacity_hint if capacity_hint is not None
                           else _default_capacity_hint(workload.n_users)),
        )
    else:
        # every other engine shares the (scenario, seed) constructor shape
        backend = factory(scenario, seed)
    backend.apply_workload(workload.times, workload.durations)
    for time_s, prob in workload.endings:
        backend.add_program_ending(time_s, prob)
    return backend


def run_scenario(
    scenario,
    seed: int = 0,
    engine: str = "detailed",
    *,
    until: Optional[float] = None,
    fast: Optional[FastSimConfig] = None,
    capacity_hint: Optional[int] = None,
) -> RuntimeResult:
    """Run ``scenario`` on the chosen engine and return the result.

    ``until`` defaults to the scenario horizon; ``fast`` and
    ``capacity_hint`` tune the fluid engine and are ignored by the
    detailed one.
    """
    workload = sample_workload(scenario, seed)
    backend = build_backend(
        scenario, seed, engine,
        workload=workload, fast=fast, capacity_hint=capacity_hint,
    )
    backend.run(until if until is not None else scenario.horizon_s)
    # a finished run leaves its log durable: a spilled log's tail chunk
    # rotates to disk here, so the directory is LogReader-complete even
    # though the server stays open (mid-run snapshots may run further)
    backend.log.flush()
    return RuntimeResult(
        scenario=scenario,
        engine=engine,
        seed=int(seed),
        backend=backend,
        workload=workload,
    )
