"""Engine adapters: one driving surface over both simulation engines.

The repo grew two ways to run an experiment -- the event-driven reference
engine (:class:`~repro.core.system.CoolstreamingSystem` driven by a
:class:`~repro.workload.users.UserPopulation`) and the vectorized fluid
engine (:class:`~repro.fastsim.engine.FastSimulation`).  Both consume the
same *workload realization* (arrival times, intended durations, program
endings) and both report into a standard
:class:`~repro.telemetry.server.LogServer`, so everything above the
engine -- analysis, figures, campaigns -- can be engine-agnostic.

:class:`StreamingBackend` is that contract.  The two adapters here keep
every engine-specific decision (population wiring, capacity hints, slot
arrays) behind it:

* :class:`DetailedBackend` -- per-peer protocol fidelity: real control
  messages, mCache gossip, per-block buffers.  Cost grows with events,
  i.e. roughly peers x partners x time.
* :class:`FluidBackend` -- the fluid approximation: array state, one
  vectorized step per ``dt``.  Cost grows with peers x steps, so it
  reaches populations the detailed engine cannot.

Workload arrays are applied, not sampled: the driver
(:func:`repro.runtime.driver.sample_workload`) draws them once from
hub-seed-derived named streams, so both backends consume byte-identical
realizations for the same (scenario, seed).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.core.node import NodeState
from repro.core.system import CoolstreamingSystem
from repro.telemetry.server import LogServer
from repro.workload.sessions import ProgramSchedule
from repro.workload.users import UserPopulation

if TYPE_CHECKING:  # pragma: no cover
    from repro.fastsim import FastSimConfig

__all__ = [
    "StreamingBackend",
    "DetailedBackend",
    "FluidBackend",
    "BackendStartupError",
    "register_backend",
    "available_engines",
    "resolve_backend",
]


class BackendStartupError(RuntimeError):
    """A backend could not bring its runtime up (listen port already in
    use, coordinator unreachable, ...).  Distinct from a *failed run* so
    CLIs can report it uniformly: startup failures exit 1 with a clean
    one-line message instead of a traceback."""


@runtime_checkable
class StreamingBackend(Protocol):
    """What the runtime driver needs from a simulation engine.

    The lifecycle is: construct -> :meth:`apply_workload` (once) ->
    :meth:`add_program_ending` (any number of times) -> :meth:`run`
    (repeatedly, monotone ``until``) -> read :attr:`log` /
    :meth:`snapshot_metrics`.
    """

    #: short engine name ("detailed" or "fast"); part of campaign run keys
    name: str

    def apply_workload(self, times: np.ndarray, durations: np.ndarray) -> None:
        """Register the audience: one (arrival time, intended duration)
        pair per user, user ids assigned by position."""
        ...

    def add_program_ending(self, time_s: float, leave_probability: float) -> None:
        """Schedule a program-end departure wave."""
        ...

    def run(self, until: float) -> None:
        """Advance simulated time to ``until``."""
        ...

    @property
    def log(self) -> LogServer:
        """The telemetry log both engines report into."""
        ...

    def snapshot_metrics(self) -> Dict[str, float]:
        """Engine-level health metrics at the current simulated time."""
        ...


class DetailedBackend:
    """The event-driven reference engine behind the backend contract.

    Construction wires nothing: the population is materialized lazily so
    program endings registered after :meth:`apply_workload` still land in
    the :class:`~repro.workload.sessions.ProgramSchedule` the population
    is attached with -- exactly how ``Scenario.build`` always wired it,
    keeping event scheduling order (hence runs) bit-identical.
    """

    name = "detailed"

    def __init__(self, scenario, seed: int = 0) -> None:
        self.scenario = scenario
        self.seed = int(seed)
        self.system = CoolstreamingSystem(
            scenario.cfg,
            seed=seed,
            capacity_model=scenario.capacity_model,
            connectivity_mix=scenario.connectivity_mix,
        )
        self.population: Optional[UserPopulation] = None
        self._times: Optional[np.ndarray] = None
        self._durations: Optional[np.ndarray] = None
        self._endings: List[Tuple[float, float]] = []

    # -- workload ------------------------------------------------------
    def apply_workload(self, times: np.ndarray, durations: np.ndarray) -> None:
        """Stage the audience (materialized on the first :meth:`run`)."""
        if self._times is not None:
            raise RuntimeError("workload already applied")
        times = np.asarray(times, dtype=float)
        durations = np.asarray(durations, dtype=float)
        if times.shape != durations.shape:
            raise ValueError("times and durations must align")
        self._times = times
        self._durations = durations

    def add_program_ending(self, time_s: float, leave_probability: float) -> None:
        """Stage a program-end wave (must precede the first :meth:`run`)."""
        if self.population is not None:
            raise RuntimeError("cannot add program endings after run()")
        self._endings.append((float(time_s), float(leave_probability)))

    def materialize(self) -> None:
        if self.population is not None:
            return
        if self._times is None:
            raise RuntimeError("apply_workload() must be called before run()")
        schedule = ProgramSchedule(endings=tuple(sorted(self._endings)))
        self.population = UserPopulation(
            self.system,
            arrival_times=self._times,
            durations=self._durations,
            duration_model=self.scenario.duration_model,
            schedule=schedule,
            silent_leave_prob=self.scenario.silent_leave_prob,
        )
        self.population.attach()

    # -- execution -----------------------------------------------------
    def run(self, until: float) -> None:
        """Attach the staged audience, then run the event loop."""
        self.materialize()
        self.system.run(until=until)

    # -- views ---------------------------------------------------------
    @property
    def log(self) -> LogServer:
        """The system's telemetry log."""
        return self.system.log

    def snapshot_metrics(self) -> Dict[str, float]:
        """Simulator-side ground truth (not derived from the log)."""
        system = self.system
        peers = system.peers()
        playing = sum(1 for p in peers if p.state is NodeState.PLAYING)
        out: Dict[str, float] = {
            "concurrent_users": float(system.concurrent_users),
            "playing_users": float(playing),
            "sessions_spawned": float(system.sessions_spawned),
            "mean_continuity": float(system.summary().get(
                "mean_continuity", float("nan"))),
        }
        if self.population is not None:
            out["success_fraction"] = self.population.success_fraction()
            out["adaptations"] = float(system.adaptations)
        return out


class FluidBackend:
    """The vectorized fluid engine behind the backend contract."""

    name = "fast"

    def __init__(
        self,
        scenario,
        seed: int = 0,
        *,
        fast: Optional[FastSimConfig] = None,
        capacity_hint: Optional[int] = None,
    ) -> None:
        # imported where it is constructed, so a detailed or net run never
        # loads the fluid engine (DESIGN.md, "What a process pays ...")
        from repro.fastsim import FastSimulation

        self.scenario = scenario
        self.seed = int(seed)
        self.sim = FastSimulation(
            scenario.cfg,
            fast,
            seed=seed,
            capacity_model=scenario.capacity_model,
            connectivity_mix=scenario.connectivity_mix,
            capacity_hint=capacity_hint if capacity_hint is not None else 4096,
        )

    # -- workload ------------------------------------------------------
    def apply_workload(self, times: np.ndarray, durations: np.ndarray) -> None:
        """Register the audience as pending joins."""
        self.sim.add_arrivals(times, durations)

    def add_program_ending(self, time_s: float, leave_probability: float) -> None:
        """Schedule a program-end departure wave."""
        self.sim.add_program_ending(time_s, leave_probability)

    # -- execution -----------------------------------------------------
    def run(self, until: float) -> None:
        """Step the fluid model to ``until``."""
        self.sim.run(until=until)

    # -- views ---------------------------------------------------------
    @property
    def log(self) -> LogServer:
        """The simulation's telemetry log."""
        return self.sim.log

    def snapshot_metrics(self) -> Dict[str, float]:
        """Simulator-side ground truth (not derived from the log)."""
        sim = self.sim
        out: Dict[str, float] = {
            "concurrent_users": float(sim.concurrent_users),
            "playing_users": float(sim.playing_users),
            "sessions_spawned": float(sim.sessions_spawned),
            "mean_continuity": sim.mean_continuity(),
            # the fluid model has no per-peer adaptation ground truth; the
            # log-derived parity metrics are the cross-engine comparables
            "adaptations": float("nan"),
            "success_fraction": sim.success_fraction(),
        }
        return out


# ---------------------------------------------------------------------------
# backend registry
# ---------------------------------------------------------------------------
#: engine name -> backend factory, or a lazy ``"module:attr"`` spec that
#: is resolved (and cached) on first use so registering an engine does
#: not import its implementation
_REGISTRY: Dict[str, object] = {}


def register_backend(name: str, factory) -> None:
    """Register an engine under ``name``.

    ``factory`` is the backend class (or any callable with the
    ``(scenario, seed)`` constructor shape), or a ``"module:attr"``
    string resolved lazily on first :func:`resolve_backend`.  The CLI's
    ``--engine`` choices, campaign spec validation and the parity
    harness all derive from this registry, so a new engine plugs in
    without editing call sites.
    """
    if not name or not isinstance(name, str):
        raise ValueError("engine name must be a non-empty string")
    _REGISTRY[name] = factory


def available_engines() -> Tuple[str, ...]:
    """Registered engine names, sorted (the canonical --engine choices)."""
    return tuple(sorted(_REGISTRY))


def resolve_backend(name: str):
    """The backend factory for ``name`` (imports lazy specs on demand).

    Raises ``ValueError`` for unknown names -- callers surface that as a
    usage error (exit 2)."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None
    if isinstance(factory, str):
        module_name, _, attr = factory.partition(":")
        import importlib

        factory = getattr(importlib.import_module(module_name), attr)
        _REGISTRY[name] = factory
    return factory


register_backend(DetailedBackend.name, DetailedBackend)
register_backend(FluidBackend.name, FluidBackend)
# the socket backend registers lazily: its asyncio stack (and everything
# under repro.net) only loads when an actual net run is requested
register_backend("net", "repro.net.backend:NetBackend")
# mean-field ODE backend: population dynamics, O(1) step cost in N
register_backend("ode", "repro.model.meanfield:MeanFieldBackend")
