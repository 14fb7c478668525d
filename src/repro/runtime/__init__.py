"""repro.runtime -- the engine-agnostic Scenario -> Backend runtime.

One driving surface over every engine:

* :class:`StreamingBackend` -- the engine contract (apply a workload,
  schedule program endings, run, expose the log and metric snapshots);
* :class:`DetailedBackend` / :class:`FluidBackend` -- adapters over the
  event-driven reference engine and the vectorized fluid engine; the
  ``ode`` and ``net`` engines register lazily
  (:func:`available_engines`, :func:`resolve_backend`);
* :func:`run_scenario` -- sample the workload once (identically named
  RNG streams, so every engine sees the same realization) and run it on
  the chosen engine; :func:`build_backend` stops before running;
* :func:`run_parity` / ``python -m repro parity`` -- cross-engine
  consistency checks on paper-level metrics.

Every figure, ablation and campaign run routes through this package.
"""

from repro.runtime.backends import (
    BackendStartupError,
    DetailedBackend,
    FluidBackend,
    StreamingBackend,
    available_engines,
    register_backend,
    resolve_backend,
)
from repro.runtime.driver import (
    RuntimeResult,
    WorkloadRealization,
    build_backend,
    run_scenario,
    sample_workload,
)
from repro.runtime.parity import (
    DEFAULT_TOLERANCES,
    PAIR_TOLERANCES,
    MetricComparison,
    ParityReport,
    paper_metrics,
    run_parity,
    run_parity_suite,
)

__all__ = [
    "BackendStartupError",
    "register_backend",
    "available_engines",
    "resolve_backend",
    "StreamingBackend",
    "DetailedBackend",
    "FluidBackend",
    "WorkloadRealization",
    "RuntimeResult",
    "sample_workload",
    "build_backend",
    "run_scenario",
    "DEFAULT_TOLERANCES",
    "PAIR_TOLERANCES",
    "MetricComparison",
    "ParityReport",
    "paper_metrics",
    "run_parity",
    "run_parity_suite",
]
