"""Cross-engine parity: any two (or three) engines, side by side.

The paper validates its measurement pipeline by checking that its three
log types tell one consistent story; our reproduction has no ground
truth to compare against, but it has independently implemented engines
consuming the same workload realization.  This module runs one scenario
on each requested engine and compares the paper-level metrics side by
side:

* **peak concurrent users** -- the Fig. 5 headline, driven by the
  arrival/departure balance every engine must honour;
* **mean continuity index** -- the Fig. 8/9 quality metric, driven by
  capacity allocation and adaptation;
* **retry-session fraction** -- the Fig. 10b failure statistic, driven
  by the join pipeline under load.

All three are computed *from the logs* with the same
:mod:`repro.analysis` code for every engine, so the comparison exercises
the full telemetry pipeline, not engine internals.  This mirrors the
seeders-paper methodology (PAPERS.md): a detailed simulation certifies
the fluid approximation on small scenarios, which then carries the
large-scale sweeps -- and now also certifies the socket deployment
(``--engines detailed,net``), closing the loop between the simulators
and a run over real connections.

Tolerances are calibrated per engine *pair* (:data:`PAIR_TOLERANCES`):
detailed vs fast spans two independent models, so its bands are wide;
detailed vs net shares the protocol implementation and diverges only
through real-network timing and per-engine RNG consumption, so its
continuity band is tighter while the retry band stays loose (join
timing races differ).  Unlisted pairs fall back to the detailed-fast
bands, the most conservative set.

Default (detailed vs fast) tolerances are calibrated on the preset
scenarios at seeds 0-2 (see ``tests/test_runtime_parity.py``).  Observed
agreement: peak concurrent users within 2.5% relative, mean continuity
within 7% relative; the retry-session fraction only agrees in order of
magnitude (the fluid join pipeline smooths the tail that produces
retries, so it systematically under-counts them) and is therefore
compared with a wide absolute band -- it is a sanity check, not a
precision claim.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.continuity import mean_continuity
from repro.analysis.streaming import (
    ContinuitySamplesFold,
    SessionTableFold,
    fold_log,
)
from repro.runtime.driver import RuntimeResult, run_scenario
from repro.telemetry.server import LogServer

__all__ = [
    "DEFAULT_TOLERANCES",
    "PAIR_TOLERANCES",
    "MetricComparison",
    "ParityReport",
    "paper_metrics",
    "run_parity",
    "run_parity_suite",
    "cmd_parity",
]

#: default relative tolerances per metric (documented in README
#: "Choosing an engine"); calibrated for the detailed-fast pair against
#: the preset scenarios at seeds 0-2 with >=1.5x headroom over the worst
#: observed divergence.  Also the fallback for engine pairs without a
#: calibrated entry in :data:`PAIR_TOLERANCES`.
DEFAULT_TOLERANCES: Dict[str, float] = {
    "peak_concurrent_users": 0.15,
    "mean_continuity": 0.10,
    "retry_session_fraction": 0.60,
}

#: absolute slack per metric: a comparison passes if EITHER the relative
#: band or the absolute band holds.  The retry band is wide on purpose:
#: the fluid engine under-counts retries (see module docstring), so the
#: fraction is an order-of-magnitude check only.
ABSOLUTE_FLOOR: Dict[str, float] = {
    "peak_concurrent_users": 2.0,
    "mean_continuity": 0.02,
    "retry_session_fraction": 0.30,
}

#: calibrated tolerance bands keyed by *sorted* engine pair.  detailed-net
#: shares the protocol code, so continuity tracks closely (observed <2%
#: divergence on small_audience, seeds 0-2); peak keeps slack for join
#: timing shifted by real connection latency, and retries stay loose --
#: the pump-quantum timing races produce a different retry tail.
PAIR_TOLERANCES: Dict[Tuple[str, str], Dict[str, float]] = {
    ("detailed", "fast"): DEFAULT_TOLERANCES,
    ("detailed", "net"): {
        "peak_concurrent_users": 0.10,
        "mean_continuity": 0.05,
        "retry_session_fraction": 0.60,
    },
    ("fast", "net"): DEFAULT_TOLERANCES,
    # mean-field ODE vs the peer-level engines, calibrated on all four
    # presets at seeds 0-2: peak tracks within ~5% (common workload
    # forcing), continuity within ~3% of detailed and ~10% of fast (the
    # ODE's deterministic supply has no per-peer variance, so it sits at
    # the optimistic edge of the band), and retries are floor-only --
    # the mean-field limit drops the per-parent competition (Eq. 6)
    # that generates the detailed engine's retry tail.
    ("detailed", "ode"): {
        "peak_concurrent_users": 0.10,
        "mean_continuity": 0.08,
        "retry_session_fraction": 0.60,
    },
    ("fast", "ode"): {
        "peak_concurrent_users": 0.10,
        "mean_continuity": 0.15,
        "retry_session_fraction": 0.60,
    },
}


def _pair_key(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def paper_metrics(log: LogServer, horizon_s: float) -> Dict[str, float]:
    """The three parity metrics, derived from a run's log.

    Continuity excludes the first 20% of the horizon as warm-up (reports
    from peers still filling their buffers would swamp the steady state
    either engine settles into).  One pass over the log.
    """
    table, samples = fold_log(log, SessionTableFold(), ContinuitySamplesFold())
    _grid, counts = table.concurrent_users(
        step_s=max(1.0, horizon_s / 288), t1=horizon_s
    )
    hist = table.retry_histogram()
    users = sum(hist.values())
    retried = sum(n for r, n in hist.items() if r >= 1)
    return {
        "peak_concurrent_users": float(counts.max()) if counts.size else 0.0,
        "mean_continuity": mean_continuity(samples, after=0.2 * horizon_s),
        "retry_session_fraction": (retried / users) if users else float("nan"),
    }


@dataclass(frozen=True)
class MetricComparison:
    """One metric compared across an engine pair.

    The ``detailed``/``fast`` fields are the first/second engine's value
    slots -- named for the historical default pair, labelled by
    ``engines`` in rendered output.
    """

    name: str
    detailed: float
    fast: float
    tolerance: float          # relative
    absolute_floor: float = 0.0
    engines: Tuple[str, str] = ("detailed", "fast")

    @property
    def rel_diff(self) -> float:
        """|detailed - fast| / max(|detailed|, |fast|) (0 when both 0)."""
        denom = max(abs(self.detailed), abs(self.fast))
        if denom == 0:
            return 0.0
        return abs(self.detailed - self.fast) / denom

    @property
    def ok(self) -> bool:
        """Within the relative tolerance or the absolute floor.

        NaN on either side fails: a metric one engine cannot produce is a
        parity violation, not a pass.
        """
        if self.detailed != self.detailed or self.fast != self.fast:
            return False
        if abs(self.detailed - self.fast) <= self.absolute_floor:
            return True
        return self.rel_diff <= self.tolerance


@dataclass
class ParityReport:
    """Side-by-side comparison of one engine pair for one (scenario, seed)."""

    scenario_name: str
    seed: int
    comparisons: List[MetricComparison] = field(default_factory=list)
    engines: Tuple[str, str] = ("detailed", "fast")
    results: Dict[str, RuntimeResult] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Every metric within tolerance."""
        return all(c.ok for c in self.comparisons)

    def render(self) -> str:
        """Human-readable side-by-side table."""
        a, b = self.engines
        head = (f"parity: {self.scenario_name} (seed {self.seed})  "
                f"{a} vs {b}")
        rows = [head, "-" * len(head),
                f"{'metric':<26}{a:>12}{b:>12}"
                f"{'rel diff':>10}{'tol':>8}  verdict"]
        for c in self.comparisons:
            rows.append(
                f"{c.name:<26}{c.detailed:>12.4f}{c.fast:>12.4f}"
                f"{c.rel_diff:>10.3f}{c.tolerance:>8.2f}  "
                f"{'ok' if c.ok else 'FAIL'}"
            )
        rows.append(f"=> {'PARITY OK' if self.ok else 'PARITY FAILED'}")
        return "\n".join(rows)


def _resolve_tolerances(
    engines: Tuple[str, str],
    tolerances: Optional[Dict[str, float]],
) -> Dict[str, float]:
    """The tolerance band for an engine pair, with caller overrides."""
    tol = dict(PAIR_TOLERANCES.get(_pair_key(*engines), DEFAULT_TOLERANCES))
    if tolerances:
        unknown = set(tolerances) - set(DEFAULT_TOLERANCES)
        if unknown:
            raise ValueError(f"unknown parity metrics: {sorted(unknown)}")
        tol.update(tolerances)
    return tol


def _build_report(
    scenario_name: str,
    seed: int,
    engines: Tuple[str, str],
    metrics: Dict[str, Dict[str, float]],
    tol: Dict[str, float],
) -> ParityReport:
    report = ParityReport(scenario_name=scenario_name, seed=int(seed),
                          engines=engines)
    a, b = engines
    for name in DEFAULT_TOLERANCES:
        report.comparisons.append(MetricComparison(
            name=name,
            detailed=metrics[a][name],
            fast=metrics[b][name],
            tolerance=tol[name],
            absolute_floor=ABSOLUTE_FLOOR.get(name, 0.0),
            engines=engines,
        ))
    return report


def run_parity(
    scenario,
    seed: int = 0,
    *,
    engines: Sequence[str] = ("detailed", "fast"),
    tolerances: Optional[Dict[str, float]] = None,
    keep_results: bool = False,
) -> ParityReport:
    """Run ``scenario`` on an engine pair and compare paper-level metrics.

    ``engines`` names the pair (default ``("detailed", "fast")``);
    ``tolerances`` overrides entries of the pair's calibrated band;
    ``keep_results`` retains the two :class:`RuntimeResult` objects on
    the report for further analysis.
    """
    pair = tuple(engines)
    if len(pair) != 2:
        raise ValueError("run_parity compares exactly two engines; "
                         "use run_parity_suite for triples")
    tol = _resolve_tolerances(pair, tolerances)

    results = {e: run_scenario(scenario, seed=seed, engine=e) for e in pair}
    metrics = {e: paper_metrics(results[e].log, scenario.horizon_s)
               for e in pair}
    report = _build_report(scenario.name, seed, pair, metrics, tol)
    if keep_results:
        report.results = results
    return report


def run_parity_suite(
    scenario,
    seed: int = 0,
    *,
    engines: Sequence[str],
    tolerances: Optional[Dict[str, float]] = None,
) -> List[ParityReport]:
    """Pairwise parity across two or three engines, one run per engine.

    Each engine executes the scenario once; every unordered pair gets a
    :class:`ParityReport` with its calibrated tolerance band (a triple
    yields three reports).
    """
    names = list(dict.fromkeys(engines))  # dedupe, keep order
    if not 2 <= len(names) <= 3:
        raise ValueError("parity needs two or three distinct engines, "
                         f"got {names!r}")
    metrics: Dict[str, Dict[str, float]] = {}
    for e in names:
        result = run_scenario(scenario, seed=seed, engine=e)
        metrics[e] = paper_metrics(result.log, scenario.horizon_s)
    reports = []
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            tol = _resolve_tolerances((a, b), tolerances)
            reports.append(
                _build_report(scenario.name, seed, (a, b), metrics, tol))
    return reports


# ---------------------------------------------------------------------------
# CLI: python -m repro parity --scenario steady_audience --seed 0
# ---------------------------------------------------------------------------
def _preset_scenarios() -> Dict[str, Callable]:
    """Name -> zero-argument scenario factory, sized for a CLI check.

    The presets are scaled down from the figure defaults so a parity run
    (which pays for the detailed engine) finishes in tens of seconds.
    ``small_audience`` is sized for the net backend: <=64 users over a
    10-minute virtual horizon is ~30s of wall time at the default 20x
    time scale.
    """
    from repro.core.config import SystemConfig
    from repro.workload.scenarios import (
        evening_broadcast,
        flash_crowd_storm,
        steady_audience,
    )

    return {
        "steady_audience": lambda: steady_audience(
            rate_per_s=0.4, horizon_s=900.0, n_servers=3),
        "small_audience": lambda: dataclasses.replace(
            steady_audience(
                rate_per_s=0.08, horizon_s=600.0, n_servers=2,
                cfg=SystemConfig().with_overrides(
                    status_report_period_s=60.0)),
            name="small_audience"),
        "evening_broadcast": lambda: evening_broadcast(
            horizon_s=1200.0, peak_rate=0.8),
        "flash_crowd_storm": lambda: flash_crowd_storm(
            burst_users_per_s=1.2, horizon_s=600.0, n_servers=2),
    }


def cmd_parity(args) -> int:
    """The ``parity`` handler (options in :mod:`repro.experiments.cli`):
    0 parity holds, 1 out of tolerance (README, "Command line")."""
    overrides = {
        metric: tol for metric, tol in (
            ("peak_concurrent_users", args.tol_peak),
            ("mean_continuity", args.tol_continuity),
            ("retry_session_fraction", args.tol_retry),
        ) if tol is not None
    }
    reports = run_parity_suite(
        _preset_scenarios()[args.scenario](), seed=args.seed,
        engines=args.engines, tolerances=overrides or None)
    print("\n\n".join(r.render() for r in reports))
    return 0 if all(r.ok for r in reports) else 1
