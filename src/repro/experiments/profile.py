"""``python -m repro profile`` -- run an experiment under cProfile.

Perf work on this codebase starts from data, not guesses: this subcommand
runs any registered experiment under :mod:`cProfile`, prints a per-callsite
hot-spot table (sorted by internal time by default), and writes a Chrome
``trace_event`` file through the :mod:`repro.obs` trace exporter so the
same run can be opened in ``chrome://tracing`` / Perfetto.

Usage::

    python -m repro profile fig3
    python -m repro profile fig6 --seed 3 --top 40 --sort cumtime
    python -m repro profile fig5 --trace-out fig5.trace.json --stats-out p.pstats
    python -m repro profile fig9 --engine fast     # + per-step-phase table

``--engine`` overrides the experiment's engine, exactly as for the plain
subcommands.  For the vectorized engines (``fast``, ``ode``) it also
enables their built-in phase stopwatch (``REPRO_PROFILE_PHASES``) and
prints a per-step-phase wall-time table after the hot spots -- the
engine-semantics view (arrivals/join/rates/heads/...) that cProfile's
per-function ranking cannot give, and the tool that explains
non-monotonic peer-steps/s in BENCH_scale.json.

The hot-spot table reports, per call site (``file:line(function)``):
call count, total internal time, per-call internal time, cumulative time
and the share of overall internal time.  ``--stats-out`` additionally
dumps the raw :mod:`pstats` data for ``snakeviz``-style tooling.

Note that cProfile instruments every Python call, which inflates
call-heavy code paths relative to real time; treat the table as a ranking,
not a stopwatch.  The Chrome trace is recorded by the engine's observed
loop and reflects real (uninstrumented-loop + profiler) wall time per
event callback.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Dict

import repro.obs as obs
from repro.experiments.cli import EXPERIMENTS, _run_one

__all__ = ["cmd_profile", "hotspot_table", "phase_table"]

#: engines with a built-in step-phase stopwatch (module with
#: PHASE_NAMES/PHASE_TOTALS/reset_phase_totals)
_PHASE_MODULES = {
    "fast": "repro.fastsim.engine",
    "ode": "repro.model.meanfield",
}


def phase_table(totals: Dict[str, float], order: tuple) -> str:
    """Format a per-step-phase wall-time breakdown."""
    total = sum(totals.values())
    lines = [f"{'phase':<14}{'seconds':>10}  {'share':>6}"]
    for name in order:
        sec = totals.get(name, 0.0)
        share = 100.0 * sec / total if total else 0.0
        lines.append(f"{name:<14}{sec:>10.3f}  {share:>5.1f}%")
    lines.append(f"{'total':<14}{total:>10.3f}")
    return "\n".join(lines)

_SORTS = ("tottime", "cumtime", "ncalls")


def hotspot_table(stats: pstats.Stats, *, top: int = 25,
                  sort: str = "tottime") -> str:
    """Format profile data as a per-callsite hot-spot table."""
    if sort not in _SORTS:
        raise ValueError(f"sort must be one of {_SORTS} (got {sort!r})")
    rows = []
    total_tt = 0.0
    for (filename, line, func), (cc, nc, tt, ct, _callers) in stats.stats.items():
        total_tt += tt
        short = filename
        for marker in ("/site-packages/", "/src/"):
            pos = filename.rfind(marker)
            if pos >= 0:
                short = filename[pos + len(marker):]
                break
        rows.append((nc, tt, ct, f"{short}:{line}({func})"))
    key = {"tottime": lambda r: r[1], "cumtime": lambda r: r[2],
           "ncalls": lambda r: r[0]}[sort]
    rows.sort(key=key, reverse=True)
    lines = [
        f"{'ncalls':>10}  {'tottime':>9}  {'percall':>9}  {'cumtime':>9}"
        f"  {'tot%':>5}  callsite",
    ]
    for nc, tt, ct, site in rows[:top]:
        percall = tt / nc if nc else 0.0
        share = 100.0 * tt / total_tt if total_tt else 0.0
        lines.append(
            f"{nc:>10d}  {tt:>9.3f}  {percall:>9.6f}  {ct:>9.3f}"
            f"  {share:>4.1f}%  {site}"
        )
    lines.append(f"-- {len(rows)} call sites, "
                 f"{total_tt:.3f} s total internal time --")
    return "\n".join(lines)


def cmd_profile(args) -> int:
    """The ``profile`` handler (options in :mod:`repro.experiments.cli`)."""
    trace_path = args.trace_out or f"profile_{args.experiment}.trace.json"
    profiler = cProfile.Profile()
    phase_mod = None
    if args.engine in _PHASE_MODULES:
        import importlib

        from repro.fastsim.engine import PHASE_TIMING_ENV

        phase_mod = importlib.import_module(_PHASE_MODULES[args.engine])
        os.environ[PHASE_TIMING_ENV] = "1"
        phase_mod.reset_phase_totals()
    with obs.session(trace_path=trace_path, scenario=args.experiment,
                     seed=args.seed):
        profiler.enable()
        try:
            _run_one(args.experiment, EXPERIMENTS[args.experiment],
                     seed=args.seed, engine=args.engine, quiet=True)
        finally:
            profiler.disable()

    stats = pstats.Stats(profiler)
    if args.stats_out:
        stats.dump_stats(args.stats_out)
    if not args.quiet:
        print(f"== hot spots: {args.experiment} (seed {args.seed}, "
              f"sorted by {args.sort}) ==")
    print(hotspot_table(stats, top=args.top, sort=args.sort))
    if phase_mod is not None:
        print()
        print(f"== step phases: engine {args.engine} "
              f"(real wall time inside step(), cProfile overhead "
              f"included) ==")
        print(phase_table(phase_mod.PHASE_TOTALS, phase_mod.PHASE_NAMES))
    print(f"[chrome trace written to {trace_path}]")
    return 0
