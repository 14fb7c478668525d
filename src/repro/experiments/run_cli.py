"""``python -m repro run``: one scenario, one engine, straight numbers.

The figure commands wrap scenarios in paper-shaped post-processing; this
subcommand is the raw entry point -- build an audience of ``--users``
over ``--horizon`` seconds (or take a named preset), run it on
``--engine``, and print wall time plus the engine's snapshot and the
paper-level metrics from its log.  Its reason to exist is the scale
ceiling: with ``--engine ode`` the mean-field backend turns a 1M-user
Fig. 9 point from an overnight job into seconds::

    python -m repro run --engine ode                  # 1M users, 300 s
    python -m repro run --engine fast --users 50000
    python -m repro run --scenario flash_crowd_storm --engine fast

Options and exit codes: README, "Command line".
"""

from __future__ import annotations

import sys
import time

from repro.runtime.driver import run_scenario
from repro.runtime.parity import _preset_scenarios, paper_metrics
from repro.workload.scenarios import steady_audience

__all__ = ["cmd_run"]


def cmd_run(args) -> int:
    """The ``run`` handler (options in :mod:`repro.experiments.cli`)."""
    if args.users < 1 or not 0 < args.horizon < float("inf") \
            or args.servers < 0:
        print("error: run: --users/--horizon/--servers out of range",
              file=sys.stderr)
        return 2
    if args.scenario is None:
        scenario = steady_audience(rate_per_s=args.users / args.horizon,
                                   horizon_s=args.horizon,
                                   n_servers=args.servers)
    else:
        presets = _preset_scenarios()
        if args.scenario not in presets:
            print(f"error: run: unknown scenario {args.scenario!r}",
                  file=sys.stderr)
            return 2
        scenario = presets[args.scenario]()

    t0 = time.perf_counter()  # repro: noqa[DET002] CLI elapsed-time display only
    result = run_scenario(scenario, seed=args.seed, engine=args.engine)
    wall = time.perf_counter() - t0  # repro: noqa[DET002] CLI elapsed-time display only

    print(f"run: {scenario.name} engine={args.engine} seed={args.seed} "
          f"horizon={scenario.horizon_s:.0f}s wall={wall:.2f}s")
    snap = result.metrics()
    print("engine snapshot:")
    for key in sorted(snap):
        print(f"  {key:<24}{snap[key]:>14.4f}")
    pm = paper_metrics(result.log, scenario.horizon_s)
    print("paper metrics (from telemetry log):")
    for key in sorted(pm):
        print(f"  {key:<24}{pm[key]:>14.4f}")
    panel = snap.get("panel_weight")
    if panel is not None and panel > 1.0:
        print(f"  (log is a {snap['panel_users']:.0f}-user characteristic "
              f"panel, weight {panel:.1f}; snapshot numbers are "
              f"population-exact)")
    return 0
