#!/usr/bin/env python
"""The evening broadcast: a scaled rerun of the 2006-09-27 measurement.

Uses the vectorized engine to push thousands of concurrent viewers
through a diurnal evening: steep ramp, prime-time plateau, program-end
cliff.  Prints the Fig. 5-style audience curve, the Fig. 8-style
continuity summary and the Fig. 10-style session statistics -- all
derived from the log server, not simulator internals.

Run:  python examples/broadcast_event.py          (about a minute)
      python examples/broadcast_event.py --big    (several minutes)
"""

import sys


from repro.analysis import (
    Cdf,
    ContinuitySamplesFold,
    SessionTableFold,
    continuity_timeseries,
    fold_log,
    mean_continuity,
)
from repro.core.config import SystemConfig
from repro.experiments.render import render_series
from repro.fastsim import FastSimulation
from repro.workload.arrivals import FlashCrowd
from repro.workload.sessions import SessionDurationModel


def main() -> None:
    big = "--big" in sys.argv
    horizon = 7200.0 if big else 2400.0
    peak_rate = 4.0 if big else 2.0

    cfg = SystemConfig(n_servers=6 if big else 4)
    sim = FastSimulation(cfg, seed=2006_09_27 % 2**31, capacity_hint=16384)
    rng = sim.rng.stream("workload.arrivals")

    arrivals = FlashCrowd(
        start_s=0.0, ramp_s=0.25 * horizon, hold_s=0.4 * horizon,
        decay_s=0.1 * horizon, peak_rate=peak_rate, base_rate=0.05,
    )
    times = arrivals.sample(horizon, rng)
    durations = SessionDurationModel(
        lognorm_median_s=0.2 * horizon, pareto_scale_s=0.6 * horizon
    ).sample(sim.rng.stream("workload.durations"), len(times))
    sim.add_arrivals(times, durations)
    sim.add_program_ending(0.8 * horizon, leave_probability=0.75)

    print(f"running {len(times)} arrivals over {horizon:.0f} simulated "
          f"seconds...")
    sim.run(until=horizon)

    table, samples = fold_log(sim.log, SessionTableFold(),
                              ContinuitySamplesFold())
    grid, counts = table.concurrent_users(step_s=horizon / 240, t1=horizon)
    print()
    print(render_series("concurrent users", grid, counts, fmt="%.0f"))
    centers, cont, _n = continuity_timeseries(samples, bin_s=300.0, t1=horizon)
    print(render_series("mean continuity", centers, cont, fmt="%.3f"))
    print()
    print(f"  peak concurrent users : {int(counts.max())}")
    print(f"  sessions / users      : {len(table)} / {len(times)}")
    ready = table.ready_delays()
    print(f"  ready time            : median "
          f"{Cdf.from_samples(ready).median:.0f} s")
    print(f"  steady continuity     : "
          f"{mean_continuity(samples, after=0.3 * horizon):.4f}")
    print(f"  <1 min sessions       : "
          f"{table.short_session_fraction(60.0) * 100:.0f}%")
    drop_t = 0.8 * horizon + 0.05 * horizon
    at_drop = counts[min(len(counts) - 1, int(drop_t / (horizon / 240)))]
    print(f"  audience kept after program end: "
          f"{at_drop / max(1, counts.max()) * 100:.0f}%")


if __name__ == "__main__":
    main()
