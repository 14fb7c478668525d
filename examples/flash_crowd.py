#!/usr/bin/env python
"""Flash crowd: the join storm that stresses a mesh-pull overlay.

Section V.C observes that during flash crowds the mCache fills with
newly joined peers that cannot yet provide stable streams, so join times
stretch and many users retry (Fig. 10b).  This example throws a burst of
arrivals at a small server fleet using the *reference* engine (full
protocol, message latencies) and reports the join-time CDFs and the
retry histogram -- then repeats the run with the paper's suggested
age-biased mCache replacement to show the improvement.

Run:  python examples/flash_crowd.py
"""

from repro.analysis import Cdf, SessionTableFold, fold_log
from repro.core.config import SystemConfig
from repro.runtime import run_scenario
from repro.workload import flash_crowd_storm


def run_once(mcache_replacement: str, seed: int = 7):
    cfg = SystemConfig(n_servers=2, mcache_replacement=mcache_replacement)
    scenario = flash_crowd_storm(
        burst_users_per_s=1.5, horizon_s=600.0, n_servers=2, cfg=cfg
    )
    res = run_scenario(scenario, seed=seed, engine="detailed")
    system, population = res.system, res.population
    (table,) = fold_log(system.log, SessionTableFold())
    ready = table.ready_delays()
    return {
        "sessions": len(table),
        "ready_median": Cdf.from_samples(ready).median if ready else float("nan"),
        "ready_p90": Cdf.from_samples(ready).quantile(0.9) if ready else float("nan"),
        "success": population.success_fraction(),
        "retries": dict(sorted(population.retry_histogram().items())),
    }


def main() -> None:
    for policy in ("random", "age"):
        out = run_once(policy)
        print(f"--- mCache replacement: {policy} "
              f"({'deployed' if policy == 'random' else 'paper-suggested'}) ---")
        print(f"  sessions           : {out['sessions']}")
        print(f"  ready time         : median {out['ready_median']:.1f} s, "
              f"p90 {out['ready_p90']:.1f} s")
        print(f"  users ever playing : {out['success'] * 100:.0f}%")
        print(f"  retry histogram    : {out['retries']}")
        print()


if __name__ == "__main__":
    main()
