"""Resource-bottleneck benchmark (Section VI open problem, made concrete).

Sweeps peer upload capacity and shows how the system reacts to crossing
the supply/demand critical ratio of [23].  The instructive subtlety --
which the paper's own Section V.E warns about -- is *survivor bias*: an
under-provisioned system does not show low continuity; it sheds users
(failed joins, stall departures) until the survivors are well served.
The bottleneck is therefore visible in the admission metrics (success
fraction, sessions per user), not in the survivors' continuity.
"""

import numpy as np

from repro.analysis import (
    ContinuitySamplesFold,
    SessionTableFold,
    fold_log,
    mean_continuity,
)
from repro.analysis.resources import supply_demand_snapshot
from repro.core.config import SystemConfig
from repro.core.system import CoolstreamingSystem
from repro.network.capacity import CapacityModel
from repro.workload.users import UserPopulation

N_USERS = 80
HORIZON = 700.0


def run_at_capacity_scale(scale: float, seed: int = 0):
    cfg = SystemConfig(n_servers=1, server_max_partners=12)
    system = CoolstreamingSystem(
        cfg, seed=seed, capacity_model=CapacityModel().scaled(scale)
    )
    population = UserPopulation(
        system,
        arrival_times=np.linspace(1.0, 80.0, N_USERS),
        silent_leave_prob=0.0,
    )
    for user in population.users:
        user.departure_deadline = HORIZON + 100.0  # everyone wants to stay
    population.attach()
    # capacity balance at the height of the join wave
    system.run(until=120.0)
    sd_peak = supply_demand_snapshot(system)
    system.run(until=HORIZON)
    table, samples = fold_log(system.log, SessionTableFold(),
                              ContinuitySamplesFold())
    cont = mean_continuity(samples, after=350.0)
    return {
        "offered_ratio": sd_peak.supply_bps / (N_USERS * cfg.stream_rate_bps),
        "success": population.success_fraction(),
        "kept": system.concurrent_users / N_USERS,
        "sessions_per_user": len(table) / N_USERS,
        "survivor_continuity": cont,
    }


def test_bottleneck_shedding(benchmark):
    def run():
        return {
            scale: run_at_capacity_scale(scale, seed=20 + i)
            for i, scale in enumerate((0.25, 1.0, 2.0))
        }

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("scale | offered supply/demand | success | kept | sess/user | "
          "survivor continuity")
    for scale, m in rows.items():
        print(f"{scale:5g} | {m['offered_ratio']:21.2f} | "
              f"{m['success']:.3f} | {m['kept']:.3f} | "
              f"{m['sessions_per_user']:9.2f} | "
              f"{m['survivor_continuity']:.4f}")
    starved, provisioned = rows[0.25], rows[2.0]
    # the starved system sheds users: fewer kept, more retry sessions
    assert starved["kept"] < provisioned["kept"]
    assert starved["sessions_per_user"] > provisioned["sessions_per_user"]
    # survivor bias: the starved survivors still see decent continuity
    assert starved["survivor_continuity"] > 0.75
    # the provisioned system serves nearly everyone well
    assert provisioned["success"] > 0.85
    assert provisioned["survivor_continuity"] > 0.9
