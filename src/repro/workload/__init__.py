"""Synthetic workload generation.

Replaces the paper's live Internet audience (DESIGN.md substitution table):

* :mod:`repro.workload.arrivals` -- arrival processes: homogeneous Poisson,
  piecewise-rate diurnal profiles (Fig. 5a's day shape) and flash crowds
  (the 18:00-22:00 evening ramp of Fig. 5b).
* :mod:`repro.workload.sessions` -- session-duration laws: the lognormal /
  Pareto mixture producing Fig. 10a's heavy tail, plus program-end
  departure waves (the 22:00 drop).
* :mod:`repro.workload.users` -- :class:`UserAgent`: one *user* who may run
  several *sessions* (join retries after impatience/failure, Fig. 10b).
* :mod:`repro.workload.scenarios` -- presets, including the scaled-down
  "evening broadcast" used throughout the benchmarks.
"""

from repro.workload.arrivals import (
    ArrivalProcess,
    DiurnalProfile,
    FlashCrowd,
    PoissonArrivals,
)
from repro.workload.sessions import SessionDurationModel, ProgramSchedule
from repro.workload.surfing import ChannelAudience, zipf_popularity
from repro.workload.users import UserAgent, UserPopulation
from repro.workload.scenarios import Scenario, evening_broadcast, steady_audience, flash_crowd_storm

__all__ = [
    "ArrivalProcess",
    "DiurnalProfile",
    "FlashCrowd",
    "PoissonArrivals",
    "SessionDurationModel",
    "ProgramSchedule",
    "ChannelAudience",
    "zipf_popularity",
    "UserAgent",
    "UserPopulation",
    "Scenario",
    "evening_broadcast",
    "steady_audience",
    "flash_crowd_storm",
]
