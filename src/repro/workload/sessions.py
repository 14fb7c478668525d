"""Session-duration laws and program schedules.

Fig. 10a shows the session-duration distribution of the measured event:
heavy-tailed ("once the user can successfully obtain the video stream,
they are fairly stable and remain in the system throughout the entire
program duration") with a large spike of sub-minute sessions (failed
joins, modelled by the retry machinery, not here).

We model *intended* watch time -- how long the user would stay if the
stream works -- as a mixture of a lognormal body (casual zapping) and a
Pareto tail (program-length stays).  The program schedule superimposes
hard endings: at a program end, each watching user leaves with high
probability, producing the 22:00 cliff of Fig. 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

__all__ = ["SessionDurationModel", "FixedDuration", "ProgramSchedule"]


@dataclass(frozen=True)
class SessionDurationModel:
    """Lognormal + Pareto mixture of intended session durations (seconds).

    Parameters follow the qualitative shape of Fig. 10a at the scaled-down
    event length: median casual stays of ~8 minutes, and a tail of viewers
    who keep watching for hours (truncated by the program schedule).
    """

    lognorm_median_s: float = 480.0
    lognorm_sigma: float = 1.1
    pareto_scale_s: float = 1800.0
    pareto_alpha: float = 1.3
    tail_weight: float = 0.35
    min_duration_s: float = 10.0

    def __post_init__(self) -> None:
        if self.lognorm_median_s <= 0 or self.pareto_scale_s <= 0:
            raise ValueError("scales must be positive")
        if self.lognorm_sigma <= 0 or self.pareto_alpha <= 0:
            raise ValueError("shape parameters must be positive")
        if not (0.0 <= self.tail_weight <= 1.0):
            raise ValueError("tail_weight must be a probability")
        if self.min_duration_s < 0:
            raise ValueError("min_duration_s must be non-negative")

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        """Draw ``n`` intended durations."""
        n = int(n)
        tail = rng.random(n) < self.tail_weight
        out = np.empty(n, dtype=float)
        n_body = int((~tail).sum())
        if n_body:
            out[~tail] = rng.lognormal(
                mean=np.log(self.lognorm_median_s), sigma=self.lognorm_sigma,
                size=n_body,
            )
        n_tail = int(tail.sum())
        if n_tail:
            out[tail] = self.pareto_scale_s * (
                1.0 + rng.pareto(self.pareto_alpha, size=n_tail)
            )
        return np.maximum(out, self.min_duration_s)


@dataclass(frozen=True)
class FixedDuration:
    """Every user intends to watch exactly ``duration_s`` seconds.

    Used by the Fig. 9 sweeps, where everyone staying to the horizon is
    what isolates continuity from churn.  ``sample`` consumes no random
    numbers, so the durations stream stays untouched (bit-compatible with
    workloads that never drew from it).
    """

    duration_s: float

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        """``n`` copies of the fixed duration (no RNG draws)."""
        return np.full(int(n), float(self.duration_s))


@dataclass(frozen=True)
class ProgramSchedule:
    """Program end times and the audience share leaving at each.

    ``endings`` holds (time_s, leave_probability) pairs: at ``time_s``
    every currently watching user independently leaves with the given
    probability.  This produces the sharp drop "around 22:00 ... caused by
    the ending of some programs" in Fig. 5a/5b.
    """

    endings: Tuple[Tuple[float, float], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for t, p in self.endings:
            if t < 0:
                raise ValueError("ending times must be non-negative")
            if not (0.0 <= p <= 1.0):
                raise ValueError("leave probabilities must be in [0, 1]")
        times = [t for t, _p in self.endings]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("ending times must be strictly increasing")

    @classmethod
    def single_ending(cls, time_s: float, leave_probability: float = 0.75
                      ) -> "ProgramSchedule":
        """A schedule with exactly one program ending."""
        return cls(endings=((time_s, leave_probability),))
