"""Arrival processes: when do users show up.

Fig. 5 of the paper shows (a) a diurnal curve over a whole day and (b) a
steep evening ramp peaking around 40,000 concurrent users, with a cliff at
~22:00 when programs end.  We generate arrival *times* (not sessions --
durations live in :mod:`repro.workload.sessions`) from non-homogeneous
Poisson processes via thinning, which keeps every profile exact regardless
of shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Tuple

import numpy as np

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "DiurnalProfile",
    "FlashCrowd",
    "UniformBurst",
]


class ArrivalProcess(Protocol):
    """Anything that can produce arrival times over a horizon."""

    def sample(self, horizon_s: float, rng: np.random.Generator) -> np.ndarray:
        """Sorted arrival times in ``[0, horizon_s)``."""
        ...

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate (users/second) at time ``t``."""
        ...


@dataclass(frozen=True)
class PoissonArrivals:
    """Homogeneous Poisson arrivals at ``rate_per_s``."""

    rate_per_s: float

    def __post_init__(self) -> None:
        if self.rate_per_s < 0:
            raise ValueError("rate must be non-negative")

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate (users/s) at time ``t``."""
        return self.rate_per_s

    def sample(self, horizon_s: float, rng: np.random.Generator) -> np.ndarray:
        """Sorted arrival times over the horizon."""
        if horizon_s <= 0 or self.rate_per_s == 0:
            return np.empty(0)
        n = rng.poisson(self.rate_per_s * horizon_s)
        return np.sort(rng.uniform(0.0, horizon_s, size=n))


def _thin(rate_fn, rate_max: float, horizon_s: float,
          rng: np.random.Generator) -> np.ndarray:
    """Ogata thinning for a non-homogeneous Poisson process."""
    if horizon_s <= 0 or rate_max <= 0:
        return np.empty(0)
    n_prop = rng.poisson(rate_max * horizon_s)
    props = np.sort(rng.uniform(0.0, horizon_s, size=n_prop))
    if n_prop == 0:
        return props
    keep = rng.uniform(0.0, rate_max, size=n_prop) < np.array(
        [rate_fn(t) for t in props]
    )
    return props[keep]


@dataclass(frozen=True)
class DiurnalProfile:
    """Piecewise-linear daily rate profile.

    ``anchors`` is a sequence of (time_s, rate_per_s) control points; the
    rate is linearly interpolated between them and clamped outside.  The
    default shape follows Fig. 5a: a quiet night, a daytime plateau, a
    steep evening ramp towards the prime-time peak and a fall after the
    programs end.
    """

    anchors: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.anchors) < 2:
            raise ValueError("need at least two anchors")
        times = [a[0] for a in self.anchors]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("anchor times must be strictly increasing")
        if any(a[1] < 0 for a in self.anchors):
            raise ValueError("rates must be non-negative")

    @classmethod
    def evening_peak(cls, *, day_seconds: float = 86_400.0,
                     peak_rate: float = 10.0) -> "DiurnalProfile":
        """The Fig. 5a shape, parameterised by the prime-time arrival rate.

        Times are seconds since midnight; the peak sits between 19:00 and
        21:30 with the program-end cliff handled by the departure model.
        """
        h = day_seconds / 24.0
        p = peak_rate
        return cls(anchors=(
            (0.0 * h, 0.05 * p),
            (6.0 * h, 0.03 * p),
            (9.0 * h, 0.15 * p),
            (13.0 * h, 0.25 * p),
            (17.0 * h, 0.35 * p),
            (18.5 * h, 0.80 * p),
            (20.0 * h, 1.00 * p),
            (21.5 * h, 0.90 * p),
            (22.5 * h, 0.25 * p),
            (24.0 * h, 0.05 * p),
        ))

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate (users/s) at time ``t``."""
        times = np.array([a[0] for a in self.anchors])
        rates = np.array([a[1] for a in self.anchors])
        return float(np.interp(t, times, rates))

    @property
    def max_rate(self) -> float:
        """Upper bound of the rate profile (thinning envelope)."""
        return max(a[1] for a in self.anchors)

    def sample(self, horizon_s: float, rng: np.random.Generator) -> np.ndarray:
        """Sorted arrival times over the horizon."""
        return _thin(self.rate_at, self.max_rate, horizon_s, rng)


@dataclass(frozen=True)
class FlashCrowd:
    """A burst of arrivals around a program start.

    Rate ramps linearly from ``base_rate`` to ``peak_rate`` over
    ``ramp_s`` starting at ``start_s``, holds for ``hold_s``, then decays
    exponentially with time constant ``decay_s`` -- the shape of the
    18:00-20:00 ramp in Fig. 5b.
    """

    start_s: float
    ramp_s: float
    hold_s: float
    decay_s: float
    peak_rate: float
    base_rate: float = 0.0

    def __post_init__(self) -> None:
        if min(self.ramp_s, self.hold_s, self.decay_s) < 0:
            raise ValueError("durations must be non-negative")
        if self.peak_rate < self.base_rate or self.base_rate < 0:
            raise ValueError("need 0 <= base_rate <= peak_rate")

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate (users/s) at time ``t``."""
        if t < self.start_s:
            return self.base_rate
        dt = t - self.start_s
        if dt < self.ramp_s:
            frac = dt / self.ramp_s if self.ramp_s else 1.0
            return self.base_rate + frac * (self.peak_rate - self.base_rate)
        dt -= self.ramp_s
        if dt < self.hold_s:
            return self.peak_rate
        dt -= self.hold_s
        if self.decay_s == 0:
            return self.base_rate
        return self.base_rate + (self.peak_rate - self.base_rate) * float(
            np.exp(-dt / self.decay_s)
        )

    def sample(self, horizon_s: float, rng: np.random.Generator) -> np.ndarray:
        """Sorted arrival times over the horizon."""
        return _thin(self.rate_at, self.peak_rate, horizon_s, rng)


@dataclass(frozen=True)
class UniformBurst:
    """Exactly ``n_users`` arrivals uniform on ``[t0, t1)``.

    The Fig. 9 sweep workload: the point of the sweep is continuity *at a
    known population size*, so the count is fixed rather than Poisson --
    sampling draws arrival times only.
    """

    n_users: int
    t0: float = 0.0
    t1: float = 1.0

    def __post_init__(self) -> None:
        if self.n_users < 0:
            raise ValueError("n_users must be non-negative")
        if self.t1 <= self.t0:
            raise ValueError("need t0 < t1")

    def rate_at(self, t: float) -> float:
        """Mean arrival rate (users/s) at time ``t``."""
        if self.t0 <= t < self.t1:
            return self.n_users / (self.t1 - self.t0)
        return 0.0

    def sample(self, horizon_s: float, rng: np.random.Generator) -> np.ndarray:
        """Sorted arrival times (the count is deterministic)."""
        return np.sort(rng.uniform(self.t0, self.t1, size=self.n_users))
