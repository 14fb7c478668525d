"""Shared statistical helpers: empirical CDFs and time binning."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = ["Cdf", "bin_timeseries"]


@dataclass(frozen=True)
class Cdf:
    """Empirical cumulative distribution function."""

    xs: np.ndarray  # sorted sample values
    ps: np.ndarray  # cumulative probabilities at xs

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "Cdf":
        """Build from raw samples."""
        arr = np.sort(np.asarray(list(samples), dtype=float))
        if arr.size == 0:
            raise ValueError("cannot build a CDF from zero samples")
        ps = np.arange(1, arr.size + 1, dtype=float) / arr.size
        return cls(xs=arr, ps=ps)

    @property
    def n(self) -> int:
        """Number of underlying samples."""
        return int(self.xs.size)

    def at(self, x: float) -> float:
        """P(X <= x)."""
        return float(np.searchsorted(self.xs, x, side="right") / self.xs.size)

    def quantile(self, q: float) -> float:
        """Inverse CDF (nearest-rank)."""
        if not (0.0 <= q <= 1.0):
            raise ValueError("quantile must be in [0, 1]")
        idx = min(self.xs.size - 1, int(np.ceil(q * self.xs.size)) - 1)
        return float(self.xs[max(0, idx)])

    @property
    def median(self) -> float:
        """The distribution median."""
        return self.quantile(0.5)

    @property
    def mean(self) -> float:
        """The sample mean."""
        return float(self.xs.mean())


def bin_timeseries(
    times: Sequence[float],
    values: Sequence[float],
    *,
    bin_s: float,
    t0: float = 0.0,
    t1: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Average ``values`` into fixed-width time bins.

    Returns ``(bin_centers, means, counts)``; bins with no samples hold
    NaN means.  Used for e.g. the Fig. 8 continuity-vs-time curves where
    each sample is one 5-minute QoS report.
    """
    if bin_s <= 0:
        raise ValueError("bin_s must be positive")
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape:
        raise ValueError("times and values must align")
    if t1 is None:
        t1 = float(t.max()) + bin_s if t.size else t0 + bin_s
    n_bins = max(1, int(np.ceil((t1 - t0) / bin_s)))
    idx = np.floor((t - t0) / bin_s).astype(int)
    mask = (idx >= 0) & (idx < n_bins)
    sums = np.zeros(n_bins)
    counts = np.zeros(n_bins)
    np.add.at(sums, idx[mask], v[mask])
    np.add.at(counts, idx[mask], 1.0)
    means = np.divide(sums, counts, out=np.full(n_bins, np.nan), where=counts > 0)
    centers = t0 + (np.arange(n_bins) + 0.5) * bin_s
    return centers, means, counts
