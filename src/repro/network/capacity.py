"""Heterogeneous upload capacity sampling.

The paper reports highly unbalanced upload contributions (Fig. 3b: ~30% of
peers carry >80% of bytes).  Two mechanisms produce this in the deployed
system: (a) NAT/firewall peers rarely receive incoming partnerships, so
their capacity is hard to use, and (b) access-link capacity itself was very
heterogeneous in 2006 (dial-up/ADSL/Ethernet).  We model (b) here with a
per-class capacity profile; (a) emerges from the connectivity rule.

Capacities are expressed in *bits per second* and converted to sub-stream
units (multiples of ``R/K``) by the engines.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from repro.network.connectivity import ConnectivityClass, choice_cdf

__all__ = ["CapacityProfile", "CapacityModel"]


@dataclass(frozen=True)
class CapacityProfile:
    """A discrete mixture of (upload_bps, probability) access tiers."""

    uploads_bps: Sequence[float]
    probabilities: Sequence[float]

    def __post_init__(self) -> None:
        if len(self.uploads_bps) != len(self.probabilities):
            raise ValueError("uploads_bps and probabilities must align")
        if len(self.uploads_bps) == 0:
            raise ValueError("profile must have at least one tier")
        if any(u < 0 for u in self.uploads_bps):
            raise ValueError("capacities must be non-negative")
        if any(p < 0 for p in self.probabilities):
            raise ValueError("Probabilities are not non-negative")
        total = float(sum(self.probabilities))
        if not np.isclose(total, 1.0, atol=1e-9):
            raise ValueError(f"tier probabilities must sum to 1 (got {total})")

    @cached_property
    def _cdf(self) -> list[float]:
        """``CapacityModel.sample_upload``'s cdf, built at the first draw
        (as ``ConnectivityMix._draw_table``, and for the same reasons)."""
        return choice_cdf(self.probabilities)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Sample ``n`` upload capacities (bps) from the mixture."""
        ups = np.asarray(self.uploads_bps, dtype=float)
        probs = np.asarray(self.probabilities, dtype=float)
        idx = rng.choice(len(ups), size=int(n), p=probs)
        return ups[idx]

    @property
    def mean_bps(self) -> float:
        """Expected upload of the mixture."""
        ups = np.asarray(self.uploads_bps, dtype=float)
        probs = np.asarray(self.probabilities, dtype=float)
        return float(ups @ probs)


# 2006-era access mix, scaled so that the *system-wide* mean upload exceeds
# the 768 kbps stream rate only thanks to contributor-class peers -- the
# regime the paper describes ([23]'s critical-ratio argument).
_DEFAULT_PROFILES: Mapping[ConnectivityClass, CapacityProfile] = {
    # Campus/Ethernet + good ADSL: the stable, high-degree parents of Fig. 4.
    # Tier weights are calibrated so the population's *usable* upload
    # (reachability-discounted) exceeds the 768 kbps demand by ~20% -- the
    # critical-ratio margin of [23] that the measured deployment evidently
    # had, since continuity stayed ~97% at 40k users on a tiny server fleet.
    ConnectivityClass.DIRECT: CapacityProfile(
        uploads_bps=(6_000_000.0, 3_000_000.0, 1_500_000.0),
        probabilities=(0.30, 0.40, 0.30),
    ),
    ConnectivityClass.UPNP: CapacityProfile(
        uploads_bps=(3_000_000.0, 1_500_000.0, 750_000.0),
        probabilities=(0.30, 0.45, 0.25),
    ),
    # Residential ADSL uplinks: often below one full stream.
    ConnectivityClass.NAT: CapacityProfile(
        uploads_bps=(800_000.0, 400_000.0, 200_000.0),
        probabilities=(0.30, 0.40, 0.30),
    ),
    ConnectivityClass.FIREWALL: CapacityProfile(
        uploads_bps=(1_000_000.0, 500_000.0, 250_000.0),
        probabilities=(0.30, 0.40, 0.30),
    ),
    # Dedicated servers: 100 Mbps each, as deployed for the measured event.
    ConnectivityClass.SERVER: CapacityProfile(
        uploads_bps=(100_000_000.0,), probabilities=(1.0,)
    ),
}


@dataclass(frozen=True)
class CapacityModel:
    """Per-connectivity-class upload capacity profiles.

    Downloads are not modelled: the paper's constraint analysis is
    upload-side.
    """

    profiles: Mapping[ConnectivityClass, CapacityProfile] = field(
        default_factory=lambda: dict(_DEFAULT_PROFILES)
    )

    def sample_upload(
        self, cls: ConnectivityClass, rng: np.random.Generator
    ) -> float:
        """One upload capacity (bps) for a peer of class ``cls``: the value,
        and the stream position after it, that ``sample(1, rng)`` gives."""
        profile = self.profiles[cls]
        return float(profile.uploads_bps[bisect_right(profile._cdf, rng.random())])

    def sample_uploads(
        self,
        classes: Sequence[ConnectivityClass],
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Vectorized sampling for a population of classes."""
        arr = np.array(classes, dtype=np.int64)  # IntEnum members are ints
        out = np.empty(arr.size, dtype=float)
        for cls, profile in self.profiles.items():
            mask = arr == int(cls)
            n = int(mask.sum())
            if n:
                out[mask] = profile.sample(n, rng)
        return out

    def mean_upload(self, cls: ConnectivityClass) -> float:
        """Expected upload capacity of one class."""
        return self.profiles[cls].mean_bps

    def scaled(self, factor: float) -> "CapacityModel":
        """A model with every tier scaled by ``factor``.

        Used to stress systems into the under-provisioned regime for the
        scalability sweeps (Fig. 9) without changing the *shape* of the
        distribution.
        """
        if factor <= 0:
            raise ValueError("factor must be positive")
        scaled = {
            cls: CapacityProfile(
                uploads_bps=tuple(u * factor for u in p.uploads_bps),
                probabilities=tuple(p.probabilities),
            )
            for cls, p in self.profiles.items()
        }
        return CapacityModel(profiles=scaled)
