"""Continuity-index aggregation (Figs. 8 and 9).

"Continuity index is defined as the number of blocks that arrive before
playback deadlines over the total number of blocks."  Each 5-minute QoS
report carries the window continuity of one node; Fig. 8 bins those
samples by time and user type, Fig. 9 relates run-level averages to
system size and join rate.  Every function here reads the samples
:class:`~repro.analysis.streaming.ContinuitySamplesFold` collects.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.classification import UserType
from repro.analysis.stats import bin_timeseries

__all__ = [
    "continuity_timeseries",
    "continuity_by_type",
    "mean_continuity",
]

#: ``(report_time, node_id, continuity)``, in log order: the result of
#: :class:`~repro.analysis.streaming.ContinuitySamplesFold`
Samples = List[Tuple[float, int, float]]


def continuity_timeseries(
    samples: Samples, *, bin_s: float = 300.0, t0: float = 0.0,
    t1: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Average continuity over all users per time bin (centers, means,
    sample counts)."""
    if not samples:
        raise ValueError("log contains no continuity samples")
    times = [s[0] for s in samples]
    values = [s[2] for s in samples]
    return bin_timeseries(times, values, bin_s=bin_s, t0=t0, t1=t1)


def continuity_by_type(
    types: Dict[int, UserType],
    samples: Samples,
    *,
    bin_s: float = 300.0,
    t0: float = 0.0,
    t1: Optional[float] = None,
) -> Dict[UserType, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Fig. 8: continuity-vs-time, one series per user type.

    ``types`` is the Section V.B classifier's output
    (:class:`~repro.analysis.streaming.ClassifyUsersFold`).  Note the
    paper's artefact is preserved end-to-end: NAT/firewall nodes that
    stalled and departed never delivered the QoS report covering their bad
    window, so their curve can sit *above* the direct-connect curve.
    """
    if not samples:
        raise ValueError("log contains no continuity samples")
    out: Dict[UserType, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    horizon = t1 if t1 is not None else max(s[0] for s in samples) + bin_s
    for ut in UserType:
        sub = [s for s in samples if types.get(s[1]) is ut]
        if not sub:
            continue
        out[ut] = bin_timeseries(
            [s[0] for s in sub], [s[2] for s in sub],
            bin_s=bin_s, t0=t0, t1=horizon,
        )
    return out


def mean_continuity(
    samples: Samples, *, after: float = 0.0,
    types: Optional[Dict[int, UserType]] = None,
    user_type: Optional[UserType] = None,
) -> float:
    """Run-level average continuity (the Fig. 9 y-value), optionally for
    one user type and excluding warm-up reports before ``after``.

    ``user_type`` selects by ``types``, the classifier's output, which must
    then be given.
    """
    if user_type is not None and types is None:
        raise ValueError("mean_continuity: user_type needs types")
    values = []
    for t, node_id, c in samples:
        if t < after:
            continue
        if user_type is not None and types.get(node_id) is not user_type:
            continue
        values.append(c)
    if not values:
        return float("nan")
    return float(np.mean(values))
