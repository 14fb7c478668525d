"""Upload-contribution analysis (Fig. 3b).

The paper's headline imbalance: "30% or so peer nodes in the overlay,
i.e. nodes under UPnP and direct-connect, contribute more than 80% of the
upload bandwidth."  Per-node upload totals come from traffic reports
(:class:`~repro.analysis.streaming.UploadTotalsFold`); this module
attributes them to the classified user types and computes the
share/Lorenz statistics.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.analysis.classification import UserType

__all__ = [
    "contribution_by_type",
    "contributor_class_share",
    "lorenz_curve",
    "top_contributor_share",
]


def contribution_by_type(
    types: Dict[int, UserType], totals: Dict[int, float]
) -> Dict[UserType, Tuple[float, float]]:
    """Per user type: (population fraction, upload-bytes fraction).

    ``types`` is :class:`~repro.analysis.streaming.ClassifyUsersFold`'s
    result and ``totals`` :class:`~repro.analysis.streaming.UploadTotalsFold`'s.
    This is exactly Fig. 3's pairing: compare the ~30% contributor-class
    population share against its >80% byte share.
    """
    # population over all classified nodes; bytes over reported traffic
    n = len(types)
    grand = sum(totals.values())
    out: Dict[UserType, Tuple[float, float]] = {}
    for t in UserType:
        members = [nid for nid, ut in types.items() if ut is t]
        pop = len(members) / n if n else 0.0
        byt = (
            sum(totals.get(nid, 0.0) for nid in members) / grand
            if grand > 0 else 0.0
        )
        out[t] = (pop, byt)
    return out


def contributor_class_share(
    per_type: Dict[UserType, Tuple[float, float]]
) -> Tuple[float, float]:
    """(population fraction, upload fraction) of direct+UPnP peers, from
    :func:`contribution_by_type`'s output -- the paper's "30% contribute
    more than 80%" statistic."""
    pop = sum(per_type[t][0] for t in UserType if t.is_contributor)
    byt = sum(per_type[t][1] for t in UserType if t.is_contributor)
    return pop, byt


def lorenz_curve(uploads: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Lorenz curve of upload contribution.

    Returns ``(population_fraction, cumulative_upload_fraction)`` with
    nodes sorted ascending by contribution; the Fig. 3b CDF is the same
    data read from the top end.
    """
    arr = np.sort(np.asarray(list(uploads), dtype=float))
    if arr.size == 0:
        raise ValueError("no upload samples")
    if (arr < 0).any():
        raise ValueError("uploads must be non-negative")
    cum = np.cumsum(arr)
    total = cum[-1]
    if total == 0:
        return (
            np.linspace(0, 1, arr.size + 1),
            np.zeros(arr.size + 1),
        )
    x = np.arange(0, arr.size + 1) / arr.size
    y = np.concatenate([[0.0], cum / total])
    return x, y


def top_contributor_share(uploads: Sequence[float], top_fraction: float) -> float:
    """Fraction of bytes uploaded by the top ``top_fraction`` of nodes."""
    if not (0.0 < top_fraction <= 1.0):
        raise ValueError("top_fraction must be in (0, 1]")
    arr = np.sort(np.asarray(list(uploads), dtype=float))[::-1]
    if arr.size == 0:
        raise ValueError("no upload samples")
    total = arr.sum()
    if total == 0:
        return 0.0
    k = max(1, int(round(top_fraction * arr.size)))
    return float(arr[:k].sum() / total)
