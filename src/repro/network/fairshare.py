"""Max-min fair division of a parent's upload among child connections.

Section IV.C models the degradation of per-sub-stream rate when a parent is
oversubscribed: with ``D_p`` children each nominally needing ``R/K``, an
extra child drives each connection down to ``r_down = D_p/(D_p+1) * R/K``
(Eq. 5).  That formula is the equal-split special case; in general children
differ -- a caught-up child only *consumes* the live rate ``R/K`` while a
catching-up child can absorb any surplus (Eq. 3's ``r_up``).

We therefore allocate by progressive filling (water-filling): capacity is
poured equally into all unsaturated demands; a demand that reaches its cap
is frozen and the remainder is re-poured among the rest.  This is the
classic max-min fair allocation and reduces exactly to Eq. 5 when all
demands exceed the fair share.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = ["waterfill_rates"]

# Below this size the pure-Python fill beats the numpy call overhead (the
# common case is a handful of child connections per parent).
_SMALL_N = 16


# argsort permutations keyed by the input's comparison pattern (dense
# ranks): numpy's introsort is comparison-based, so two arrays with the
# same rank pattern sort through the identical permutation.  Tied demand
# vectors are the *common* hot-path case (all caught-up children demand
# the same rate), so the permutation is computed once per pattern and the
# fill itself stays pure Python.
_perm_cache: dict = {}


def _waterfill_py(capacity: float, demands: Sequence[float]) -> List[float]:
    """Pure-Python progressive filling for small demand vectors.

    Capped allocations within a group of *tied* demands are mathematically
    equal but can differ in the last ulp (the ``remaining / active``
    recurrence drifts), and which index receives which variant is decided
    by the sort's tie order.  The numpy path's ``argsort`` order is the
    reference behaviour, and ``argsort``'s permutation depends only on the
    comparison pattern of its input -- so for tie patterns whose ulp
    assignment is order-dependent the fill is replayed over the cached
    argsort permutation for that pattern.  Either way the result is
    bit-identical to :func:`_waterfill_np`.
    """
    n = len(demands)
    order = sorted(range(n), key=demands.__getitem__)
    alloc = [0.0] * n
    remaining = capacity
    active = n
    prev_d = -1.0
    prev_give = -1.0
    for idx in order:
        fair = remaining / active
        d = demands[idx]
        give = d if d < fair else fair
        if d == prev_d and give != prev_give:
            break  # tie-order-dependent: replay over argsort's permutation
        alloc[idx] = give
        remaining -= give
        active -= 1
        prev_d = d
        prev_give = give
    else:
        return alloc
    # dense ranks in original index order = the comparison pattern
    ranks = [0] * n
    r = 0
    prev = demands[order[0]]
    for idx in order:
        d = demands[idx]
        if d != prev:
            r += 1
            prev = d
        ranks[idx] = r
    key = tuple(ranks)
    perm = _perm_cache.get(key)
    if perm is None:
        if len(_perm_cache) > 4096:  # adversarial-pattern backstop
            _perm_cache.clear()
        perm = np.argsort(np.asarray(ranks, dtype=float)).tolist()
        _perm_cache[key] = perm
    alloc = [0.0] * n
    remaining = capacity
    active = n
    for idx in perm:
        fair = remaining / active
        d = demands[idx]
        give = d if d < fair else fair
        alloc[idx] = give
        remaining -= give
        active -= 1
    return alloc


def _waterfill_np(capacity: float, d: np.ndarray) -> np.ndarray:
    """The numpy progressive-filling recurrence (pre-validated input)."""
    n = d.size
    alloc = np.empty(n, dtype=float)
    order = np.argsort(d)
    dl = d.tolist()  # python-float loop: same bits, no numpy scalar boxing
    remaining = float(capacity)
    active = n
    for idx in order.tolist():
        fair = remaining / active
        give = min(dl[idx], fair)
        alloc[idx] = give
        remaining -= give
        active -= 1
    return alloc


def waterfill_rates(capacity: float, demands: Sequence[float]) -> List[float]:
    """Max-min fair allocation of ``capacity`` (>= 0) over ``demands``
    (each >= 0; ``inf`` allowed: a catching-up child absorbs anything).

    Returns a plain list with ``0 <= alloc[i] <= demands[i]`` and
    ``sum(alloc) == min(capacity, sum(demands))`` up to float error.  For
    small flat demand vectors it runs a pure-Python fill (no numpy
    round-trip), falling back to the numpy recurrence
    :func:`_waterfill_np` for large vectors and for tie patterns whose ulp
    assignment is sort-order dependent (see :func:`_waterfill_py`).
    Allocation values are bit-identical to :func:`_waterfill_np` in every
    case.
    """
    if capacity < 0:
        raise ValueError(f"capacity must be non-negative (got {capacity})")
    n = len(demands)
    if n == 0:
        return []
    if n <= _SMALL_N:
        for d in demands:
            if d < 0:
                raise ValueError("demands must be non-negative")
        return _waterfill_py(capacity, demands)
    d = np.asarray(demands, dtype=float)
    if (d < 0).any():
        raise ValueError("demands must be non-negative")
    return _waterfill_np(capacity, d).tolist()
