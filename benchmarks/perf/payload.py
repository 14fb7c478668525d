"""Section V payloads: the seven folds, their JSON-able reduction, and the
sanity checks on the result.

The timed interval ends with a payload, not with a log: one ``fold_log``
pass over all seven folds, reduced to the quantities the Section V
figures plot and hashed with ``repro.obs.stable_hash``.  The digest is
recorded per run and *not* pinned in the repo: a perf PR shows it
unchanged against its parent, a correctness PR may change it.
"""

from __future__ import annotations

import dataclasses
import statistics
from typing import Dict, List, Tuple

__all__ = ["make_folds", "reduce_payload", "sanity_checks"]


def make_folds(horizon_s: float) -> Dict[str, object]:
    """The seven folds, keyed by the per-layer metric suffix."""
    from repro.analysis.streaming import (
        ClassifyUsersFold,
        ConcurrentUsersFold,
        ContinuitySamplesFold,
        JoinFunnelFold,
        PartnerEventsFold,
        SessionTableFold,
        UploadTotalsFold,
    )

    return {
        "session_table": SessionTableFold(),
        "classify_users": ClassifyUsersFold(),
        "upload_totals": UploadTotalsFold(),
        "continuity_samples": ContinuitySamplesFold(),
        "partner_events": PartnerEventsFold(),
        # the Fig. 5 grid the parity harness uses: 288 points per horizon
        "concurrent_users": ConcurrentUsersFold(
            t1=horizon_s, step_s=max(1.0, horizon_s / 288)),
        "join_funnel": JoinFunnelFold(),
    }


def _quantiles(values: List[float]) -> Dict[str, float]:
    if not values:
        return {"n": 0}
    ordered = sorted(values)
    n = len(ordered)
    return {
        "n": n,
        "min": ordered[0],
        "p50": ordered[n // 2],
        "p90": ordered[min(n - 1, (9 * n) // 10)],
        "max": ordered[-1],
        "mean": statistics.fmean(ordered),
    }


def reduce_payload(results: Dict[str, object]) -> Dict[str, object]:
    """Reduce fold results to what the Section V figures plot."""
    from repro.telemetry.reports import PartnerOp

    table = results["session_table"]
    sessions = table.sessions()
    types = results["classify_users"]
    type_counts: Dict[str, int] = {}
    for user_type in types.values():
        type_counts[user_type.value] = type_counts.get(user_type.value, 0) + 1
    uploads = results["upload_totals"]
    samples = results["continuity_samples"]
    events = results["partner_events"]
    grid, counts = results["concurrent_users"]
    continuity = [c for _t, _node, c in samples]
    return {
        "sessions": {
            "n": len(sessions),
            "users": len({s.user_id for s in sessions}),
            "ready_delay_s": _quantiles(table.ready_delays()),
            "subscription_delay_s": _quantiles(table.subscription_delays()),
            "duration_s": _quantiles(table.durations()),
            "retry_histogram": {str(k): v for k, v in
                                sorted(table.retry_histogram().items())},
        },
        "user_types": dict(sorted(type_counts.items())),
        "upload": {
            "nodes": len(uploads),
            "total_bytes": float(sum(uploads.values())),
            "max_bytes": float(max(uploads.values(), default=0.0)),
        },
        "continuity": _quantiles(continuity),
        "partner_events": {
            "adds": sum(1 for e in events if e[2] is PartnerOp.ADD),
            "drops": sum(1 for e in events if e[2] is PartnerOp.DROP),
        },
        "concurrent_users": {
            "step_s": float(grid[1] - grid[0]) if len(grid) > 1 else 0.0,
            "peak": float(counts.max()) if counts.size else 0.0,
            "series": [float(c) for c in counts],
        },
        "join_funnel": dataclasses.asdict(results["join_funnel"]),
    }


def sanity_checks(payload: Dict[str, object], results: Dict[str, object], *,
                  arrivals: int, logged_users: int, n_servers: int
                  ) -> List[Tuple[str, bool, str]]:
    """Payload sanity, one op each: ``(name, ok, detail)``.

    ``logged_users`` is how many of the ``arrivals`` the log must know
    about: all that arrived early enough for their join report to land
    before the horizon -- or, on the ODE engine, the panel it samples.
    """
    continuity = payload["continuity"]
    # no sample at all fails the check: every workload runs long enough
    # for periodic status reports, so an empty fold means a dead path
    lo, hi = continuity.get("min", -1.0), continuity.get("max", -1.0)
    peak = payload["concurrent_users"]["peak"]
    n_sessions = payload["sessions"]["n"]
    upload = payload["upload"]
    bad_order = [s.session_id for s in results["session_table"].sessions()
                 if s.join_time is not None and s.ready_time is not None
                 and s.ready_time < s.join_time]
    return [
        ("continuity_sampled_and_in_unit_interval", 0.0 <= lo <= hi <= 1.0,
         f"n={continuity['n']} min={lo} max={hi}"),
        ("upload_totals_reported",
         upload["nodes"] > 0 and upload["total_bytes"] > 0,
         f"nodes={upload['nodes']} total_bytes={upload['total_bytes']}"),
        ("peak_concurrent_le_arrivals_plus_servers",
         0 < peak <= arrivals + n_servers,
         f"peak={peak} arrivals={arrivals} servers={n_servers}"),
        ("sessions_ge_arrivals", n_sessions >= logged_users > 0,
         f"sessions={n_sessions} logged arrivals={logged_users}"),
        ("ready_ge_join_per_session", not bad_order,
         f"{len(bad_order)} sessions ready before join"),
    ]
