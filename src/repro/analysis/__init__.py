"""Trace analysis toolkit.

Everything here consumes *only* the log server's contents -- the same
information the authors had -- so the measurement artefacts of Section V
(5-minute report granularity, reports lost to abrupt departures) affect
our figures the same way they affected the paper's.

* :mod:`repro.analysis.streaming` -- the one reader of a log:
  :func:`fold_log` drives any number of folds (sessions, user types,
  upload totals, continuity samples, partner events, concurrent users,
  join funnel) down a single pass, so N statistics over a spilled
  production-volume log cost one streaming read.
* :mod:`repro.analysis.sessions` -- the reconstructed session table and
  its views (Figs. 5, 6, 7, 10).
* :mod:`repro.analysis.classification` -- the Section V.B user types
  (Fig. 3a).
* :mod:`repro.analysis.contribution` -- upload-contribution shares (Fig. 3b).
* :mod:`repro.analysis.continuity` -- continuity-index aggregation (Figs. 8, 9).
* :mod:`repro.analysis.funnel` -- the Section V.C join funnel.
* :mod:`repro.analysis.topology` -- overlay-structure statistics (Fig. 4),
  the one consumer of simulator-side snapshots (the paper, too, could only
  *conjecture* the overlay -- we get to check the conjecture).
* :mod:`repro.analysis.stats` -- CDF / binning helpers shared by all.

The modules other than :mod:`~repro.analysis.streaming` take fold
results, never a log::

    types, totals = fold_log(log, ClassifyUsersFold(), UploadTotalsFold())
    per_type = contribution_by_type(types, totals)
"""

from repro.analysis.funnel import JoinFunnel, funnel_of_table
from repro.analysis.streaming import (
    ClassifyUsersFold,
    ConcurrentUsersFold,
    ContinuitySamplesFold,
    Fold,
    JoinFunnelFold,
    PartnerEventsFold,
    SessionTableFold,
    UploadTotalsFold,
    fold_log,
    iter_reports,
)
from repro.analysis.resources import (
    SupplyDemand,
    supply_demand_snapshot,
)
from repro.analysis.sessions import Session, SessionTable
from repro.analysis.classification import UserType, type_distribution
from repro.analysis.contribution import (
    contribution_by_type,
    contributor_class_share,
    lorenz_curve,
)
from repro.analysis.continuity import (
    continuity_by_type,
    continuity_timeseries,
    mean_continuity,
)
from repro.analysis.topology import OverlaySnapshot, snapshot_overlay
from repro.analysis.stats import Cdf, bin_timeseries

__all__ = [
    "JoinFunnel",
    "funnel_of_table",
    "Fold",
    "fold_log",
    "iter_reports",
    "SessionTableFold",
    "ClassifyUsersFold",
    "UploadTotalsFold",
    "ContinuitySamplesFold",
    "PartnerEventsFold",
    "ConcurrentUsersFold",
    "JoinFunnelFold",
    "SupplyDemand",
    "supply_demand_snapshot",
    "Session",
    "SessionTable",
    "UserType",
    "type_distribution",
    "contribution_by_type",
    "contributor_class_share",
    "lorenz_curve",
    "continuity_timeseries",
    "continuity_by_type",
    "mean_continuity",
    "OverlaySnapshot",
    "snapshot_overlay",
    "Cdf",
    "bin_timeseries",
]
