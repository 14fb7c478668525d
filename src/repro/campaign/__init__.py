"""repro.campaign — parallel experiment-campaign orchestration.

The paper's evaluation is a *campaign*: sweeps over system size and join
rate (Fig. 9), per-period distributions over a simulated day (Fig. 7),
and seed replication behind every claim.  This package fans those
independent runs out across worker processes, caches results by content
hash, and survives crashes:

* :mod:`repro.campaign.spec` — a campaign as a grid of runs
  (experiment × overrides × seeds), each keyed by a canonical content
  hash of (experiment, resolved config, seed, code version);
* :mod:`repro.campaign.runner` — ProcessPool scheduling with per-run
  timeout, bounded retry with exponential backoff, and graceful Ctrl-C
  draining; ``jobs=1`` is the bit-identical in-process reference path;
* :mod:`repro.campaign.store` — content-addressed on-disk cache plus a
  crash-safe JSONL journal enabling ``--resume``;
* :mod:`repro.campaign.aggregate` — folds per-run metrics into the
  existing ``MetricSummary`` / ``ReplicationResult`` machinery and emits
  figure-ready artifacts.

CLI: ``python -m repro campaign run|status|clean`` (see
:mod:`repro.campaign.cli`).
"""

from repro.campaign.aggregate import (
    report_to_dict,
    successful_results,
    to_replication,
    write_metrics_json,
)
from repro.campaign.registry import (
    CAMPAIGN_EXPERIMENTS,
    UnknownExperimentError,
    experiment_ref,
    resolve_experiment,
)
from repro.campaign.runner import (
    DEFAULT_TRANSIENT,
    CampaignReport,
    RunResult,
    RunTimeout,
    run_campaign,
)
from repro.campaign.spec import CampaignSpec, RunSpec, SpecError, run_key, sweep
from repro.campaign.store import ResultStore

__all__ = [
    "CampaignSpec", "RunSpec", "SpecError", "run_key", "sweep",
    "ResultStore",
    "run_campaign", "CampaignReport", "RunResult", "RunTimeout",
    "DEFAULT_TRANSIENT",
    "CAMPAIGN_EXPERIMENTS", "UnknownExperimentError", "resolve_experiment",
    "experiment_ref",
    "successful_results", "to_replication",
    "report_to_dict", "write_metrics_json",
]
