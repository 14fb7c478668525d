"""``python -m repro campaign`` — run/status/clean experiment campaigns.

Usage::

    python -m repro campaign run spec.json --jobs 4 --store .campaign
    python -m repro campaign run spec.json --resume --progress
    python -m repro campaign run spec.json --log-spill /tmp/spill
    python -m repro campaign status --store .campaign
    python -m repro campaign status --follow      # live until terminal
    python -m repro campaign clean --store .campaign

``run`` executes the spec's grid, skipping runs already present in the
content-addressed store; ``--force`` re-executes everything, ``--resume``
requires a prior journal for the same campaign (the crash-recovery
workflow: identical spec, only missing runs execute).  Observability
follows the figure commands: ``--metrics-out`` streams heartbeat
snapshots (runs completed/cached/failed gauges) as JSONL with a manifest
sidecar, ``--progress`` prints campaign heartbeat lines to stderr.

Exit codes: 0 success, 1 any failed run, 2 bad spec / unknown
experiment (README, "Command line").
"""

from __future__ import annotations

import contextlib
import sys

import repro.obs as obs
from repro.campaign.aggregate import to_replication, write_metrics_json
from repro.campaign.runner import run_campaign
from repro.campaign.spec import CampaignSpec, SpecError
from repro.campaign.store import DEFAULT_STORE_DIR, ResultStore
from repro.experiments.render import render_table

__all__ = ["cmd_run", "cmd_status", "cmd_clean"]


def _store(args) -> ResultStore:
    return ResultStore(args.store or DEFAULT_STORE_DIR)


def cmd_run(args) -> int:
    """``campaign run`` (options in :mod:`repro.experiments.cli`)."""
    try:
        spec = CampaignSpec.from_file(args.spec)
    except SpecError as exc:
        print(f"error: bad spec: {exc}", file=sys.stderr)
        return 2
    if args.log_spill:
        spec.log_spill = args.log_spill
    store = _store(args)

    if args.resume:
        status = store.journal_status().get(spec.campaign_key)
        if status is None:
            print(f"error: --resume: no journalled campaign matches "
                  f"{args.spec} in {store.root}", file=sys.stderr)
            return 2
        done = sum(n for ev, n in status["counts"].items()
                   if ev in ("done", "cached"))
        print(f"resuming campaign {spec.name!r}: {done}/{len(spec.runs)} "
              f"runs already complete", file=sys.stderr)

    if args.metrics_out:
        obs_session = obs.session(
            metrics_path=args.metrics_out,
            progress=False,  # the campaign prints its own heartbeat
            scenario=f"campaign:{spec.name}",
        )
    else:
        obs_session = contextlib.nullcontext()

    try:
        with obs_session:
            report = run_campaign(
                spec, store,
                jobs=args.jobs,
                timeout_s=args.timeout,
                retries=args.retries,
                backoff_s=args.backoff,
                force=args.force,
                progress=args.progress,
            )
    except SpecError as exc:  # unknown experiment surfaces pre-execution
        print(f"error: bad spec: {exc}", file=sys.stderr)
        return 2

    if args.out:
        write_metrics_json(report, args.out)
    if not args.quiet:
        rows = []
        for r in report.results:
            rows.append((
                r.spec.experiment, r.spec.seed, r.status, r.attempts,
                f"{r.wall_time_s:.2f}",
                r.error or ("-" if r.status != "cached" else "(cache)"),
            ))
        print(render_table(
            ("experiment", "seed", "status", "attempts", "wall (s)", "info"),
            rows,
        ))
        experiments = {r.spec.experiment for r in report.results
                       if r.status in ("done", "cached")}
        if len(experiments) == 1 and report.results:
            with contextlib.suppress(ValueError):
                print()
                print(to_replication(report).render())
    print(report.summary_line())
    if report.interrupted:
        return 130
    return 0 if report.failed == 0 else 1


def _status_rows(store: ResultStore):
    """(table rows, cached-object count, any-campaign-still-running)."""
    campaigns = store.journal_status()
    n_objects = sum(1 for _ in store.keys())
    rows = []
    any_running = False
    for ck, info in sorted(campaigns.items(), key=lambda kv: kv[1]["last_ts"]):
        counts = info["counts"]
        state = "interrupted" if info["interrupted"] else (
            "incomplete" if counts.get("start", 0) or counts.get("retry", 0)
            else "complete"
        )
        if state == "incomplete":
            any_running = True
        rows.append((
            info["name"], ck[:12], info["total"],
            counts.get("done", 0), counts.get("cached", 0),
            counts.get("failed", 0), state,
        ))
    return rows, n_objects, any_running


def _print_status(store: ResultStore, rows, n_objects) -> None:
    if not rows:
        print(f"no journalled campaigns in {store.root} "
              f"({n_objects} cached objects)")
        return
    print(render_table(
        ("campaign", "key", "runs", "done", "cached", "failed", "state"),
        rows,
    ))
    print(f"{n_objects} cached objects in {store.root}")


def cmd_status(args) -> int:
    """``campaign status``: one table, or re-rendered until terminal."""
    store = _store(args)
    if not args.follow:
        rows, n_objects, _ = _status_rows(store)
        _print_status(store, rows, n_objects)
        return 0
    if not args.interval > 0:
        print("error: status: --interval must be positive", file=sys.stderr)
        return 2
    # follow mode: re-render whenever the journal changes, stop once every
    # campaign is terminal (complete or interrupted)
    import time

    last_rows = None
    while True:
        rows, n_objects, any_running = _status_rows(store)
        if rows != last_rows:
            _print_status(store, rows, n_objects)
            last_rows = rows
        if not any_running:
            return 0
        time.sleep(args.interval)  # repro: noqa[DET002] status-poll pacing, no simulation state


def cmd_clean(args) -> int:
    """``campaign clean``: drop the store and its journal."""
    store = _store(args)
    n = store.clean()
    print(f"removed {n} cached objects (and the journal) from {store.root}")
    return 0
