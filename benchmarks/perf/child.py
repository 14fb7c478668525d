"""One run of one workload in a fresh process.  Spawned by ``run.py``.

The benchmark (not the program) builds the scenario and samples the
workload realization; the program receives only those arrays.  The timed
interval is *scenario in -> Section V payloads out*::

    backend.run(horizon); log.flush()        # runtime.run
    fold_log(log, <seven folds>)             # analysis.fold
    reduce_payload(...); stable_hash(...)    # experiments.payload

Everything is measured from outside, by timing calls into public
functions.  A traced run (``--traced 1``) additionally profiles each of
the three spans with ``cProfile``, opens a metrics-only
``repro.obs.session`` for the engines' own counters, switches on the
fluid/ODE phase stopwatches the program ships (``REPRO_PROFILE_PHASES``),
and afterwards replays the captured log and runs the stub micro-loops.
End-to-end numbers never come from a traced run.

Prints one JSON object as the last line of stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from machine import speed_probe


class Spans:
    """In-memory spans (name, start, end, parent), written out at exit."""

    def __init__(self) -> None:
        self.rows: List[Dict[str, object]] = []
        self._stack: List[str] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.rows.append({"name": name, "start": start, "end": end,
                              "parent": parent})

    def seconds(self, name: str) -> float:
        return sum(r["end"] - r["start"] for r in self.rows
                   if r["name"] == name)

    def write_chrome_trace(self, path: str, run_id: str) -> None:
        from repro.obs import TraceCollector

        collector = TraceCollector(process_name=run_id)
        epoch = min(r["start"] for r in self.rows)
        for row in sorted(self.rows, key=lambda r: r["start"]):
            collector.complete(
                row["name"], (row["start"] - epoch) * 1e6,
                (row["end"] - row["start"]) * 1e6,
                cat=f"parent:{row['parent'] or 'root'}")
        collector.write(path)


def _build_backend(workload, scenario, seed: int, realization):
    """The program's public construction path.  ``net`` needs its
    ``NetConfig`` (time scale), which ``build_backend`` cannot pass, so
    that one backend is staged by hand exactly as ``build_backend`` does."""
    if workload.engine != "net":
        from repro.runtime import build_backend

        return build_backend(scenario, seed, workload.engine,
                             workload=realization)
    from repro.net.backend import NetBackend
    from repro.net.config import NetConfig

    backend = NetBackend(scenario, seed,
                         net=NetConfig(time_scale=workload.time_scale))
    backend.apply_workload(realization.times, realization.durations)
    for time_s, prob in realization.endings:
        backend.add_program_ending(time_s, prob)
    return backend


def _engine_counts(workload, backend) -> Dict[str, float]:
    """Work counts readable from public attributes, traced or not."""
    counts: Dict[str, float] = {
        "telemetry.log_lines": len(backend.log),
        "telemetry.malformed_lines": backend.log.malformed_count,
    }
    if workload.engine in ("detailed", "net"):
        engine = backend.system.engine
        counts["sim.events"] = engine.events_processed
        counts["sim.events_cancelled"] = engine.events_cancelled
    if workload.engine == "fast":
        counts["fastsim.steps"] = backend.sim.steps_run
    if workload.engine == "ode":
        counts["model.steps"] = backend.steps_run
        counts["model.panel_users"] = backend.snapshot_metrics()["panel_users"]
    if workload.engine == "net":
        snapshot = backend.snapshot_metrics()
        for key in ("messages_sent", "bytes_sent", "retransmits",
                    "frames_rejected", "connect_failures", "connect_retries"):
            counts[f"net.{key}"] = snapshot[f"net.{key}"]
    return counts


def _peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MiB.

    ``VmHWM`` rather than ``ru_maxrss``: the two read the same kernel
    high-water mark, but ``ru_maxrss`` of an exec'd child starts at the
    *parent's* resident set at fork time, so it would report the harness,
    not the program, whenever the harness is the larger of the two."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _spill_usage(directory: Path) -> Tuple[int, int]:
    chunks = [p for p in directory.iterdir() if p.name.startswith("chunk-")]
    return sum(p.stat().st_size for p in chunks), len(chunks)


def _connect_failures_check(failures: float, table, max_partners: int
                            ) -> Tuple[str, bool, str]:
    """``net.connect_failures == 0`` unless a peer re-entered.

    A peer that stalls departs and re-enters as a new node on a new port;
    partners still holding its old address dial a closed listener and
    give up, which is the protocol working, not the transport failing
    (about one run in 45).  The counter does not say which peer was
    dialled, so what is checked is the count: at most ``max_partners``
    failed dials per re-entry seen in the log (more sessions than
    users), and none at all in a run without one.
    """
    sessions = table.sessions()
    reentries = len(sessions) - len({s.user_id for s in sessions})
    return ("net_connect_failures_zero_or_explained_by_reentries",
            failures <= reentries * max_partners,
            f"connect_failures={failures} reentries={reentries}")


def _net_parity_check(scenario, seed: int, realization, log
                      ) -> Tuple[str, bool, str]:
    """|mean continuity - detailed-engine continuity| on the same
    realization within the (detailed, net) band of runtime/parity.py."""
    from repro.runtime import build_backend
    from repro.runtime.parity import (
        ABSOLUTE_FLOOR,
        PAIR_TOLERANCES,
        MetricComparison,
        paper_metrics,
    )

    reference = build_backend(scenario, seed, "detailed",
                              workload=realization)
    reference.run(scenario.horizon_s)
    reference.log.flush()
    name = "mean_continuity"
    comparison = MetricComparison(
        name=name,
        detailed=paper_metrics(reference.log, scenario.horizon_s)[name],
        fast=paper_metrics(log, scenario.horizon_s)[name],
        tolerance=PAIR_TOLERANCES[("detailed", "net")][name],
        absolute_floor=ABSOLUTE_FLOOR[name],
        engines=("detailed", "net"),
    )
    return ("net_continuity_within_detailed_band", comparison.ok,
            f"detailed={comparison.detailed:.4f} net={comparison.fast:.4f} "
            f"tol={comparison.tolerance}")


def run(args) -> Dict[str, object]:
    spans = Spans()
    traced = bool(args.traced)
    if traced:
        # read by the fluid and ODE engines when they are constructed
        os.environ["REPRO_PROFILE_PHASES"] = "1"

    with spans.span("runtime.import"):
        import repro.obs as obs
        from repro.analysis.streaming import fold_log
        from repro.telemetry.sink import LogReader, SpillSink, set_spill_root

        from payload import make_folds, reduce_payload, sanity_checks
        from workloads import TIER_SCALES, WORKLOADS
        if traced:
            import micro
            import replay
            import selftime
            from repro.fastsim import engine as fastsim_engine
            from repro.model import meanfield

    workload = next(w for w in WORKLOADS if w.name == args.workload)
    scale = TIER_SCALES[args.tier]
    tmp_root = Path(tempfile.mkdtemp(prefix="child-", dir=args.tmp_root))
    backend = None
    try:
        if workload.spill:
            set_spill_root(tmp_root / "spill")

        with spans.span("workload.sample"):
            scenario = workload.build(scale)
            realization = workload.realize(scenario, args.seed, scale)
        horizon = float(scenario.horizon_s)

        session = obs.session() if traced else contextlib.nullcontext()
        profiles: Dict[str, cProfile.Profile] = {}

        @contextlib.contextmanager
        def measured(name: str) -> Iterator[None]:
            with spans.span(name):
                if not traced:
                    yield
                    return
                profile = profiles[name] = cProfile.Profile()
                profile.enable()
                try:
                    yield
                finally:
                    profile.disable()

        with session as ctx:
            with spans.span("runtime.build"):
                backend = _build_backend(workload, scenario, args.seed,
                                         realization)
            setup_raw_s = time.monotonic() - args.spawn_monotonic
            obs_off_untraced = traced or not obs.enabled()

            probe_before = speed_probe()
            # ---------------- the timed interval ----------------
            wall0 = time.perf_counter()
            cpu0 = time.process_time()
            with measured("runtime.run"):
                backend.run(horizon)
                backend.log.flush()
            with measured("analysis.fold"):
                sink = backend.log.sink
                source = (LogReader(sink.directory)
                          if isinstance(sink, SpillSink) else backend.log)
                folds = make_folds(horizon)
                results = dict(zip(folds, fold_log(source, *folds.values())))
            with measured("experiments.payload"):
                payload = reduce_payload(results)
                digest = obs.stable_hash(payload)
            wall_s = time.perf_counter() - wall0
            cpu_s = time.process_time() - cpu0
            # ----------------------------------------------------
            peak_rss_mb = _peak_rss_mb()
            probe_after = speed_probe()
            registry = ctx.registry.snapshot() if traced else {}

        counts = _engine_counts(workload, backend)
        if isinstance(backend.log.sink, SpillSink):
            counts["telemetry.spill_bytes"], counts["telemetry.spill_chunks"] \
                = _spill_usage(backend.log.sink.directory)

        # a join report needs its uplink delay to reach the log: a user
        # arriving in the last second before the horizon may not be in it
        logged_users = int(counts.get(
            "model.panel_users", (realization.times < horizon - 1.0).sum()))
        checks = [
            ("every_log_line_decodes",
             # the fold pass above parsed every stored line or raised
             backend.log.malformed_count == 0,
             f"malformed={backend.log.malformed_count} "
             f"lines={len(backend.log)}"),
            ("obs_off_when_untraced", obs_off_untraced,
             "an obs session was active in an untraced run"),
        ]
        checks += sanity_checks(payload, results,
                                arrivals=realization.n_users,
                                logged_users=logged_users,
                                n_servers=scenario.cfg.n_servers)
        if workload.engine == "net":
            checks += [
                ("net_no_frames_rejected", counts["net.frames_rejected"] == 0,
                 f"frames_rejected={counts['net.frames_rejected']}"),
                _connect_failures_check(counts["net.connect_failures"],
                                        results["session_table"],
                                        scenario.cfg.max_partners),
                _net_parity_check(scenario, args.seed, realization,
                                  backend.log),
            ]

        out: Dict[str, object] = {
            "workload": workload.name,
            "seed": args.seed,
            "traced": traced,
            "end_to_end": {"wall_s": wall_s, "cpu_s": cpu_s,
                           "peak_rss_mb": peak_rss_mb,
                           "setup_raw_s": setup_raw_s},
            # (wall, cpu) seconds of the speed probe on either side of the
            # timed interval; run.py turns them into the normalised times
            "probe_before": probe_before, "probe_after": probe_after,
            "spans_s": {
                "runtime.import_s": spans.seconds("runtime.import"),
                "workload.sample_s": spans.seconds("workload.sample"),
                "runtime.build_s": spans.seconds("runtime.build"),
                "runtime.run_s": spans.seconds("runtime.run"),
                "analysis.fold_s": spans.seconds("analysis.fold"),
                "experiments.payload_s": spans.seconds("experiments.payload"),
            },
            "counts": counts,
            "horizon_s": horizon,
            "n_users": realization.n_users,
            "payload_digest": digest,
            "checks": [{"name": n, "ok": bool(ok), "detail": d}
                       for n, ok, d in checks],
        }

        if traced:
            with spans.span("bench.replay"):
                replayed = replay.replay_log(backend.log, horizon, tmp_root)
            heap_depth = int(registry.get("engine.heap_depth_max", 0)) or 1024
            with spans.span("bench.micro"):
                micro_out = micro.run_all(heap_depth)
            out["traced_detail"] = {
                "profiles": {name: selftime.bucket_profile(profile)
                             for name, profile in profiles.items()},
                "registry": {k: v for k, v in registry.items()
                             if isinstance(v, (int, float))},
                "fastsim_phase_s": dict(fastsim_engine.PHASE_TOTALS),
                "model_phase_s": dict(meanfield.PHASE_TOTALS),
                "join_success_frac": payload["join_funnel"]["ready"]
                / max(1, payload["join_funnel"]["joined"]),
                "replay": replayed,
                "micro": micro_out,
            }
        out["spans"] = [dict(row, run_id=args.run_id) for row in spans.rows]
        if args.trace_out:
            spans.write_chrome_trace(args.trace_out, args.run_id)
        return out
    finally:
        close = getattr(backend, "close", None)
        if close is not None:
            close()                 # net: release sockets and the loop
        shutil.rmtree(tmp_root, ignore_errors=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tier", required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawn-monotonic", type=float, required=True,
                        help="parent's time.monotonic() just before spawn")
    parser.add_argument("--tmp-root", required=True)
    parser.add_argument("--run-id", default="run")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(130)
