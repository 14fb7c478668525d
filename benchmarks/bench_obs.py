"""Observability overhead + out-of-core telemetry benchmark.

Two questions, answered with fresh-subprocess measurements (so
``ru_maxrss`` is the truth for each point and allocator state never
leaks between points):

1. **What does an enabled metrics session cost the event kernel?**
   A no-op event micro-bench runs with observability off and with a
   metrics session active; the ratio of the two walls is the enabled-
   mode overhead.  Counters are batched and the wall-clock/heap probes
   sampled 1-in-64, so this should sit well under the ~2.8x the
   per-event instrumentation used to cost.

2. **What does a log line cost in memory at production volume?**
   A synthetic ingest pushes N log lines (the line volume of a
   paper-scale detailed run; 10k users over 300s produce ~1.1M log
   lines) through a :class:`~repro.telemetry.server.LogServer` backed
   by the in-memory sink and by the spill sink, and again with no line
   at all; peak RSS over the zero-line point, per line, is what the log
   holds per line.  Each sink is fed twice: one ``receive_report`` per
   line, and ``receive_lines`` batches of ``INGEST_BATCH`` rendered lines
   (the mean batch the vectorised engines hand the log server).  Both
   sinks keep gzip chunks plus one bounded tail, so both stay far below
   a store of one object per line.  Full mode
   adds real 4k-user detailed runs (memory vs spill) and the 10k-user
   spill run whose in-memory twin is the committed ``BENCH_scale.json``
   point.

Usage::

    python benchmarks/bench_obs.py            # full sweep -> BENCH_obs.json
    python benchmarks/bench_obs.py --smoke    # CI: micro points + tripwires

``--smoke`` measures the cheap points only, does NOT rewrite
``BENCH_obs.json``, and fails (exit 1) when either tripwire fires:

* enabled-mode kernel overhead above ``MAX_OVERHEAD`` (2.0x — the
  committed full-mode figure is the trend signal; the smoke gate only
  catches a return of per-event instrumentation), or
* either sink's ingest peak RSS above its zero-line point by more than
  ``MAX_BYTES_PER_LINE`` per ingested line, line by line or batched.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter  # repro: noqa[DET002] benchmark stopwatch

BENCH_DIR = Path(__file__).resolve().parent
BENCH_JSON = BENCH_DIR / "BENCH_obs.json"
REPO_SRC = BENCH_DIR.parent / "src"

SEED = 0
#: no-op events for the kernel overhead points
KERNEL_EVENTS_FULL = 1_000_000
KERNEL_EVENTS_SMOKE = 200_000
#: synthetic ingest volume: ~the log-line count of the 10k-user detailed
#: scale point (BENCH_scale.json) -- production volume for this repo
INGEST_LINES_FULL = 1_200_000
INGEST_LINES_SMOKE = 300_000
#: --smoke tripwire: ingest peak RSS over the zero-line point, per line,
#: either sink.  Measured at 300k QoS lines on a 2-vCPU x86-64 Linux box:
#: 52 B/line in memory, 28 B/line spilled (the in-memory sink's rotated
#: chunks stay resident; both pay one tail of up to 50k rendered lines);
#: an in-memory store of one ``LogEntry`` per line measured 232 B/line.
#: Fed in ``INGEST_BATCH``-line ``receive_lines`` calls: 45 B/line in
#: memory, 28 B/line spilled.
MAX_BYTES_PER_LINE = 100
#: lines per ``receive_lines`` call in the batched ingest points.  Counted
#: per call on the perf suite's full tier, seed 0: ``ode_spill`` makes 749
#: calls for 242,865 lines (mean 324; activity calls median 167, status
#: calls median 687, at most 876), ``fluid_ramp`` 477 calls for 131,784
#: lines (mean 276; activity median 93, status median 885, at most 1,149).
#: Seed 1 gives the same means within 1%; 300 sits between the two.
INGEST_BATCH = 300
#: --smoke tripwire: metrics-session / obs-off wall ratio of the no-op
#: kernel micro above.  The instrumented loop batches its counters and
#: times one event in 64, so it sits well below; per-event
#: instrumentation measured ~2.8x.
MAX_OVERHEAD = 2.0


def _peak_rss_mb() -> float:
    """This process's peak RSS in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# child-process measurement points
# --------------------------------------------------------------------------

def measure_kernel(mode: str, count: int) -> dict:
    """No-op event throughput with obs off or a metrics session active."""
    import contextlib

    import repro.obs as obs
    from repro.sim.engine import Engine

    def build() -> Engine:
        eng = Engine()

        def noop():
            pass

        for i in range(count):
            eng.schedule(float(i % 100), noop)
        return eng

    # warm-up outside the timed region (heap allocation, bytecode caches)
    build().run()

    if mode == "metrics":
        tmp = tempfile.NamedTemporaryFile(suffix=".jsonl", delete=False)
        session = obs.session(metrics_path=tmp.name)
    else:
        session = contextlib.nullcontext()
    with session:
        eng = build()
        t0 = perf_counter()  # repro: noqa[DET002] benchmark stopwatch
        eng.run()
        wall = perf_counter() - t0  # repro: noqa[DET002] benchmark stopwatch
    return {
        "point": "kernel",
        "mode": mode,
        "events": count,
        "wall_s": round(wall, 4),
        "events_per_s": round(count / wall, 1),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
    }


def measure_ingest(mode: str, n_lines: int, batch: int = 0) -> dict:
    """Peak RSS of ingesting ``n_lines`` synthetic reports, memory vs spill:
    one ``receive_report`` per line, or with ``batch`` lines per
    ``receive_lines`` call, rendered by ``QoSReport.log_strings``."""
    from repro.telemetry.reports import QoSReport
    from repro.telemetry.server import LogServer
    from repro.telemetry.sink import MemorySink, SpillSink

    tmpdir = None
    if mode == "spill":
        tmpdir = tempfile.mkdtemp(prefix="bench-obs-spill-")
        server = LogServer(sink=SpillSink(Path(tmpdir) / "log"))
    else:
        server = LogServer(sink=MemorySink())

    t0 = perf_counter()  # repro: noqa[DET002] benchmark stopwatch
    if batch:
        # the same fields as below; a batch shares its first line's time
        receive_lines = server.receive_lines
        for lo in range(0, n_lines, batch):
            rows = range(lo, min(lo + batch, n_lines))
            receive_lines(lo * 0.25, QoSReport.log_strings(
                lo * 0.25, [1000 + i % 10_000 for i in rows],
                [i % 10_000 for i in rows], [i % 40_000 for i in rows],
                [(i % 101) / 100.0 for i in rows],
                [(i % 240) / 10.0 for i in rows], [i % 6 for i in rows],
                [bool(i % 7) for i in rows]))
    else:
        receive_report = server.receive_report
        for i in range(n_lines):
            # distinct float fields per line: no small-object interning bonus
            receive_report(i * 0.25, QoSReport(
                time=i * 0.25, node_id=1000 + i % 10_000,
                user_id=i % 10_000, session_id=i % 40_000,
                continuity=(i % 101) / 100.0,
                buffered_seconds=(i % 240) / 10.0,
                n_parents=i % 6, playing=bool(i % 7),
            ))
    server.close()
    wall = perf_counter() - t0  # repro: noqa[DET002] benchmark stopwatch

    row = {
        "point": "batch" if batch else "ingest",
        "mode": mode,
        "lines": n_lines,
        "wall_s": round(wall, 3),
        "lines_per_s": round(n_lines / wall, 1) if wall > 0 else 0.0,
        "peak_rss_mb": round(_peak_rss_mb(), 1),
    }
    if mode == "spill":
        spill_dir = Path(tmpdir) / "log"
        chunks = sorted(spill_dir.glob("chunk-*"))
        row["chunks"] = len(chunks)
        row["spill_bytes"] = sum(c.stat().st_size for c in chunks)
    return row


def measure_run(engine: str, n_users: int, mode: str) -> dict:
    """A real uniform_ramp run with the log in memory vs spilled."""
    from repro.runtime import run_scenario
    from repro.telemetry.sink import SPILL_ENV_VAR, set_spill_root
    from repro.workload.scenarios import uniform_ramp

    tmpdir = None
    if mode == "spill":
        tmpdir = tempfile.mkdtemp(prefix="bench-obs-run-")
        os.environ[SPILL_ENV_VAR] = tmpdir
        set_spill_root(tmpdir)

    scenario = uniform_ramp(
        n_users=n_users, horizon_s=300.0, ramp_frac=0.5,
        n_servers=max(3, n_users // 500),
    )
    t0 = perf_counter()  # repro: noqa[DET002] benchmark stopwatch
    res = run_scenario(scenario, seed=SEED, engine=engine)
    wall = perf_counter() - t0  # repro: noqa[DET002] benchmark stopwatch

    log = res.system.log
    n_lines = len(log)
    log.close()
    row = {
        "point": "run",
        "mode": mode,
        "engine": engine,
        "n_users": n_users,
        "log_lines": n_lines,
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
    }
    if tmpdir is not None:
        chunks = list(Path(tmpdir).rglob("chunk-*"))
        row["chunks"] = len(chunks)
        row["spill_bytes"] = sum(c.stat().st_size for c in chunks)
    return row


def _child_main(spec: str) -> int:
    kind, _, rest = spec.partition(":")
    if kind == "kernel":
        mode, _, count = rest.partition(":")
        row = measure_kernel(mode, int(count))
    elif kind == "ingest":
        mode, n, batch = (rest + ":0").split(":")[:3]
        row = measure_ingest(mode, int(n), int(batch))
    elif kind == "run":
        engine, n, mode = rest.split(":")
        row = measure_run(engine, int(n), mode)
    else:
        raise SystemExit(f"unknown child spec {spec!r}")
    print(json.dumps(row))
    return 0


def _run_child(spec: str) -> dict:
    env = dict(os.environ)
    env.pop("REPRO_LOG_SPILL", None)  # each child opts in explicitly
    env["PYTHONPATH"] = str(REPO_SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", spec],
        env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"bench point {spec} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _print_row(row: dict) -> None:
    extras = ""
    if "events_per_s" in row:
        extras = f"  {row['events_per_s']:>12,.0f} events/s"
    elif "lines_per_s" in row:
        extras = f"  {row['lines_per_s']:>12,.0f} lines/s"
    if "chunks" in row:
        extras += (f"  {row['chunks']} chunks"
                   f" ({row['spill_bytes'] / 1e6:.1f} MB gz)")
    print(f"[bench_obs] {row['point']:>6}/{row['mode']:<7} "
          f"{row['wall_s']:>8.2f}s  rss {row['peak_rss_mb']:>6.0f} MiB"
          + extras)


def _load_baseline(path: Path) -> dict:
    if not path.exists():
        return {}
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Observability overhead + log-spill RSS benchmark "
                    "(see BENCH_obs.json).",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="cheap points + tripwires only; does not "
                             "rewrite BENCH_obs.json")
    parser.add_argument("--out", type=Path, default=BENCH_JSON,
                        help="output path for the full-sweep JSON")
    parser.add_argument("--child", metavar="SPEC", default=None,
                        help=argparse.SUPPRESS)  # internal: one point
    args = parser.parse_args(argv)

    if args.child:
        sys.path.insert(0, str(REPO_SRC))
        return _child_main(args.child)

    kernel_events = KERNEL_EVENTS_SMOKE if args.smoke else KERNEL_EVENTS_FULL
    ingest_lines = INGEST_LINES_SMOKE if args.smoke else INGEST_LINES_FULL

    off = _run_child(f"kernel:off:{kernel_events}")
    on = _run_child(f"kernel:metrics:{kernel_events}")
    overhead = on["wall_s"] / off["wall_s"]
    for row in (off, on):
        _print_row(row)
    print(f"[bench_obs] enabled-mode kernel overhead: {overhead:.2f}x")

    ingest = {}
    for mode in ("memory", "spill"):
        zero = _run_child(f"ingest:{mode}:0")
        for batch in (0, INGEST_BATCH):
            row = _run_child(f"ingest:{mode}:{ingest_lines}:{batch}")
            row["bytes_per_line"] = round(
                (row["peak_rss_mb"] - zero["peak_rss_mb"]) * 2**20
                / ingest_lines, 1)
            name = f"{mode} batched" if batch else mode
            ingest[name] = row
            _print_row(row)
            print(f"[bench_obs] ingest rss {name}: "
                  f"{row['peak_rss_mb']:.1f} MiB over "
                  f"{zero['peak_rss_mb']:.1f} MiB at zero lines = "
                  f"{row['bytes_per_line']:.1f} B/line")
    mem, spill = ingest["memory"], ingest["spill"]
    rss_saved = mem["peak_rss_mb"] - spill["peak_rss_mb"]

    if args.smoke:
        failures = []
        if overhead > MAX_OVERHEAD:
            failures.append(
                f"kernel overhead {overhead:.2f}x exceeds "
                f"{MAX_OVERHEAD:.2f}x")
        for mode, row in ingest.items():
            if row["bytes_per_line"] > MAX_BYTES_PER_LINE:
                failures.append(
                    f"{mode} ingest holds {row['bytes_per_line']:.0f} B per "
                    f"line, above {MAX_BYTES_PER_LINE}")
        if failures:
            for f in failures:
                print(f"[bench_obs] TRIPWIRE: {f}")
            return 1
        print("[bench_obs] tripwires OK")
        return 0

    # full mode: real runs -- 4k users memory vs spill, plus the 10k spill
    # point whose in-memory twin is the committed BENCH_scale.json row
    runs = []
    for spec in ("run:detailed:4000:memory", "run:detailed:4000:spill",
                 "run:detailed:10000:spill"):
        row = _run_child(spec)
        runs.append(row)
        _print_row(row)

    scale = _load_baseline(BENCH_DIR / "BENCH_scale.json")
    scale_10k_mem = next(
        (r.get("peak_rss_mb") for r in scale.get("scale_points", ())
         if r.get("engine") == "detailed" and r.get("n_users") == 10_000),
        None,
    )

    payload = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "seed": SEED,
        "kernel_overhead": {
            "events": kernel_events,
            "off": off,
            "metrics": on,
            "enabled_overhead_ratio": round(overhead, 3),
        },
        "synthetic_ingest": {
            "lines": ingest_lines,
            "memory": mem,
            "spill": spill,
            "rss_saved_mb": round(rss_saved, 1),
            "batch_lines": INGEST_BATCH,
            "memory_batched": ingest["memory batched"],
            "spill_batched": ingest["spill batched"],
        },
        "runs": runs,
        "scale_baseline_10k_memory_rss_mb": scale_10k_mem,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[bench_obs] wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
