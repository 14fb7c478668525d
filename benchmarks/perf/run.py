#!/usr/bin/env python3
"""The repo benchmark: scenario in -> Section V payloads out, on five
workloads across the four engines, end to end and layer by layer.

Two ways in, one measurement underneath (``child.py`` in a fresh
subprocess per repeat, BLAS pinned to one thread):

* ``python benchmarks/perf/run.py [--seed 0] [--workload NAME]
  [--repeats K] [--traced/--no-traced] [--out DIR] [--smoke]`` -- the
  whole suite: every workload's repeats, then one traced run each; prints
  every metric by name with its unit, checks the outputs, writes one
  results JSON (``compare.py`` reads two of them).  Exit 0 all checks
  pass, 1 some failed, 2 usage, 130 interrupted.
* ``... run.py --workload NAME --seed N --seconds S --trace 0|1`` -- one
  driver run (``BENCHMARK.json`` contract): repeats for ``S`` seconds (at
  least three), prints as its last stdout line one JSON object with the
  end-to-end (``--trace 0``) or per-layer (``--trace 1``) metrics.

``--selftest`` validates the metric tables, ``BENCHMARK.json`` and
(optionally) a results file against the schema.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
SRC = REPO_ROOT / "src"

from attribute import layer_metrics  # noqa: E402  (sibling module)
from machine import (  # noqa: E402
    PROBE_REF_S,
    THREAD_PINS,
    calibrate,
    fingerprint,
)
from metrics import END_TO_END, PER_LAYER, RAW_END_TO_END  # noqa: E402
from workloads import TIER_SCALES, WORKLOADS, Workload  # noqa: E402

RESULTS_SCHEMA = "repro-perf-results-v1"
MIN_REPEATS = 3
#: A child that takes longer than this multiple of its workload's
#: expected time is killed and counted as failed ops -- never a hang.
TIMEOUT_FACTOR = 3.0
#: cProfile inflation plus replay and micro-loops
TRACED_TIMEOUT_FACTOR = 4.0
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class Interrupted(Exception):
    """SIGINT/SIGTERM: unwind through the cleanup handlers, exit 130."""


def _on_signal(_signum, _frame) -> None:
    raise Interrupted()


# ---------------------------------------------------------------------------
# running children
# ---------------------------------------------------------------------------
class Runner:
    """Spawns one fresh child per repeat and owns the scratch directory
    every child writes under (spill chunks, replay copies)."""

    def __init__(self, out_dir: Path, tier: str) -> None:
        self.tier = tier
        out_dir.mkdir(parents=True, exist_ok=True)
        self.tmp_root = Path(tempfile.mkdtemp(prefix="tmp-", dir=out_dir))
        self._n = 0

    def close(self) -> None:
        shutil.rmtree(self.tmp_root, ignore_errors=True)

    def run_child(self, workload: Workload, seed: int, traced: bool,
                  trace_out: Optional[Path] = None) -> dict:
        """One run.  A crash or timeout comes back as a failed-op record
        (``"error"`` set), not as an exception."""
        self._n += 1
        run_id = f"{workload.name}:{seed}:{self._n}"
        env = dict(os.environ, **THREAD_PINS)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env.pop("REPRO_PROFILE_PHASES", None)
        env.pop("REPRO_LOG_SPILL", None)
        cmd = [sys.executable, str(HERE / "child.py"),
               "--workload", workload.name, "--seed", str(seed),
               "--tier", self.tier, "--traced", "1" if traced else "0",
               "--tmp-root", str(self.tmp_root), "--run-id", run_id]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        # + 2 s for interpreter start and imports; the smoke tier only
        # finishes sooner
        timeout = (TIMEOUT_FACTOR * (TRACED_TIMEOUT_FACTOR if traced else 1.0)
                   * (2.0 + workload.expected_s))
        cmd += ["--spawn-monotonic", repr(time.monotonic())]
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            _kill_group(proc)
            return _failed_run(workload, seed, traced,
                               f"timed out after {timeout:.0f}s")
        except BaseException:
            _kill_group(proc)
            raise
        if proc.returncode != 0:
            tail = stderr.strip().splitlines()[-1:] or ["no stderr"]
            return _failed_run(workload, seed, traced,
                               f"exit {proc.returncode}: {tail[0]}")
        try:
            return add_normalised(
                workload, json.loads(stdout.strip().splitlines()[-1]))
        except (IndexError, ValueError):
            return _failed_run(workload, seed, traced, "no JSON result")


def add_normalised(workload: Workload, run: dict) -> dict:
    """Add the gated times to one child's raw ones.

    A probe run back to back with the work saw the same host phase, so
    ``seconds x PROBE_REF_S / probe`` is what the work would have taken
    at the reference speed: wall seconds by the probe's wall clock, CPU
    seconds by its CPU clock; the interval by the mean of the probes on
    either side of it, set-up by the one that follows it.  The wall time
    of a paced run is left as measured: it is the pacing floor plus lag,
    and does not stretch with the host.
    """
    times = run["end_to_end"]
    (wall_before, cpu_before), (wall_after, cpu_after) = (
        run["probe_before"], run["probe_after"])
    run["probe_s"] = (wall_before + wall_after) / 2.0
    times["wall_norm_s"] = (
        times["wall_s"] if workload.time_scale
        else times["wall_s"] * PROBE_REF_S / run["probe_s"])
    times["cpu_norm_s"] = (times["cpu_s"] * PROBE_REF_S
                           / ((cpu_before + cpu_after) / 2.0))
    times["setup_s"] = times["setup_raw_s"] * PROBE_REF_S / wall_before
    return run


def _kill_group(proc: subprocess.Popen) -> None:
    """Stop a child and anything it started; wait until it has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def _failed_run(workload: Workload, seed: int, traced: bool, why: str) -> dict:
    return {"workload": workload.name, "seed": seed, "traced": traced,
            "error": why,
            "checks": [{"name": "run_completed", "ok": False, "detail": why}]}


# ---------------------------------------------------------------------------
# one workload: repeats, checks, aggregation
# ---------------------------------------------------------------------------
def _exact_signature(run: dict) -> tuple:
    counts = run["counts"]
    return (run["payload_digest"], counts.get("sim.events"),
            counts.get("fastsim.steps"), counts.get("model.steps"),
            counts["telemetry.log_lines"])


def cross_run_checks(workload: Workload, untraced: List[dict],
                     traced: Optional[dict]) -> List[dict]:
    """Checks that need more than one run: repeats agree exactly on a
    fixed seed, and tracing only reads."""
    checks: List[dict] = []
    good = [r for r in untraced if "error" not in r]
    if workload.deterministic and len(good) > 1:
        signatures = {_exact_signature(r) for r in good}
        checks.append({
            "name": "repeats_reproduce_digest_and_counts",
            "ok": len(signatures) == 1,
            "detail": f"{len(signatures)} distinct (digest, steps, lines) "
                      f"over {len(good)} repeats"})
    if (workload.deterministic and good and traced is not None
            and "error" not in traced):
        checks.append({
            "name": "traced_digest_equals_untraced",
            "ok": traced["payload_digest"] == good[0]["payload_digest"],
            "detail": f"traced {traced['payload_digest'][:12]} vs "
                      f"untraced {good[0]['payload_digest'][:12]}"})
    return checks


def summarize(workload: Workload, untraced: List[dict],
              traced: Optional[dict]) -> dict:
    """One workload's block of the results file."""
    good = [r for r in untraced if "error" not in r]
    checks = [c for r in untraced for c in r["checks"]]
    if traced is not None:
        checks += traced["checks"]
    checks += cross_run_checks(workload, untraced, traced)
    block: Dict[str, object] = {
        "why": workload.why,
        "engine": workload.engine,
        "predicted_shares": workload.predicted,
        "n_runs": len(untraced),
        "end_to_end": {},
        "per_layer": None,
        "payload_digest": good[0]["payload_digest"] if good else None,
        "n_users": good[0]["n_users"] if good else None,
        "horizon_s": good[0]["horizon_s"] if good else None,
        "probe_s": [r["probe_s"] for r in good],
    }
    for metric in END_TO_END + RAW_END_TO_END:
        values = [r["end_to_end"][metric.name] for r in good]
        block["end_to_end"][metric.name] = {
            "unit": metric.unit,
            "median": median(values) if values else None,
            "min": min(values) if values else None,
            "max": max(values) if values else None,
            "n": len(values),
            "values": values,
        }
    if traced is not None and "error" not in traced and good:
        layers = layer_metrics(workload, good, traced)
        wall = block["end_to_end"]["wall_s"]["median"]
        checks.append({
            "name": "layer_seconds_sum_to_wall",
            "ok": abs(layers["bench.unattributed_s"]) <= 0.02 * wall,
            "detail": f"unattributed {layers['bench.unattributed_s']:.4f}s "
                      f"of wall {wall:.3f}s"})
        block["per_layer"] = layers
        block["spans"] = traced["spans"]
    block["ops_total"] = len(checks)
    block["ops_failed"] = sum(1 for c in checks if not c["ok"])
    block["ops_failed_frac"] = block["ops_failed"] / max(1, len(checks))
    block["failed_checks"] = [c for c in checks if not c["ok"]]
    return block


# ---------------------------------------------------------------------------
# driver mode (BENCHMARK.json contract)
# ---------------------------------------------------------------------------
def driver_run(args) -> int:
    workload = _workload(args.workload)
    runner = Runner(Path(args.out), "full")
    try:
        started = time.monotonic()
        untraced: List[dict] = []
        traced = None
        if args.trace:
            # per-layer numbers: shares from one traced run, seconds from
            # untraced runs over the first half of the measuring time
            budget, at_least = args.seconds / 2.0, 1
        else:
            budget, at_least = float(args.seconds), MIN_REPEATS
        while (len(untraced) < at_least
               or time.monotonic() - started < budget):
            untraced.append(runner.run_child(workload, args.seed, False))
        if args.trace:
            traced = runner.run_child(workload, args.seed, True)
    finally:
        runner.close()
    block = summarize(workload, untraced, traced)
    if args.trace:
        layers = block["per_layer"]
        if layers is None:
            print("error: traced run failed: "
                  f"{block['failed_checks']}", file=sys.stderr)
            return 1
        units = {layer.name: layer.unit for layer in PER_LAYER}
        metrics = {name: {"value": float(value), "unit": units[name]}
                   for name, value in layers.items()}
    else:
        if block["end_to_end"]["wall_s"]["n"] == 0:
            print(f"error: every run failed: {block['failed_checks']}",
                  file=sys.stderr)
            return 1
        metrics = {m.name: {"value": block["end_to_end"][m.name]["median"],
                            "unit": m.unit} for m in END_TO_END}
    for check in block["failed_checks"]:
        print(f"check failed: {check['name']}: {check['detail']}",
              file=sys.stderr)
    print(json.dumps({
        "correct": block["ops_failed"] == 0,
        "attempted": block["ops_total"],
        "failed": block["ops_failed"],
        "metrics": metrics,
    }))
    return 0


# ---------------------------------------------------------------------------
# suite mode
# ---------------------------------------------------------------------------
def suite_run(args) -> int:
    tier = "smoke" if args.smoke else "full"
    traced_on = args.traced if args.traced is not None else not args.smoke
    out_dir = Path(args.out)
    selected = ([_workload(args.workload)] if args.workload
                else list(WORKLOADS))
    runner = Runner(out_dir, tier)
    sys.path.insert(0, str(SRC))
    from repro.obs import git_revision

    results: Dict[str, object] = {
        "schema": RESULTS_SCHEMA,
        "tier": tier,
        "seed": args.seed,
        "scale": vars(TIER_SCALES[tier]),
        "machine": fingerprint(REPO_ROOT, git_revision),
        "calibration": calibrate(),
        "workloads": {},
    }
    try:
        for workload in selected:
            repeats = 1 if args.smoke else (args.repeats or workload.repeats)
            print(f"== {workload.name} ({workload.engine}, {repeats} "
                  f"repeat{'s' if repeats > 1 else ''}"
                  f"{', + traced' if traced_on else ''}) ==", flush=True)
            untraced = [runner.run_child(workload, args.seed, False)
                        for _ in range(repeats)]
            traced = None
            if traced_on:
                trace_path = out_dir / f"trace_{workload.name}_{tier}.json"
                traced = runner.run_child(workload, args.seed, True,
                                          trace_out=trace_path)
            block = summarize(workload, untraced, traced)
            results["workloads"][workload.name] = block
            _print_block(workload.name, block)
    finally:
        runner.close()
    out_path = out_dir / f"results_{tier}_seed{args.seed}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
        fh.write("\n")
    print(f"[results written to {out_path}]")
    problems = validate_results(results)
    for problem in problems:
        print(f"schema: {problem}", file=sys.stderr)
    failed = sum(b["ops_failed"] for b in results["workloads"].values())
    return 1 if failed or problems else 0


def _print_block(name: str, block: dict) -> None:
    print(f"{'metric':<14}{'unit':>6}{'median':>12}{'min':>12}{'max':>12}"
          f"{'n':>4}")
    for metric in END_TO_END + RAW_END_TO_END:
        row = block["end_to_end"][metric.name]
        if row["n"]:
            print(f"{metric.name:<14}{metric.unit:>6}{row['median']:>12.4f}"
                  f"{row['min']:>12.4f}{row['max']:>12.4f}{row['n']:>4}")
        else:
            print(f"{metric.name:<14}{metric.unit:>6}{'-':>12}{'-':>12}"
                  f"{'-':>12}{0:>4}")
    print(f"{'ops_failed_frac':<20}{'ratio':>6}{block['ops_failed_frac']:>10.4f}"
          f"   (ops_total {block['ops_total']}, ops_failed "
          f"{block['ops_failed']})")
    print(f"payload_digest {block['payload_digest']}")
    for check in block["failed_checks"]:
        print(f"  FAILED {check['name']}: {check['detail']}")
    layers = block["per_layer"]
    if layers is not None:
        wall = block["end_to_end"]["wall_s"]["median"]
        print(f"-- per layer (traced run; self_s = traced share x untraced "
              f"seconds; wall_s {wall:.3f}) --")
        for layer in PER_LAYER:
            value = layers[layer.name]
            if value == 0 and name not in layer.on:
                continue        # a layer this workload does not exercise
            share = (f"{100 * value / wall:6.1f}%"
                     if layer.unit == "s" and wall else "")
            print(f"{layer.name:<46}{value:>16.4f} {layer.unit:<6}{share}")
    print(flush=True)


# ---------------------------------------------------------------------------
# schema self-test
# ---------------------------------------------------------------------------
def validate_tables() -> List[str]:
    """The declared metric/workload tables against the contract limits."""
    problems: List[str] = []
    names = [w.name for w in WORKLOADS]
    e2e = [m.name for m in END_TO_END]
    layers = [layer.name for layer in PER_LAYER]
    if not 2 <= len(names) <= 8:
        problems.append(f"{len(names)} workloads (need 2..8)")
    if not 1 <= len(e2e) <= 16:
        problems.append(f"{len(e2e)} end-to-end metrics (need 1..16)")
    if not 1 <= len(layers) <= 128:
        problems.append(f"{len(layers)} per-layer metrics (need 1..128)")
    for name in names + e2e + layers:
        if not _NAME_RE.match(name):
            problems.append(f"bad name {name!r}")
    for group in (names, e2e + layers):
        for name in {n for n in group if group.count(n) > 1}:
            problems.append(f"name {name!r} used more than once")
    for m in END_TO_END:
        if not _UNIT_RE.match(m.unit):
            problems.append(f"{m.name}: bad unit {m.unit!r}")
        if m.better not in ("lower", "higher"):
            problems.append(f"{m.name}: bad direction {m.better!r}")
        if not 0 < m.bound <= 0.25:
            problems.append(f"{m.name}: bound {m.bound} outside (0, 0.25]")
    if "setup_s" not in e2e:
        problems.append("no setup_s end-to-end metric")
    for layer in PER_LAYER:
        if not _UNIT_RE.match(layer.unit):
            problems.append(f"{layer.name}: bad unit {layer.unit!r}")
        if layer.better not in ("lower", "higher"):
            problems.append(f"{layer.name}: bad direction {layer.better!r}")
        if layer.moves not in e2e:
            problems.append(f"{layer.name}: moves unknown metric "
                            f"{layer.moves!r}")
        if not layer.on or any(w not in names for w in layer.on):
            problems.append(f"{layer.name}: names no known workload")
    for w in WORKLOADS:
        if not w.why or len(w.why) > 200 or "\n" in w.why:
            problems.append(f"{w.name}: 'why' must be one line <= 200 chars")
    return problems


def validate_benchmark_json(path: Path) -> List[str]:
    """``BENCHMARK.json`` against the contract and the tables."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"{path}: {exc}"]
    problems: List[str] = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        problems.append(f"keys {sorted(spec)} != {sorted(keys)}")
        return problems
    if path.stat().st_size > 64 * 1024:
        problems.append("file larger than 64 KiB")
    if not (isinstance(spec["run_seconds"], int)
            and 1 <= spec["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number in 1..60")
    if [(w["name"], w["why"]) for w in spec["workloads"]] != [
            (w.name, w.why) for w in WORKLOADS]:
        problems.append("workloads differ from workloads.py")
    if [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] != [
            (m.name, m.unit, m.better, m.bound) for m in END_TO_END]:
        problems.append("end_to_end differs from metrics.py")
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != [
            (m.name, m.unit, m.better) for m in PER_LAYER]:
        problems.append("per_layer differs from metrics.py")
    return problems


def validate_results(results: dict) -> List[str]:
    """A results file against the schema ``compare.py`` relies on."""
    problems: List[str] = []
    if results.get("schema") != RESULTS_SCHEMA:
        problems.append(f"schema is {results.get('schema')!r}")
    if results.get("tier") not in TIER_SCALES:
        problems.append(f"unknown tier {results.get('tier')!r}")
    for key in ("machine", "calibration", "workloads", "seed"):
        if key not in results:
            problems.append(f"missing {key!r}")
    known = {w.name for w in WORKLOADS}
    layer_names = {layer.name for layer in PER_LAYER}
    for name, block in results.get("workloads", {}).items():
        if name not in known:
            problems.append(f"unknown workload {name!r}")
        for metric in END_TO_END + RAW_END_TO_END:
            row = block["end_to_end"].get(metric.name)
            if row is None or row.get("unit") != metric.unit:
                problems.append(f"{name}: {metric.name} missing or wrong unit")
            elif row["n"] != len(row["values"]):
                problems.append(f"{name}: {metric.name} n != len(values)")
        for key in ("ops_total", "ops_failed", "ops_failed_frac"):
            if key not in block:
                problems.append(f"{name}: missing {key}")
        layers = block.get("per_layer")
        if layers is not None and set(layers) != layer_names:
            problems.append(f"{name}: per_layer names differ from metrics.py")
    return problems


def selftest(results_path: Optional[str]) -> int:
    problems = validate_tables()
    problems += validate_benchmark_json(REPO_ROOT / "BENCHMARK.json")
    if results_path:
        try:
            with open(results_path, "r", encoding="utf-8") as fh:
                problems += validate_results(json.load(fh))
        except (OSError, ValueError) as exc:
            problems.append(f"{results_path}: {exc}")
    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    print(f"selftest: {len(WORKLOADS)} workloads, {len(END_TO_END)} "
          f"end-to-end and {len(PER_LAYER)} per-layer metrics: "
          f"{'FAILED' if problems else 'ok'}")
    return 1 if problems else 0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def _workload(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise SystemExit(f"error: unknown workload {name!r}; choose from "
                     f"{', '.join(w.name for w in WORKLOADS)}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/perf/run.py",
        description="Scenario -> Section V payloads on five workloads "
                    "across four engines, end to end and per layer.")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default 0; 1 is the hold-out)")
    parser.add_argument("--workload", default=None,
                        help="run one workload (default: all)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="untraced repeats per workload (default: the "
                             "workload's own)")
    parser.add_argument("--traced", dest="traced", action="store_true",
                        default=None, help="add the traced run (default on, "
                                           "off with --smoke)")
    parser.add_argument("--no-traced", dest="traced", action="store_false")
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="results directory (default benchmarks/perf/out)")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at the reduced common scale, "
                             "1 repeat, traced off, < 60 s")
    parser.add_argument("--selftest", nargs="?", const="", default=None,
                        metavar="RESULTS.json",
                        help="validate metric tables, BENCHMARK.json and "
                             "optionally a results file; run nothing")
    driver = parser.add_argument_group("driver mode (BENCHMARK.json contract)")
    driver.add_argument("--seconds", type=float, default=None,
                        help="measure one workload for this long and print "
                             "one JSON line")
    driver.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, 1: per-layer metrics")
    args = parser.parse_args(argv)

    if args.selftest is not None:
        return selftest(args.selftest)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC}/repro not found: the benchmark measures the "
              "program in this checkout and there is none", file=sys.stderr)
        return 2
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be >= 1")
    signal.signal(signal.SIGINT, _on_signal)
    signal.signal(signal.SIGTERM, _on_signal)
    try:
        if args.seconds is not None:
            if not args.workload:
                parser.error("--seconds needs --workload")
            if args.seconds <= 0:
                parser.error("--seconds must be positive")
            return driver_run(args)
        return suite_run(args)
    except Interrupted:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
