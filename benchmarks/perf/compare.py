#!/usr/bin/env python3
"""Compare two results files of ``run.py``: ``compare.py A.json B.json``.

``A`` is the parent (or the first of two sets of the same code), ``B``
the change.  One row per (end-to-end metric, workload): median, min, max
and n of both sides, the relative change of the median, and a verdict
under the benchmark's own bound for that metric:

* ``regressed``  -- B's median is worse than A's by more than the bound;
* ``improved``   -- every run of B beats every run of A, or B's median is
  better by more than the bound;
* ``unresolved`` -- either side's min-max spread exceeds the bound and
  the two sides' runs overlap: the data cannot tell *unchanged* from
  *changed*, so it is not reported as unchanged;
* ``unchanged``  -- otherwise.

``ops_failed_frac`` has bound 0: any rise is a regression.  Raw
``wall_s``/``cpu_s``/``setup_raw_s`` rows are shown but not counted.  On
the deterministic engines a differing ``payload_digest`` or count-type
layer metric is noted: simulated behaviour changed, which a correctness
change may do and a perf change may not.  A smoke-tier file is refused
against a full-tier one, as are files of different seeds or sizes
(hold-out comparisons pair A@seed with B@seed, never across).

Exit 0: no row regressed or unresolved.  1: at least one did.  2: usage
error or files that cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

from metrics import END_TO_END, PER_LAYER, RAW_END_TO_END

__all__ = ["compare", "row_verdict", "main"]


def row_verdict(a: List[float], b: List[float], *, better: str,
                bound: float) -> Tuple[str, float]:
    """Verdict and relative median change (positive = worse) of one row."""
    from statistics import median

    med_a, med_b = median(a), median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if better == "lower":
        b_beats_a, a_beats_b = max(b) < min(a), max(a) < min(b)
    else:
        b_beats_a, a_beats_b = min(b) > max(a), min(a) > max(b)
    spread = max((max(v) - min(v)) / abs(median(v)) if median(v) else 0.0
                 for v in (a, b))
    if spread > bound and not (b_beats_a or a_beats_b):
        return "unresolved", worse_by
    if worse_by > bound:
        return "regressed", worse_by
    if b_beats_a or worse_by < -bound:
        return "improved", worse_by
    return "unchanged", worse_by


def _incomparable(a: dict, b: dict) -> Optional[str]:
    for side, results in (("A", a), ("B", b)):
        if results.get("schema") != "repro-perf-results-v1":
            return f"{side} is not a run.py results file"
    if a["tier"] != b["tier"]:
        return (f"tier mismatch: A is {a['tier']!r}, B is {b['tier']!r} "
                "(smoke-tier numbers are not perf evidence)")
    if a["seed"] != b["seed"]:
        return f"seed mismatch: A used {a['seed']}, B used {b['seed']}"
    if a["scale"] != b["scale"]:
        return "the two files ran the workloads at different sizes"
    return None


def compare(a: dict, b: dict) -> Tuple[List[dict], Dict[str, int]]:
    """All rows of A vs B and a verdict tally."""
    rows: List[dict] = []
    tally = {"regressed": 0, "improved": 0, "unresolved": 0, "unchanged": 0,
             "missing": 0}
    for name in a["workloads"]:
        block_a, block_b = a["workloads"][name], b["workloads"].get(name)
        if block_b is None:
            tally["missing"] += 1
            rows.append({"workload": name, "metric": "*",
                         "verdict": "missing"})
            continue
        for metric in END_TO_END + RAW_END_TO_END:
            side_a = block_a["end_to_end"][metric.name]
            side_b = block_b["end_to_end"][metric.name]
            if not side_a["values"] or not side_b["values"]:
                verdict, worse_by = "regressed", float("nan")
            else:
                verdict, worse_by = row_verdict(
                    side_a["values"], side_b["values"], better=metric.better,
                    bound=metric.bound)
            if metric in RAW_END_TO_END:
                verdict = f"({verdict}: raw seconds, not gated)"
            else:
                tally[verdict] += 1
            rows.append({"workload": name, "metric": metric.name,
                         "unit": metric.unit, "a": side_a, "b": side_b,
                         "bound": metric.bound, "worse_by": worse_by,
                         "verdict": verdict})
        frac_a, frac_b = block_a["ops_failed_frac"], block_b["ops_failed_frac"]
        verdict = ("regressed" if frac_b > frac_a
                   else "improved" if frac_b < frac_a else "unchanged")
        tally[verdict] += 1
        rows.append({"workload": name, "metric": "ops_failed_frac",
                     "unit": "ratio", "bound": 0.0, "verdict": verdict,
                     "a": {"median": frac_a, "n": block_a["ops_total"]},
                     "b": {"median": frac_b, "n": block_b["ops_total"]}})
        if block_a.get("engine") != "net":
            rows += _behaviour_notes(name, block_a, block_b)
    return rows, tally


def _behaviour_notes(name: str, block_a: dict, block_b: dict) -> List[dict]:
    """What must repeat exactly on a fixed seed, where it did not."""
    changed = []
    if block_a.get("payload_digest") != block_b.get("payload_digest"):
        changed.append("payload_digest")
    layers_a, layers_b = block_a.get("per_layer"), block_b.get("per_layer")
    if layers_a and layers_b:
        changed += [layer.name for layer in PER_LAYER
                    if layer.exact and layers_a[layer.name] != layers_b[layer.name]]
    return [{"workload": name, "metric": metric,
             "verdict": "note: differs (simulated behaviour changed)"}
            for metric in changed]


def _fmt_side(side: dict) -> str:
    if side.get("median") is None:
        return f"{'-':>10}{'':>22}"
    if "min" not in side:
        return f"{side['median']:>10.4f}{'':>14} n={side['n']:<5}"
    return (f"{side['median']:>10.4f} [{side['min']:.4f},{side['max']:.4f}]"
            f" n={side['n']:<3}")


def render(rows: List[dict]) -> str:
    lines = [f"{'workload':<20}{'metric':<16}{'A median [min,max] n':<36}"
             f"{'B median [min,max] n':<36}{'worse by':>9}{'bound':>7}  verdict"]
    for row in rows:
        if "a" not in row:
            lines.append(f"{row['workload']:<20}{row['metric']:<16}"
                         f"{row['verdict']}")
            continue
        worse = row.get("worse_by")
        worse_txt = f"{100 * worse:>8.1f}%" if worse is not None else " " * 9
        lines.append(f"{row['workload']:<20}{row['metric']:<16}"
                     f"{_fmt_side(row['a']):<36}{_fmt_side(row['b']):<36}"
                     f"{worse_txt}{row['bound']:>7.2f}  {row['verdict']}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/perf/compare.py",
        description="Apply the benchmark's bounds to two results files.")
    parser.add_argument("a", metavar="A.json", help="parent / first set")
    parser.add_argument("b", metavar="B.json", help="change / second set")
    args = parser.parse_args(argv)
    try:
        with open(args.a, "r", encoding="utf-8") as fh:
            a = json.load(fh)
        with open(args.b, "r", encoding="utf-8") as fh:
            b = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reason = _incomparable(a, b)
    if reason:
        print(f"error: {reason}", file=sys.stderr)
        return 2
    for side, results in (("A", a), ("B", b)):
        calib = results.get("calibration", {})
        print(f"{side}: git {results['machine'].get('git_rev')} "
              f"calib.py_s {calib.get('calib.py_s', float('nan')):.3f} "
              f"calib.numpy_s {calib.get('calib.numpy_s', float('nan')):.3f}")
    rows, tally = compare(a, b)
    print(render(rows))
    print("=> " + ", ".join(f"{n} {k}" for k, n in tally.items() if n))
    bad = tally["regressed"] + tally["unresolved"] + tally["missing"]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
