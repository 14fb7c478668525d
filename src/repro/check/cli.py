"""``python -m repro check`` -- run the static contract analysis.

Usage::

    python -m repro check src/                 # text findings
    python -m repro check src/ --output json   # machine-readable
    python -m repro check src/ --output sarif  # for PR-diff annotation
    python -m repro check src/repro/sim --select DET001,DET002
    python -m repro check --list-rules

Exit codes: 0 clean (warn-only findings count as clean), 1 findings,
2 usage error / unparseable file (README, "Command line").

The JSON document is stable (schema version 2)::

    {"version": 2, "files_checked": N,
     "counts": {"DET001": 2, ...},
     "findings": [{"rule", "message", "path", "line", "col",
                   "severity"}, ...],
     "errors": []}
"""

from __future__ import annotations

import json
import sys
from typing import List, Optional

from repro.check.engine import CheckError, all_rules, check_paths, select_rules

__all__ = ["cmd_check"]


def _split_rules(value: Optional[str]) -> Optional[List[str]]:
    if value is None:
        return None
    return [part.strip() for part in value.split(",") if part.strip()]


def cmd_check(args) -> int:
    """The ``check`` handler (options in :mod:`repro.experiments.cli`)."""
    if args.list_rules:
        for rule in all_rules():
            scope = "project" if rule.project else "file"
            sev = "" if rule.severity == "error" else f", {rule.severity}"
            print(f"{rule.id}  {rule.title}  ({scope}{sev})")
            print(f"        {rule.rationale}")
        return 0

    select, ignore = _split_rules(args.select), _split_rules(args.ignore)
    try:
        report = check_paths(args.paths, select=select, ignore=ignore)
    except CheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.output == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    elif args.output == "sarif":
        from repro.check.sarif import render_sarif
        rules = select_rules(select, ignore)
        print(json.dumps(render_sarif(report, rules), indent=2))
    else:
        for finding in report.findings:
            print(finding.render())
        for err in report.errors:
            print(f"error: {err}", file=sys.stderr)
        n = len(report.findings)
        warns = sum(1 for f in report.findings if f.severity != "error")
        tail = f" ({warns} warn-only)" if warns else ""
        summary = (f"{n} finding{'s' if n != 1 else ''}{tail} "
                   f"in {report.files_checked} files checked")
        print(summary if n else f"clean: {summary}")
    return report.exit_code
