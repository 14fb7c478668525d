"""Telemetry schema-conformance rule: SCH001.

The measurement pipeline's layers communicate through flat
``name=value`` log strings (Section V.A): reports serialize in
``telemetry/reports.py``, the log server ingests, and every figure is
reconstructed by the folds in ``analysis/streaming.py``.  A field-name
drift between producer and consumer does not crash -- the fold quietly
reads nothing and the reproduced figure is silently wrong.

Each report class declares its wire contract once, in its
``_wire_form`` table, and every encoder and decoder is compiled from
that table, so producer and parser cannot disagree.  What is left to
check statically is the consumer side, from the harvested fact tables:

* **SCH001** (error): a fold reads a report attribute no report class
  defines, or a report field that no wire table carries -- a field that
  never reaches the log and so reads back as its default on every line.

Each check is guarded on its fact table being non-empty, so checking a
lone consumer file (no report classes in view) never mass-fires.
"""

from __future__ import annotations

from typing import Iterator

from repro.check.engine import Finding, Rule, register
from repro.check.project import ProjectContext

__all__ = ["SchemaReadWithoutWriter"]


@register
class SchemaReadWithoutWriter(Rule):
    """SCH001: telemetry field read that no report emits."""

    id = "SCH001"
    title = "telemetry field read but never emitted"
    rationale = ("a fold reading a field no report puts on the wire "
                 "silently reconstructs figures from nothing -- schema "
                 "drift corrupts results without crashing")
    project = True

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        if not project.report_attrs:
            return  # no report class in view: nothing to compare against
        for facts in project.files:
            for cls, attr, line, col in facts.fold_reads:
                if attr not in project.report_attrs:
                    yield self.project_finding(
                        facts.path, line, col,
                        f"fold {cls} reads report.{attr}, which no "
                        "report class defines")
                elif (project.field_keys and attr in project.report_fields
                        and attr not in project.field_keys):
                    yield self.project_finding(
                        facts.path, line, col,
                        f"fold {cls} reads report.{attr}, a field no "
                        "report's wire table carries")
