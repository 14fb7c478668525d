"""Fixture: SCH001 occurrences silenced with per-line suppressions."""
from dataclasses import dataclass


def _wire_form(*entries, **keys):  # the shape of the real decorator
    return lambda cls: cls


@_wire_form(("t", "time", ".3f"), ("span", "span", ".3f"))
@dataclass(frozen=True)
class SpanReport:
    time: float
    span: float
    gap: float = 0.0


class SpanFold:
    def __init__(self):
        self.total = 0.0

    def update(self, report):
        self.total += report.span
        self.total += report.gap  # repro: noqa[SCH001] wire key planned
        self.total += report.gap_hint  # repro: noqa[SCH001] planned field

    def result(self):
        return self.total
