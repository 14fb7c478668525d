"""Fixture: SCH001-clean -- producer and consumer agree on the wire."""
from dataclasses import dataclass


def _wire_form(*entries, **keys):  # the shape of the real decorator
    return lambda cls: cls


@_wire_form(("t", "time", ".3f"), ("tk", "ticks", ""))
@dataclass(frozen=True)
class TickReport:
    time: float
    ticks: int = 0


class TickFold:
    def __init__(self):
        self.total = 0

    def update(self, report):
        self.total += report.ticks

    def result(self):
        return self.total
