"""Fixture: SCH001 positives -- telemetry reads nothing ever emits.

Self-contained producer/consumer pair: a report class whose wire table
leaves one field off the line, and a fold reading that field (which
reads back as its default on every line) and an attribute the report
never defines at all.
"""
from dataclasses import dataclass


def _wire_form(*entries, **keys):  # the shape of the real decorator
    return lambda cls: cls


@_wire_form(("t", "time", ".3f"), ("cr", "chunk_rate", ".3f"),
            ("lag", "lag", ".3f"))
@dataclass(frozen=True)
class ChunkReport:
    time: float
    chunk_rate: float
    lag: float
    drops: int = 0


class ChunkRateFold:
    def __init__(self):
        self.acc = 0.0
        self.stalls = 0

    def update(self, report):
        self.acc += report.chunk_rate
        self.acc += report.drops
        self.stalls += report.stall_count

    def result(self):
        return self.acc, self.stalls
