"""Fixture: SCH001 twin drift in a column renderer.

The report's wire f-string lives in its ``log_strings`` classmethod,
which renders a batch of reports from field columns; ``to_log_string``
is its one-row call and holds no key itself.  ``log_strings`` has
dropped ``lag``, which ``to_params`` still writes.
"""
from dataclasses import dataclass
from typing import Dict, List, Sequence


@dataclass(frozen=True)
class LagReport:
    time: float
    node_id: int
    lag: float

    def to_params(self) -> Dict[str, str]:
        return {"t": f"{self.time:.3f}", "node": str(self.node_id),
                "lag": f"{self.lag:.3f}"}

    @classmethod
    def log_strings(cls, time: float, nodes: Sequence[int],
                    lags: Sequence[float]) -> List[str]:
        head = f"/log?t={time:.3f}"
        return [f"{head}&node={node}" for node, lag in zip(nodes, lags)]

    def to_log_string(self) -> str:
        return self.log_strings(self.time, (self.node_id,), (self.lag,))[0]

    @classmethod
    def from_params(cls, p: Dict[str, str]) -> "LagReport":
        return cls(time=float(p["t"]), node_id=int(p["node"]),
                   lag=float(p["lag"]))


class LagFold:
    def __init__(self):
        self.total = 0.0

    def update(self, report):
        self.total += report.lag

    def result(self):
        return self.total
