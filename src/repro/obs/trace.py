"""Chrome ``trace_event`` collection: open a run in Perfetto.

The collector buffers *complete* duration events (``ph: "X"``), instant
events and counter samples, then serialises the standard
``{"traceEvents": [...]}`` JSON object understood by ``chrome://tracing``
and https://ui.perfetto.dev.  Timestamps are wall-clock microseconds from
the collector's creation; ``args.sim_time`` carries the simulated clock so
both time bases are visible in the UI.

A hard cap bounds memory: once ``max_events`` events are buffered further
events are dropped (counted in :attr:`dropped`), mirroring how real
tracing backends shed load rather than OOM the process under an event
storm.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Dict, List, Optional

__all__ = ["TraceCollector"]


class TraceCollector:
    """Bounded in-memory buffer of Chrome trace events."""

    def __init__(self, *, max_events: int = 500_000,
                 process_name: str = "repro") -> None:
        if max_events < 1:
            raise ValueError("max_events must be >= 1")
        self._epoch = perf_counter()
        self._events: List[Dict[str, object]] = []
        self._max = int(max_events)
        self.dropped = 0
        self._metadata = [{
            "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
            "args": {"name": process_name},
        }]

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    @property
    def full(self) -> bool:
        """Whether the buffer reached its cap."""
        return len(self._events) >= self._max

    def now_us(self) -> float:
        """Microseconds of wall time since the collector was created."""
        return (perf_counter() - self._epoch) * 1e6

    def rel_us(self, perf_counter_s: float) -> float:
        """Convert a raw ``perf_counter()`` stamp to trace microseconds."""
        return (perf_counter_s - self._epoch) * 1e6

    # ------------------------------------------------------------------
    def complete(self, name: str, start_us: float, dur_us: float, *,
                 cat: str = "sim", tid: int = 0,
                 sim_time: Optional[float] = None) -> None:
        """Record a complete (begin+end) duration event."""
        if len(self._events) >= self._max:
            self.dropped += 1
            return
        ev: Dict[str, object] = {
            "name": name, "ph": "X", "cat": cat, "pid": 0, "tid": tid,
            "ts": start_us, "dur": max(0.0, dur_us),
        }
        if sim_time is not None:
            ev["args"] = {"sim_time": sim_time}
        self._events.append(ev)

    def counter(self, name: str, values: Dict[str, float], *,
                cat: str = "sim") -> None:
        """Record a counter sample (renders as a track of stacked areas)."""
        if len(self._events) >= self._max:
            self.dropped += 1
            return
        self._events.append({
            "name": name, "ph": "C", "cat": cat, "pid": 0,
            "ts": self.now_us(), "args": dict(values),
        })

    # ------------------------------------------------------------------
    def to_json_obj(self) -> Dict[str, object]:
        """The ``{"traceEvents": [...]}`` object Perfetto loads."""
        return {
            "traceEvents": self._metadata + self._events,
            "displayTimeUnit": "ms",
            "otherData": {"dropped_events": self.dropped},
        }

    def write(self, path) -> None:
        """Serialise the buffered trace to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_obj(), fh)
