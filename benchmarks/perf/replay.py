"""Replay a captured log through the telemetry and analysis layers, one
public function at a time.

Inside the real run the telemetry path is interleaved with the engine
and all seven folds share one pass; here each stage runs alone over the
same captured lines, so its unit cost can be read off directly:
encode (``Report.to_log_string``), ingest (``LogServer.receive`` into a
``MemorySink``), spill (the same into a ``SpillSink``, rotate and fsync
included), read (``LogReader``), parse, and each fold over pre-parsed
reports.  Runs in the traced child, outside the timed interval.
"""

from __future__ import annotations

import itertools
import shutil
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Dict

from payload import make_folds

__all__ = ["REPLAY_CAP", "replay_log"]

#: Lines replayed (a prefix of the log): enough that per-line costs are
#: stable, few enough that thirteen passes stay within a couple of seconds.
REPLAY_CAP = 40_000


def replay_log(log, horizon_s: float, tmp_root: Path) -> Dict[str, float]:
    """Per-line / per-report microsecond costs, keyed by metric name."""
    from repro.analysis.streaming import fold_log
    from repro.telemetry.server import LogServer
    from repro.telemetry.sink import LogReader, MemorySink, SpillSink

    entries = list(itertools.islice(log.iter_entries(), REPLAY_CAP))
    n = len(entries)
    if n == 0:
        return {}
    out: Dict[str, float] = {}

    def per_item(name: str, t0: float) -> None:
        out[name] = 1e6 * (perf_counter() - t0) / n

    t0 = perf_counter()
    reports = [entry.parse() for entry in entries]
    per_item("telemetry.parse_us_per_line", t0)

    t0 = perf_counter()
    for report in reports:
        report.to_log_string()
    per_item("telemetry.encode_us_per_report", t0)

    receive = LogServer(MemorySink()).receive
    t0 = perf_counter()
    for entry in entries:
        receive(entry.arrival_time, entry.log_string)
    per_item("telemetry.ingest_us_per_line", t0)

    spill_dir = Path(tempfile.mkdtemp(prefix="replay-", dir=tmp_root))
    try:
        server = LogServer(SpillSink(spill_dir / "log"))
        receive = server.receive
        t0 = perf_counter()
        for entry in entries:
            receive(entry.arrival_time, entry.log_string)
        server.flush()
        per_item("telemetry.spill_us_per_line", t0)

        t0 = perf_counter()
        read = sum(1 for _entry in LogReader(spill_dir / "log").iter_entries())
        per_item("telemetry.read_us_per_line", t0)
        if read != n:
            raise RuntimeError(f"LogReader returned {read} of {n} lines")
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)

    for name, fold in make_folds(horizon_s).items():
        t0 = perf_counter()
        fold_log(reports, fold)
        per_item(f"analysis.fold_us_per_report.{name}", t0)
    return out
