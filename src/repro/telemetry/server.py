"""The dedicated log server.

Stores every received log string (with its arrival timestamp) into a log
file -- one line per HTTP request -- and offers parsed views for the
analysis package.  Storage is pluggable (:mod:`repro.telemetry.sink`):
both sinks keep the log as gzip chunks of its lines, in memory by
default or spilled to disk when a spill root is configured
(``REPRO_LOG_SPILL`` / ``--log-spill``), so production-volume traces do
not grow the resident set by an object per entry.  A real deployment
wrote these lines to disk; :meth:`LogServer.dump` / :meth:`LogServer.load`
replicate that so the analysis toolkit can also be exercised on files.
"""

from __future__ import annotations

import heapq
import io
import itertools
from operator import attrgetter
from typing import Iterable, Iterator, List, Optional, Sequence, TextIO

from repro.telemetry.reports import Report, decode_report
from repro.telemetry.sink import LogEntry, LogSink, MemorySink, default_sink

__all__ = ["LogEntry", "LogServer"]


class LogServer:
    """Collects log strings from peers.

    ``receive`` is the HTTP endpoint: it accepts the raw string and the
    (simulated) arrival time.  Malformed requests -- anything that does
    not parse to a report -- are counted and dropped, not raised: a log
    server must survive garbage, and so must every later analysis pass
    over what it stored.

    ``sink`` selects the storage backend; omitted, it resolves through
    :func:`repro.telemetry.sink.default_sink` (in-memory unless a spill
    root is configured for the process).
    """

    def __init__(self, sink: Optional[LogSink] = None) -> None:
        self.sink: LogSink = sink if sink is not None else default_sink()
        self.malformed_count = 0

    # --- ingestion -------------------------------------------------------
    def receive(self, arrival_time: float, log_string: str) -> bool:
        """Store one log string; returns False (and counts) if malformed."""
        try:
            decode_report(log_string)
        except ValueError:
            self.malformed_count += 1
            return False
        self.sink.write(arrival_time, log_string)
        return True

    def receive_report(self, arrival_time: float, report: Report) -> None:
        """Convenience: encode and store a report object."""
        self.sink.write(arrival_time, report.to_log_string())

    def receive_lines(self, arrival_time: float,
                      log_strings: Sequence[str]) -> None:
        """Store encoded reports that arrive together, in order; trusted
        like :meth:`receive_report`'s.  One ``write_many`` on a sink that
        has it, a ``write`` per line otherwise."""
        write_many = getattr(self.sink, "write_many", None)
        if write_many is not None:
            write_many(arrival_time, log_strings)
            return
        write = self.sink.write
        for log_string in log_strings:
            write(arrival_time, log_string)

    def flush(self) -> None:
        """Rotate the sink's live tail into a chunk (a spill sink's to
        disk); the server keeps accepting reports."""
        self.sink.flush()

    def close(self) -> None:
        """Flush the sink's tail into a chunk; further reports are errors."""
        self.sink.close()

    # --- access ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.sink)

    def entries(self) -> List[LogEntry]:
        """Materialised snapshot of stored entries (compat accessor --
        prefer :meth:`iter_entries` at production volume)."""
        return list(self.sink.iter_entries())

    def iter_entries(self) -> Iterator[LogEntry]:
        """Stream stored entries in arrival order without materialising."""
        return iter(self.sink.iter_entries())

    def reports(self) -> Iterator[Report]:
        """Parse every stored line, in arrival order: through the sink's
        own line-to-report reader when it has one (both shipped sinks; no
        ``LogEntry`` per line), else entry by entry."""
        sink_reports = getattr(self.sink, "reports", None)
        if sink_reports is not None:
            return sink_reports()
        return map(LogEntry.parse, self.sink.iter_entries())

    def in_arrival_order(self) -> bool:
        """Whether stored arrival times never decrease, compared as the
        log stores them (to the millisecond): one streaming pass."""
        times = map(_BY_ARRIVAL, self.sink.iter_entries())
        return all(a <= b for a, b in itertools.pairwise(times))

    def reports_of(self, report_type: type) -> Iterator[Report]:
        """Parsed reports filtered to one report class."""
        for report in self.reports():
            if isinstance(report, report_type):
                yield report

    # --- persistence ----------------------------------------------------------
    def dump(self, fp: TextIO) -> int:
        """Write the log file; one entry per line.  Returns lines written."""
        n = 0
        for entry in self.sink.iter_entries():
            fp.write(entry.to_line() + "\n")
            n += 1
        return n

    def dumps(self) -> str:
        """The log file contents as a string."""
        buf = io.StringIO()
        self.dump(buf)
        return buf.getvalue()

    @classmethod
    def load(cls, fp: TextIO, *, sink: Optional[LogSink] = None) -> "LogServer":
        """Rebuild a server from a dumped log file.

        Lines pass the same validation as :meth:`receive`: truncated or
        garbage lines are counted in ``malformed_count`` and skipped, not
        raised -- a recovered log file must survive partial writes.
        """
        server = cls(sink=sink)
        for line in fp:
            if line.isspace():
                continue
            try:
                entry = LogEntry.from_line(line)
                entry.parse()
            except ValueError:
                server.malformed_count += 1
                continue
            server.sink.append(entry)
        return server

    @classmethod
    def loads(cls, text: str, *, sink: Optional[LogSink] = None) -> "LogServer":
        """Rebuild a server from dumped log-file text."""
        return cls.load(io.StringIO(text), sink=sink)

    # --- merging ---------------------------------------------------------
    @classmethod
    def merged(cls, servers: Iterable["LogServer"], *,
               sink: Optional[LogSink] = None) -> "LogServer":
        """Streaming k-way merge of logs by arrival time.

        Each input is consumed through its streaming iterator and the
        output goes straight to the target sink, so merging spilled logs
        is O(1) memory.  Arrival times compare as the log stores them, to
        the millisecond, so entries within one millisecond tie; ties keep
        input order (earlier server first), matching what a stable sort
        of the concatenated lists produced.

        Logs received through an engine are arrival-ordered by
        construction; in-memory logs populated out of order (manual
        ``receive_report`` calls, ``net``'s interleaved frames) are
        detected and stable-sorted first, while a spilled log is assumed
        ordered (checking would cost a full extra pass over disk).
        """
        servers = list(servers)
        merged = cls(sink=sink)
        append = merged.sink.append
        for entry in heapq.merge(
            *(_ordered_entries(s) for s in servers), key=_BY_ARRIVAL
        ):
            append(entry)
        merged.malformed_count = sum(s.malformed_count for s in servers)
        return merged

    def merged_with(self, other: "LogServer", *,
                    sink: Optional[LogSink] = None) -> "LogServer":
        """Union of two logs, re-sorted by arrival time (multi-server
        deployments merged their files the same way)."""
        return LogServer.merged((self, other), sink=sink)


_BY_ARRIVAL = attrgetter("arrival_time")


def _ordered_entries(server: LogServer) -> Iterator[LogEntry]:
    """Arrival-ordered entry stream for merging.

    An in-memory log is checked in one streaming pass and stable-sorted
    only when actually out of order, which reproduces the pre-streaming
    ``sorted(a + b)`` semantics exactly; other sinks stream as stored.
    """
    sink = server.sink
    if isinstance(sink, MemorySink) and not server.in_arrival_order():
        return iter(sorted(sink.iter_entries(), key=_BY_ARRIVAL))
    return iter(sink.iter_entries())
