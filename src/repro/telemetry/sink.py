"""Log storage sinks: where a :class:`~repro.telemetry.server.LogServer`
keeps its lines.

The deployed system's log server was a disk-backed HTTP endpoint
ingesting millions of log strings per broadcast (Section V.A); our
original ``LogServer`` buffered every :class:`LogEntry` in a Python list,
which at ROADMAP scale is the first hard memory wall.  This module
factors the storage decision out behind a tiny protocol:

* :class:`MemorySink` -- the original in-RAM list (default; zero change
  in behaviour or byte format).
* :class:`SpillSink` -- a chunked, optionally gzip-compressed on-disk
  store with rotation by line count and an fsync'd JSON manifest per
  rotation, so the resident set stays bounded by one chunk regardless of
  trace length and a crash loses at most the unrotated tail.
* :class:`LogReader` -- streams the entries of a spill directory back
  without materialising them (the input side of out-of-core analysis).

Chunks store exactly the ``LogEntry.to_line()`` text, one line per entry,
so a spilled log dumps byte-identically to an in-memory one -- and a
:class:`SpillSink` holds its unrotated tail as those same rendered lines,
so what it reads back does not depend on whether a line has been rotated
out yet.  Gzip members are written with ``mtime=0`` so identical logs
produce identical chunk bytes.

Spilling is opt-in per process: ``REPRO_LOG_SPILL=<dir>`` (or
:func:`set_spill_root`) makes every subsequently created ``LogServer``
spill into a unique subdirectory of ``<dir>``.  The spill location never
changes simulation outputs, so it is deliberately *not* part of any
content-addressed run key.
"""

from __future__ import annotations

import gzip
import itertools
import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Protocol, Tuple

from repro.telemetry.reports import Report, decode_report

__all__ = [
    "LogEntry",
    "LogSink",
    "MemorySink",
    "SpillSink",
    "LogReader",
    "default_sink",
    "set_spill_root",
    "spill_root",
    "SPILL_ENV_VAR",
]

#: Environment variable naming the spill root directory (unset = in-memory).
SPILL_ENV_VAR = "REPRO_LOG_SPILL"

#: Default rotation threshold: ~50k lines is a few MB of text, so the
#: in-memory tail of a spilled log stays small while chunks stay large
#: enough that per-chunk overhead (open/fsync/manifest rewrite) is noise.
DEFAULT_LINES_PER_CHUNK = 50_000

#: Chunks are deflated at zlib's default level, not ``GzipFile``'s
#: implicit 9: on a real 243k-line (23 MB) ODE log level 9 cost 0.60 s
#: of deflate against 0.26 s, for chunks 1.5% smaller.
_CHUNK_COMPRESSLEVEL = 6

_MANIFEST_NAME = "manifest.json"


def _split_line(line: str) -> Tuple[float, str]:
    """One log-file line as ``(arrival_time, log_string)``."""
    stamp, _, log_string = line.strip().partition(" ")
    return float(stamp), log_string


@dataclass(frozen=True, slots=True)
class LogEntry:
    """One line of the log file: arrival time + raw log string."""

    arrival_time: float
    log_string: str

    def parse(self) -> Report:
        """Decode and parse the stored log string into a report."""
        return decode_report(self.log_string)

    def to_line(self) -> str:
        """Render as one log-file line."""
        return f"{self.arrival_time:.3f} {self.log_string}"

    @classmethod
    def from_line(cls, line: str) -> "LogEntry":
        """Parse one log-file line."""
        return cls(*_split_line(line))


class LogSink(Protocol):
    """Storage backend for a log server's entries.

    Append-only and order-preserving: ``iter_entries`` must yield the
    stored lines in append order, so analysis over a spilled log is
    bit-identical to analysis over an in-memory one.  A sink that keeps
    rendered lines (:class:`SpillSink`) yields each entry as its line
    reads: the log string exactly, the arrival time as the ``.3f`` value
    the log file carries -- before a rotation and after it alike.
    """

    def write(self, arrival_time: float, log_string: str) -> None:
        """Store one log string with its arrival time."""
        ...

    def append(self, entry: LogEntry) -> None:
        """Store one entry (``write`` of its two fields)."""
        ...

    def __len__(self) -> int:
        """Number of stored entries."""
        ...

    def iter_entries(self) -> Iterator["LogEntry"]:
        """Stream the stored entries in append order."""
        ...

    def flush(self) -> None:
        """Persist any buffered state; appends may continue."""
        ...

    def close(self) -> None:
        """Flush any buffered state; further appends are errors."""
        ...


class MemorySink:
    """The original storage: a plain in-RAM list of entries."""

    def __init__(self) -> None:
        self._entries: List[LogEntry] = []

    def write(self, arrival_time: float, log_string: str) -> None:
        """Store one log string with its arrival time."""
        self._entries.append(LogEntry(arrival_time, log_string))

    def append(self, entry: LogEntry) -> None:
        """Store one entry."""
        self._entries.append(entry)

    def __len__(self) -> int:
        return len(self._entries)

    def iter_entries(self) -> Iterator[LogEntry]:
        """Stream the stored entries in append order."""
        return iter(self._entries)

    def flush(self) -> None:
        """Nothing buffered: entries live in the list already."""

    def close(self) -> None:
        """No buffered state; a closed memory sink just refuses appends."""
        self.write = self.append = self._refuse  # type: ignore[method-assign]

    def _refuse(self, *_line) -> None:
        raise ValueError("sink is closed")


def _fsync_dir(path: Path) -> None:
    """fsync a directory so a rename/create inside it is durable."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class SpillSink:
    """Chunked on-disk log store with bounded resident memory.

    Lines accumulate, already rendered, in an in-memory tail; every
    ``lines_per_chunk`` appends the tail is rotated out as one (gzip)
    chunk file and recorded in the directory's ``manifest.json``.  Both
    the chunk file and the manifest are fsync'd per rotation, so the
    durability unit is the chunk: a crash loses at most the unrotated
    tail.

    ``iter_entries`` streams rotated chunks from disk and then the live
    tail, preserving exact append order.
    """

    def __init__(self, directory, *, lines_per_chunk: int = DEFAULT_LINES_PER_CHUNK,
                 compress: bool = True) -> None:
        if lines_per_chunk < 1:
            raise ValueError("lines_per_chunk must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        if (self.directory / _MANIFEST_NAME).exists():
            raise ValueError(
                f"{self.directory} already holds a spilled log; "
                f"use LogReader to read it or pick a fresh directory"
            )
        self.lines_per_chunk = int(lines_per_chunk)
        self.compress = bool(compress)
        self._tail: List[str] = []  # "<arrival:.3f> <log_string>\n" each
        self._chunks: List[dict] = []
        self._count = 0
        self._closed = False

    # --- ingestion ---------------------------------------------------------
    def write(self, arrival_time: float, log_string: str) -> None:
        """Store one line, rotating a chunk out when the tail fills."""
        if self._closed:
            raise ValueError("sink is closed")
        # == LogEntry(arrival_time, log_string).to_line() + "\n"
        self._tail.append(f"{arrival_time:.3f} {log_string}\n")
        self._count += 1
        if len(self._tail) >= self.lines_per_chunk:
            self._rotate()

    def append(self, entry: LogEntry) -> None:
        """Store one entry (``write`` of its two fields)."""
        self.write(entry.arrival_time, entry.log_string)

    def _rotate(self) -> None:
        """Write the tail as one chunk file and record it in the manifest."""
        if not self._tail:
            return
        suffix = ".log.gz" if self.compress else ".log"
        name = f"chunk-{len(self._chunks):06d}{suffix}"
        path = self.directory / name
        raw = "".join(self._tail).encode("utf-8")
        if self.compress:
            # mtime=0 keeps chunk bytes a pure function of their contents
            with open(path, "wb") as fh:
                with gzip.GzipFile(fileobj=fh, mode="wb", mtime=0,
                                   compresslevel=_CHUNK_COMPRESSLEVEL) as gz:
                    gz.write(raw)
                fh.flush()
                os.fsync(fh.fileno())
        else:
            with open(path, "wb") as fh:
                fh.write(raw)
                fh.flush()
                os.fsync(fh.fileno())
        self._chunks.append({"file": name, "lines": len(self._tail)})
        self._tail = []
        self._write_manifest()

    def _write_manifest(self) -> None:
        """Atomically replace the manifest (write-fsync-rename-fsync)."""
        payload = {
            "format": "repro-log-spill-v1",
            "compress": self.compress,
            "lines_per_chunk": self.lines_per_chunk,
            "total_lines": sum(c["lines"] for c in self._chunks),
            "chunks": self._chunks,
        }
        tmp = self.directory / (_MANIFEST_NAME + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.directory / _MANIFEST_NAME)
        _fsync_dir(self.directory)

    def flush(self) -> None:
        """Rotate the current tail out so the directory is complete so
        far; appends may continue (the next rotation opens a new chunk)."""
        self._rotate()

    def close(self) -> None:
        """Rotate the remaining tail out so the directory is complete."""
        if self._closed:
            return
        self._rotate()
        self._closed = True

    # --- access ------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    def iter_entries(self) -> Iterator[LogEntry]:
        """Stream rotated chunks from disk, then the in-memory tail."""
        # snapshots: appends during iteration must not shift the view
        yield from itertools.starmap(
            LogEntry, _read_chunks(self.directory, list(self._chunks)))
        yield from map(LogEntry.from_line, list(self._tail))


def _read_chunk(path: Path, lines: int) -> Iterator[Tuple[float, str]]:
    """Stream one chunk file (gzip or plain) line by line, as
    ``(arrival_time, log_string)`` pairs; blank lines are skipped.

    A manifest-listed chunk that is missing, truncated or corrupt -- or
    holds another number of lines than the manifest recorded for it, or
    a line without a numeric arrival stamp -- raises ``ValueError``
    naming the file: analysing the part of a log that happens to be
    readable would silently change every figure.
    """
    opener = gzip.open if path.suffix == ".gz" else open
    seen = 0
    try:
        with opener(path, "rt", encoding="utf-8") as fh:  # type: ignore[operator]
            for line in fh:
                if not line.isspace():
                    seen += 1
                    yield _split_line(line)
    except (OSError, EOFError, zlib.error, ValueError) as exc:
        raise ValueError(f"spill chunk {path} is unreadable: {exc!r}") from exc
    if seen != lines:
        raise ValueError(
            f"spill chunk {path} holds {seen} lines, manifest says {lines}"
        )


def _read_chunks(directory: Path, chunks) -> Iterator[Tuple[float, str]]:
    """The lines of manifest-listed ``chunks``, one file after another."""
    for chunk in chunks:
        yield from _read_chunk(directory / chunk["file"], chunk["lines"])


class LogReader:
    """Read-only streaming view of a completed spill directory.

    Presents the same ``iter_entries`` / ``reports`` face as a live sink
    so analysis folds can consume either without materialising the log.
    """

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        manifest = self.directory / _MANIFEST_NAME
        try:
            with open(manifest, "r", encoding="utf-8") as fh:
                self.manifest = json.load(fh)
        except OSError as exc:
            raise ValueError(f"no spilled log at {self.directory}: {exc}") from exc
        if self.manifest.get("format") != "repro-log-spill-v1":
            raise ValueError(
                f"{manifest} is not a repro log-spill manifest"
            )

    def __len__(self) -> int:
        return int(self.manifest.get("total_lines", 0))

    def _lines(self) -> Iterator[Tuple[float, str]]:
        return _read_chunks(self.directory, self.manifest.get("chunks", ()))

    def iter_entries(self) -> Iterator[LogEntry]:
        """Stream every entry of every manifest-listed chunk, in order."""
        return itertools.starmap(LogEntry, self._lines())

    def reports(self) -> Iterator[Report]:
        """Parsed reports, in arrival (append) order: each stored line
        straight to its report (what ``entry.parse()`` over
        :meth:`iter_entries` gives, without an entry per line)."""
        for _arrival_time, log_string in self._lines():
            yield decode_report(log_string)


# ---------------------------------------------------------------------------
# default-sink resolution
# ---------------------------------------------------------------------------
_SPILL_ROOT: Optional[Path] = None
_SINK_SEQ = itertools.count()


def set_spill_root(path) -> None:
    """Process-wide override of the spill root (None = back to in-memory
    unless :data:`SPILL_ENV_VAR` is set)."""
    global _SPILL_ROOT
    _SPILL_ROOT = Path(path) if path is not None else None


def spill_root() -> Optional[Path]:
    """The active spill root: :func:`set_spill_root` wins over the
    environment; None means log servers default to memory."""
    if _SPILL_ROOT is not None:
        return _SPILL_ROOT
    env = os.environ.get(SPILL_ENV_VAR)
    return Path(env) if env else None


def default_sink() -> LogSink:
    """The sink a ``LogServer()`` gets when none is passed.

    In-memory unless a spill root is configured, in which case each call
    returns a :class:`SpillSink` on a fresh subdirectory (pid + counter),
    so concurrent servers -- multi-channel deployments, campaign workers
    -- never interleave chunks.
    """
    root = spill_root()
    if root is None:
        return MemorySink()
    sub = root / f"log-{os.getpid()}-{next(_SINK_SEQ):04d}"
    return SpillSink(sub)
