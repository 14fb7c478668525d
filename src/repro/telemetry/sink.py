"""Log storage sinks: where a :class:`~repro.telemetry.server.LogServer`
keeps its lines.

The deployed system's log server was a disk-backed HTTP endpoint
ingesting millions of log strings per broadcast (Section V.A), and wrote
every line to a file it analysed afterwards.  Both sinks here store the
log the way that file does -- as rendered ``"<arrival:.3f> <log_string>"``
lines, a live tail of them rotated every ``lines_per_chunk`` lines into
one gzip member -- and differ only in where a member goes:

* :class:`MemorySink` -- keeps the members as ``bytes`` in a list
  (default).
* :class:`SpillSink` -- writes each member to a chunk file, fsyncs it and
  records it in a JSON manifest, so the resident set stays bounded by one
  chunk regardless of trace length and a crash loses at most the
  unrotated tail.
* :class:`LogReader` -- streams the entries of a spill directory back
  without materialising them (the input side of out-of-core analysis).

All three are a :class:`ChunkedLog`: one line-range reader over a chunk
list plus an optional live tail gives each ``iter_entries()`` and
``reports(start, stop)``.  Chunks store exactly the ``LogEntry.to_line()``
text, so a log reads and dumps the same whichever sink holds it, and
whether or not a line has been rotated out yet.  Gzip members are written
with ``mtime=0`` so identical logs produce identical chunk bytes.

Spilling is opt-in per process: ``REPRO_LOG_SPILL=<dir>`` (or
:func:`set_spill_root`) makes every subsequently created ``LogServer``
spill into a unique subdirectory of ``<dir>``.  The spill location never
changes simulation outputs, so it is deliberately *not* part of any
content-addressed run key.
"""

from __future__ import annotations

import gzip
import io
import itertools
import json
import os
import re
import zlib
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from pathlib import Path
from typing import (IO, Iterator, List, Optional, Protocol, Sequence, Tuple,
                    Union)

from repro.telemetry.reports import Report, decode_report

__all__ = [
    "LogEntry",
    "LogSink",
    "ChunkedLog",
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
#: live tail of a log stays small while chunks stay large enough that
#: per-chunk overhead (a gzip member; for a spill, open/fsync/manifest
#: rewrite) is noise.
DEFAULT_LINES_PER_CHUNK = 50_000

#: Chunks are deflated at level 1, a constant of the writer: on the
#: benchmark's 132k-line fluid log level 6 cost 1.59 us per line and
#: level 1 0.49 us, for chunks 23% larger (1.45 -> 1.78 MiB).
_CHUNK_COMPRESSLEVEL = 1

#: Lines handed to the compressor per write: a rotation never joins the
#: whole tail into one chunk-sized string and one bytes object.
_SLICE_LINES = 1024

#: Characters of chunk text read per block: ~85 lines of ``ode_spill``'s
#: log, one ``readlines`` call instead of one ``__next__`` per line.  4 Ki
#: to 64 Ki characters read equally fast, so the block is kept small.
_READ_HINT = 1 << 13

_MANIFEST_NAME = "manifest.json"

#: Where a chunk's text lives: a spilled chunk file, or an in-memory
#: gzip member.
Chunk = Union[Path, bytes]


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
    stored lines in append order, so analysis over one sink is
    bit-identical to analysis over another.  The shipped sinks keep
    rendered lines, so each entry reads back as its line does: the log
    string exactly, the arrival time as the ``.3f`` value the log file
    carries.  They are also a :class:`ChunkedLog`, whose
    ``reports(start, stop)`` parses lines straight to reports and lets
    ``fold_log`` split the log; ``LogServer.reports`` parses
    ``iter_entries`` for a sink without one.
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


def _open_chunk(chunk: Chunk) -> IO[str]:
    """A chunk's text: a spilled file (gzip or plain) or a gzip member."""
    if isinstance(chunk, bytes):
        return gzip.open(io.BytesIO(chunk), "rt", encoding="utf-8")
    if chunk.suffix == ".gz":
        return gzip.open(chunk, "rt", encoding="utf-8")
    return open(chunk, "r", encoding="utf-8")


def _read_chunk(chunk: Chunk, lines: int
                ) -> Iterator[List[Tuple[float, str]]]:
    """Stream one chunk as blocks of ``(arrival_time, log_string)`` pairs,
    read ``_READ_HINT`` characters at a time; blank lines are skipped.

    A chunk that is missing, truncated or corrupt -- or holds another
    number of lines than was recorded for it, or a line without a numeric
    arrival stamp -- raises ``ValueError`` naming the file: analysing the
    part of a log that happens to be readable would silently change every
    figure.  The lines before one without a stamp are handed on first, one
    block each, as a line-at-a-time read would hand them on.
    """
    name = ("an in-memory chunk" if isinstance(chunk, bytes)
            else f"spill chunk {chunk}")
    seen = 0
    try:
        with _open_chunk(chunk) as fh:
            for block in iter(partial(fh.readlines, _READ_HINT), []):
                try:
                    pairs = [_split_line(line) for line in block
                             if not line.isspace()]
                except ValueError:
                    # a line without a numeric stamp: the lines before it
                    # one by one, then its error (it fails again here)
                    for line in block:
                        if not line.isspace():
                            yield [_split_line(line)]
                    raise
                seen += len(pairs)
                yield pairs
    except (OSError, EOFError, zlib.error, ValueError) as exc:
        raise ValueError(f"{name} is unreadable: {exc!r}") from exc
    if seen != lines:
        raise ValueError(f"{name} holds {seen} lines, manifest says {lines}")


class ChunkedLog:
    """A log as a list of chunks plus a live tail of rendered lines.

    ``_chunks`` holds ``(chunk, index of its first line, lines)`` per
    chunk; ``_tail`` the ``"<arrival:.3f> <log_string>\\n"`` lines not yet
    rotated into one.  Every way of reading the log goes through
    :meth:`_lines`, so whole-log and range reads, in-memory and spilled
    chunks, share one reader and its checks.  ``location`` names the log
    in error messages.
    """

    def __init__(self, location: str) -> None:
        self.location = location
        self._chunks: List[Tuple[Chunk, int, int]] = []
        self._tail: List[str] = []
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def _lines(self, start: int, stop: int) -> Iterator[Tuple[float, str]]:
        """Lines ``[start, stop)`` of the log, opening only the chunks that
        hold them.  In the first, the lines before ``start`` are read and
        split, not yielded.  A chunk's line count is checked at its end, so
        it is read to the end by the range holding its last line -- a chunk
        without lines by the range holding the line before it, or starting
        at 0 -- and left at ``stop`` by any other.

        The log is the one at the first ``next()``: lines appended (or
        rotated) later do not shift the view -- a rotation replaces the
        tail list instead of emptying it."""
        chunks, tail, count = list(self._chunks), self._tail, self._count
        tail_first = count - len(tail)
        if not 0 <= start <= stop <= count:
            raise ValueError(f"line range [{start}, {stop}) is not within "
                             f"the {count} lines of {self.location}")
        for chunk, first, lines in chunks:
            end = first + lines
            if start < end <= stop or end == start == 0:
                take = None
            elif first < stop < end and start < stop:
                take = stop - first
            else:
                continue
            yield from itertools.islice(
                itertools.chain.from_iterable(_read_chunk(chunk, lines)),
                max(start - first, 0), take)
        yield from map(_split_line, itertools.islice(
            tail, max(start - tail_first, 0), max(stop - tail_first, 0)))

    def iter_entries(self) -> Iterator[LogEntry]:
        """Stream every entry, in append order."""
        return itertools.starmap(LogEntry, self._lines(0, self._count))

    def reports(self, start: int = 0, stop: Optional[int] = None
                ) -> Iterator[Report]:
        """Parsed reports of lines ``[start, stop)`` (default: every line),
        in arrival (append) order: each stored line straight to its report
        (what ``entry.parse()`` over :meth:`iter_entries` gives, without an
        entry per line).  Consecutive ranges read exactly what one pass
        over their union reads, checks included."""
        lines = self._lines(start, self._count if stop is None else stop)
        return map(decode_report, map(_LOG_STRING, lines))


_LOG_STRING = itemgetter(1)


def _write_lines(lines: List[str], out) -> None:
    """Write rendered lines to ``out``, ``_SLICE_LINES`` at a time."""
    for i in range(0, len(lines), _SLICE_LINES):
        out.write("".join(lines[i:i + _SLICE_LINES]).encode("utf-8"))


def _deflate(lines: List[str], fileobj) -> None:
    """Write rendered lines to ``fileobj`` as one gzip member, through one
    compressor that lives only as long as the call."""
    # mtime=0 keeps chunk bytes a pure function of their contents
    with gzip.GzipFile(fileobj=fileobj, mode="wb", mtime=0,
                       compresslevel=_CHUNK_COMPRESSLEVEL) as gz:
        _write_lines(lines, gz)


class _ChunkSink(ChunkedLog):
    """The write side both sinks share.

    Lines accumulate, already rendered, in the tail; every
    ``lines_per_chunk`` appends -- and at ``flush()``/``close()`` -- the
    tail is rotated out as one chunk, which :meth:`_store` puts where the
    sink keeps its chunks.
    """

    def __init__(self, location: str, lines_per_chunk: int) -> None:
        if lines_per_chunk < 1:
            raise ValueError("lines_per_chunk must be >= 1")
        super().__init__(location)
        self.lines_per_chunk = int(lines_per_chunk)
        self._closed = False

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def write(self, arrival_time: float, log_string: str) -> None:
        """Store one line, rotating a chunk out when the tail fills."""
        if self._closed:
            raise ValueError("sink is closed")
        tail = self._tail
        # == LogEntry(arrival_time, log_string).to_line() + "\n"
        tail.append(f"{arrival_time:.3f} {log_string}\n")
        self._count += 1
        if len(tail) >= self.lines_per_chunk:
            self._rotate()

    def write_many(self, arrival_time: float,
                   log_strings: Sequence[str]) -> None:
        """Store log strings that share one arrival time, in order: what a
        ``write`` per string stores, chunk boundaries included, with the
        arrival stamp formatted once.  On a closed sink, a batch with a
        line in it raises as its first ``write`` would, storing nothing."""
        stamp = f"{arrival_time:.3f} "
        lines = [f"{stamp}{s}\n" for s in log_strings]
        if lines and self._closed:
            raise ValueError("sink is closed")
        done = 0
        while True:
            part = lines[done:done + self.lines_per_chunk - len(self._tail)]
            self._tail.extend(part)
            self._count += len(part)
            done += len(part)
            if len(self._tail) < self.lines_per_chunk:
                return
            self._rotate()

    def append(self, entry: LogEntry) -> None:
        """Store one entry (``write`` of its two fields)."""
        self.write(entry.arrival_time, entry.log_string)

    def _store(self, lines: List[str]) -> Chunk:
        """Keep ``lines`` as the next chunk; returns where it went."""
        raise NotImplementedError

    def _rotate(self) -> None:
        """Store the tail as one chunk and start a new tail."""
        tail = self._tail
        if not tail:
            return
        chunk = self._store(tail)
        self._chunks.append((chunk, self._count - len(tail), len(tail)))
        self._tail = []

    def flush(self) -> None:
        """Rotate the current tail out; appends may continue (the next
        rotation starts a new chunk)."""
        self._rotate()

    def close(self) -> None:
        """Rotate the remaining tail out; further appends are errors."""
        if self._closed:
            return
        self._rotate()
        self._closed = True


class MemorySink(_ChunkSink):
    """The in-RAM store: rotated chunks stay in memory as gzip members.

    A line costs its share of a deflated chunk -- about a sixth of its
    text -- instead of a ``LogEntry`` per line, and a forked fold worker
    reads the chunks without touching one object per line.
    """

    def __init__(self, *, lines_per_chunk: int = DEFAULT_LINES_PER_CHUNK
                 ) -> None:
        super().__init__("an in-memory log", lines_per_chunk)

    def _store(self, lines: List[str]) -> bytes:
        buf = io.BytesIO()
        _deflate(lines, buf)
        return buf.getvalue()


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


class SpillSink(_ChunkSink):
    """Chunked on-disk log store with bounded resident memory.

    Each rotated chunk becomes one (gzip) chunk file, recorded in the
    directory's ``manifest.json``.  Both the chunk file and the manifest
    are fsync'd per rotation, in that order, so the durability unit is
    the chunk: a crash loses at most the unrotated tail.
    """

    def __init__(self, directory, *, lines_per_chunk: int = DEFAULT_LINES_PER_CHUNK,
                 compress: bool = True) -> None:
        super().__init__(str(Path(directory)), lines_per_chunk)
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        if (self.directory / _MANIFEST_NAME).exists():
            raise ValueError(
                f"{self.directory} already holds a spilled log; "
                f"use LogReader to read it or pick a fresh directory"
            )
        self.compress = bool(compress)

    def _store(self, lines: List[str]) -> Path:
        suffix = ".log.gz" if self.compress else ".log"
        path = self.directory / f"chunk-{len(self._chunks):06d}{suffix}"
        with open(path, "wb") as fh:
            if self.compress:
                _deflate(lines, fh)
            else:
                _write_lines(lines, fh)
            fh.flush()
            os.fsync(fh.fileno())
        return path

    def _rotate(self) -> None:
        """Write the tail as one chunk file and record it in the manifest."""
        if self._tail:
            super()._rotate()
            self._write_manifest()

    def _write_manifest(self) -> None:
        """Atomically replace the manifest (write-fsync-rename-fsync)."""
        payload = {
            "format": "repro-log-spill-v1",
            "compress": self.compress,
            "lines_per_chunk": self.lines_per_chunk,
            "total_lines": self._count - len(self._tail),
            "chunks": [{"file": path.name, "lines": lines}
                       for path, _first, lines in self._chunks],
        }
        tmp = self.directory / (_MANIFEST_NAME + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.directory / _MANIFEST_NAME)
        _fsync_dir(self.directory)


#: What :class:`SpillSink` names its chunks: a bare file name, so a
#: manifest entry can never point outside its directory.
_CHUNK_NAME = re.compile(r"chunk-\d{6,}\.log(?:\.gz)?")


def _is_count(value) -> bool:
    """A JSON line count: a non-negative int (``true`` is not one)."""
    return type(value) is int and value >= 0


def _manifest_chunks(path: Path, manifest) -> List[Tuple[str, int]]:
    """The ``(file, lines)`` chunk list of a loaded manifest, after
    checking what :class:`LogReader` relies on: every ``file`` is a bare
    chunk name, every ``lines`` a non-negative int, and ``total_lines``
    their sum.  Anything else raises ``ValueError`` naming ``path``."""
    def invalid(why: str) -> ValueError:
        return ValueError(f"{path} is not a valid repro log-spill manifest: {why}")

    if not isinstance(manifest, dict) or manifest.get("format") != "repro-log-spill-v1":
        raise ValueError(f"{path} is not a repro log-spill manifest")
    listed = manifest.get("chunks")
    if not isinstance(listed, list):
        raise invalid("'chunks' is not a list")
    chunks = []
    for chunk in listed:
        name, lines = (chunk.get("file"), chunk.get("lines")) \
            if isinstance(chunk, dict) else (None, None)
        if not (isinstance(name, str) and _CHUNK_NAME.fullmatch(name)):
            raise invalid(f"chunk file {name!r} is not a bare "
                          f"chunk-NNNNNN.log[.gz] name")
        if not _is_count(lines):
            raise invalid(f"chunk {name} has line count {lines!r}")
        chunks.append((name, lines))
    total = manifest.get("total_lines")
    if not _is_count(total) or total != sum(lines for _name, lines in chunks):
        raise invalid(f"total_lines {total!r} is not the sum of the chunks' "
                      f"line counts")
    return chunks


class LogReader(ChunkedLog):
    """Read-only streaming view of a completed spill directory.

    Presents the same ``iter_entries`` / ``reports`` face as a live sink
    so analysis folds can consume either without materialising the log.
    The manifest is checked when the reader opens (see
    :func:`_manifest_chunks`): a split fold trusts its line counts.
    """

    def __init__(self, directory) -> None:
        super().__init__(str(Path(directory)))
        self.directory = Path(directory)
        manifest = self.directory / _MANIFEST_NAME
        try:
            with open(manifest, "r", encoding="utf-8") as fh:
                self.manifest = json.load(fh)
        except OSError as exc:
            raise ValueError(f"no spilled log at {self.directory}: {exc}") from exc
        for name, lines in _manifest_chunks(manifest, self.manifest):
            self._chunks.append((self.directory / name, self._count, lines))
            self._count += lines


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
