"""Log sinks: spill round-trips, load validation, streaming merges."""

from __future__ import annotations

import gzip
import io
import json
import gc
import re
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.reports import (
    ActivityEvent,
    ActivityReport,
    QoSReport,
    TrafficReport,
)
from repro.telemetry.server import LogEntry, LogServer
from repro.telemetry.sink import (
    SPILL_ENV_VAR,
    LogReader,
    MemorySink,
    SpillSink,
    default_sink,
    set_spill_root,
)


def _fill(server: LogServer, n: int) -> None:
    """n mixed, arrival-ordered reports (several types, distinct fields)."""
    for i in range(n):
        t = i * 0.5
        if i % 3 == 0:
            server.receive_report(t, ActivityReport(
                time=t, node_id=100 + i, user_id=i % 7, session_id=i,
                event=ActivityEvent.JOIN, attempt=1 + i % 3))
        elif i % 3 == 1:
            server.receive_report(t, QoSReport(
                time=t, node_id=100 + i, user_id=i % 7, session_id=i,
                continuity=(i % 50) / 50.0, buffered_seconds=float(i % 9),
                n_parents=i % 5, playing=bool(i % 2)))
        else:
            server.receive_report(t, TrafficReport(
                time=t, node_id=100 + i, user_id=i % 7, session_id=i,
                bytes_up=i * 17, bytes_down=i * 23))


class TestMemorySink:
    def test_append_len_iter(self):
        sink = MemorySink()
        entries = [LogEntry(float(i), f"/log?type=qos&t={i}.000&node=1"
                            f"&user=1&sess=1") for i in range(5)]
        for e in entries:
            sink.append(e)
        assert len(sink) == 5
        assert list(sink.iter_entries()) == entries

    def test_closed_sink_rejects_appends(self):
        sink = MemorySink()
        sink.close()
        with pytest.raises(ValueError, match="closed"):
            sink.append(LogEntry(0.0, "x"))

    def test_arrival_times_read_back_as_the_log_file_carries_them(self):
        # the one behaviour change of keeping an in-memory log as rendered
        # lines: arrival_time is the .3f wire value, as a spilled log's has
        # always been, before a flush, after it and through a dump/reload
        server = LogServer(sink=MemorySink(lines_per_chunk=4))
        line = QoSReport(time=1.2, node_id=1, user_id=2, session_id=3,
                         continuity=0.5).to_log_string()
        assert server.receive(1.23456, line)
        for i in range(6):
            server.receive_report(2.0 + i / 7.0, ActivityReport(
                time=2.0, node_id=1, user_id=2, session_id=3 + i))
        before = list(server.iter_entries())
        assert len(before) == 7
        assert before[0] == LogEntry(1.235, line)
        assert [e.arrival_time for e in before[1:]] == \
               [float(f"{2.0 + i / 7.0:.3f}") for i in range(6)]
        server.flush()
        assert list(server.iter_entries()) == before
        assert list(LogServer.loads(server.dumps()).iter_entries()) == before
        server.receive_report(3.0004, ActivityReport(
            time=3.0, node_id=1, user_id=2, session_id=9))
        assert list(server.iter_entries()) == before + [
            LogEntry(3.0, server.entries()[-1].log_string)]


class TestSpillSink:
    def test_dump_byte_identical_to_memory(self, tmp_path):
        mem = LogServer(sink=MemorySink())
        spilled = LogServer(sink=SpillSink(tmp_path / "log",
                                           lines_per_chunk=7))
        _fill(mem, 40)
        _fill(spilled, 40)
        assert spilled.dumps() == mem.dumps()
        assert len(spilled) == len(mem) == 40

    def test_rotation_and_reader_round_trip(self, tmp_path):
        server = LogServer(sink=SpillSink(tmp_path / "log",
                                          lines_per_chunk=7))
        _fill(server, 40)
        before_close = server.dumps()
        server.close()
        # 40 lines at 7/chunk: five full chunks + the closed 5-line tail
        manifest = json.loads((tmp_path / "log" / "manifest.json").read_text())
        assert manifest["format"] == "repro-log-spill-v1"
        assert manifest["total_lines"] == 40
        assert [c["lines"] for c in manifest["chunks"]] == [7] * 5 + [5]

        reader = LogReader(tmp_path / "log")
        assert len(reader) == 40
        lines = [e.to_line() for e in reader.iter_entries()]
        assert "\n".join(lines) + "\n" == before_close
        # parsed reports stream in the same order too
        assert [r.time for r in reader.reports()] == \
               [e.arrival_time for e in reader.iter_entries()]

    def test_iter_entries_includes_unrotated_tail(self, tmp_path):
        server = LogServer(sink=SpillSink(tmp_path / "log",
                                          lines_per_chunk=100))
        _fill(server, 12)  # everything still in the tail
        assert len(list(server.iter_entries())) == 12

    def test_reads_back_the_same_before_and_after_rotation(self, tmp_path):
        # regression: the tail used to hold the LogEntry as received, so an
        # arrival time of 1.23456 read back as 1.23456 until the rotation
        # and as the stored 1.235 from then on
        line = QoSReport(time=1.2, node_id=1, user_id=2, session_id=3,
                         continuity=0.5).to_log_string()
        server = LogServer(sink=SpillSink(tmp_path / "log",
                                          lines_per_chunk=100))
        assert server.receive(1.23456, line)
        server.receive_report(2.00049, ActivityReport(
            time=2.0, node_id=1, user_id=2, session_id=3))
        in_tail = list(server.iter_entries())
        assert in_tail == [LogEntry(1.235, line),
                           LogEntry(2.0, in_tail[1].log_string)]
        assert [e.parse().time for e in in_tail] == [1.2, 2.0]
        text = server.dumps()
        server.flush()
        assert list(server.iter_entries()) == in_tail
        assert server.entries() == in_tail
        assert list(LogReader(tmp_path / "log").iter_entries()) == in_tail
        assert server.dumps() == text

    def test_write_is_append_of_the_two_fields(self, tmp_path):
        by_write = SpillSink(tmp_path / "w", lines_per_chunk=3)
        by_append = SpillSink(tmp_path / "a", lines_per_chunk=3)
        memory = MemorySink()
        for i in range(7):
            entry = LogEntry(i / 3.0, f"/log?type=part&t={i}.000&node=1"
                                      f"&user=1&sess=1&np=0&nin=0&nout=0")
            by_write.write(entry.arrival_time, entry.log_string)
            by_append.append(entry)
            memory.write(entry.arrival_time, entry.log_string)
        assert len(by_write) == len(by_append) == len(memory) == 7
        assert list(by_write.iter_entries()) == list(by_append.iter_entries())
        # both sinks store the rendered line, so an in-memory log reads
        # back the same .3f arrival times as a spilled one, and both dump
        # the same file
        assert list(memory.iter_entries()) == list(by_write.iter_entries())
        assert [e.to_line() for e in memory.iter_entries()] == \
               [e.to_line() for e in by_write.iter_entries()]
        for sink in (by_write, memory):
            sink.close()
            with pytest.raises(ValueError, match="closed"):
                sink.write(0.0, "x")

    def test_chunk_bytes_deterministic(self, tmp_path):
        for name in ("a", "b"):
            server = LogServer(sink=SpillSink(tmp_path / name,
                                              lines_per_chunk=10))
            _fill(server, 25)
            server.close()
        chunks_a = sorted((tmp_path / "a").glob("chunk-*"))
        chunks_b = sorted((tmp_path / "b").glob("chunk-*"))
        assert [c.name for c in chunks_a] == [c.name for c in chunks_b]
        for ca, cb in zip(chunks_a, chunks_b):
            assert ca.read_bytes() == cb.read_bytes()

    def test_uncompressed_chunks(self, tmp_path):
        server = LogServer(sink=SpillSink(tmp_path / "log",
                                          lines_per_chunk=5,
                                          compress=False))
        _fill(server, 11)
        server.close()
        chunks = sorted((tmp_path / "log").glob("chunk-*"))
        assert all(c.suffix == ".log" for c in chunks)
        assert len([e for e in LogReader(tmp_path / "log").iter_entries()]) \
            == 11

    def test_refuses_existing_spill_directory(self, tmp_path):
        server = LogServer(sink=SpillSink(tmp_path / "log",
                                          lines_per_chunk=2))
        _fill(server, 4)
        server.close()
        with pytest.raises(ValueError, match="already holds"):
            SpillSink(tmp_path / "log")

    def test_closed_sink_rejects_appends(self, tmp_path):
        sink = SpillSink(tmp_path / "log")
        sink.close()
        with pytest.raises(ValueError, match="closed"):
            sink.append(LogEntry(0.0, "x"))

    def test_durability_unit_is_the_chunk(self, tmp_path):
        # no close(): the manifest only knows the rotated chunks, which is
        # exactly what a crash preserves
        server = LogServer(sink=SpillSink(tmp_path / "log",
                                          lines_per_chunk=10))
        _fill(server, 25)
        reader = LogReader(tmp_path / "log")
        assert len(reader) == 20  # two rotated chunks; 5-line tail lost

    def test_flush_persists_tail_and_appends_continue(self, tmp_path):
        server = LogServer(sink=SpillSink(tmp_path / "log",
                                          lines_per_chunk=10))
        _fill(server, 7)
        server.flush()
        assert len(LogReader(tmp_path / "log")) == 7  # sub-chunk tail on disk
        _fill(server, 7)
        server.flush()
        reader = LogReader(tmp_path / "log")
        assert len(reader) == 14
        assert [e.to_line() for e in reader.iter_entries()] == \
               [e.to_line() for e in server.iter_entries()]

    def test_finished_run_leaves_complete_spill_directory(self, tmp_path):
        # run_scenario flushes the log at the end, so a short run's
        # (sub-chunk) spill is on disk without anyone calling close()
        from repro.runtime import run_scenario
        from repro.workload.scenarios import steady_audience

        set_spill_root(tmp_path / "spill")
        try:
            res = run_scenario(
                steady_audience(rate_per_s=0.2, horizon_s=120.0),
                seed=0, engine="detailed")
        finally:
            set_spill_root(None)
        (spill_dir,) = (tmp_path / "spill").iterdir()
        reader = LogReader(spill_dir)
        assert len(reader) == len(res.log) > 0
        assert [e.to_line() for e in reader.iter_entries()] == \
               [e.to_line() for e in res.log.iter_entries()]

    def test_reader_rejects_non_spill_directory(self, tmp_path):
        with pytest.raises(ValueError, match="no spilled log"):
            LogReader(tmp_path)
        (tmp_path / "manifest.json").write_text('{"format": "other"}')
        with pytest.raises(ValueError, match="not a repro log-spill"):
            LogReader(tmp_path)


def _spilled(directory, *, n=25, per_chunk=10, compress=True) -> LogServer:
    """A finished spill directory: n lines over ceil(n / per_chunk) chunks."""
    server = LogServer(sink=SpillSink(directory, lines_per_chunk=per_chunk,
                                      compress=compress))
    _fill(server, n)
    server.flush()
    return server


class TestDamagedSpillDirectory:
    """A manifest-listed chunk that cannot be read in full is an error
    that names the chunk, from the reader and the live sink alike; files
    the manifest does not list are not part of the log."""

    def _assert_names_chunk(self, server, chunk):
        for source in (LogReader(server.sink.directory), server.sink):
            with pytest.raises(ValueError, match=chunk.name) as info:
                list(source.iter_entries())
            assert "spill chunk" in str(info.value)

    def test_truncated_gzip_chunk(self, tmp_path):
        server = _spilled(tmp_path / "log")
        chunk = tmp_path / "log" / "chunk-000001.log.gz"
        chunk.write_bytes(chunk.read_bytes()[:-12])
        self._assert_names_chunk(server, chunk)

    def test_corrupt_gzip_chunk(self, tmp_path):
        server = _spilled(tmp_path / "log")
        chunk = tmp_path / "log" / "chunk-000000.log.gz"
        raw = bytearray(chunk.read_bytes())
        raw[:2] = b"no"  # not a gzip member any more
        chunk.write_bytes(bytes(raw))
        self._assert_names_chunk(server, chunk)
        raw[:2] = b"\x1f\x8b"
        raw[20:40] = bytes(20)  # a gzip member whose deflate stream is not
        chunk.write_bytes(bytes(raw))
        self._assert_names_chunk(server, chunk)

    def test_missing_chunk(self, tmp_path):
        server = _spilled(tmp_path / "log")
        chunk = tmp_path / "log" / "chunk-000002.log.gz"
        chunk.unlink()
        self._assert_names_chunk(server, chunk)

    def test_truncated_plain_chunk(self, tmp_path):
        # nothing in a text file says it was cut at a line boundary; the
        # manifest's line count does
        server = _spilled(tmp_path / "log", compress=False)
        chunk = tmp_path / "log" / "chunk-000000.log"
        lines = chunk.read_text().splitlines(keepends=True)
        chunk.write_text("".join(lines[:-3]))
        self._assert_names_chunk(server, chunk)
        chunk.write_text("".join(lines[:-3]) + lines[-3][:9])  # mid-line
        self._assert_names_chunk(server, chunk)

    def test_healthy_chunks_before_the_damage_still_stream(self, tmp_path):
        server = _spilled(tmp_path / "log")
        (tmp_path / "log" / "chunk-000001.log.gz").write_bytes(b"")
        stream = LogReader(tmp_path / "log").iter_entries()
        assert len([next(stream) for _ in range(10)]) == 10
        with pytest.raises(ValueError, match="chunk-000001"):
            next(stream)

    def test_kill_between_chunk_fsync_and_manifest_replace(self, tmp_path):
        # kill -9 inside _rotate leaves a chunk the manifest never listed
        # and possibly a half-written manifest.json.tmp: the log is what
        # the last complete manifest says, no more
        server = _spilled(tmp_path / "log", n=20)
        expected = server.dumps()
        log = tmp_path / "log"
        (log / "chunk-000002.log.gz").write_bytes(
            (log / "chunk-000001.log.gz").read_bytes())
        (log / "manifest.json.tmp").write_text('{"format": "repro-log-sp')
        reader = LogReader(log)
        lines = [e.to_line() + "\n" for e in reader.iter_entries()]
        assert len(reader) == len(lines) == 20
        assert "".join(lines) == expected


def _edit_manifest(directory, edit) -> Path:
    manifest = directory / "manifest.json"
    doc = json.loads(manifest.read_text())
    edit(doc)
    manifest.write_text(json.dumps(doc))
    return manifest


class TestManifestValidation:
    """``LogReader`` checks the manifest's line counts and file names when
    it opens: a split fold trusts the counts, and a listed file is opened."""

    def _assert_rejected(self, directory, edit, why):
        manifest = _edit_manifest(directory, edit)
        with pytest.raises(ValueError, match=re.escape(str(manifest))) as info:
            LogReader(directory)
        assert why in str(info.value)

    def test_total_lines_must_be_the_sum_of_the_chunks(self, tmp_path):
        _spilled(tmp_path / "log")   # 10 + 10 + 5 lines
        for total in (24, 26, 0, None, "25", True):
            self._assert_rejected(
                tmp_path / "log", lambda doc: doc.update(total_lines=total),
                "total_lines")
        _edit_manifest(tmp_path / "log", lambda doc: doc.update(total_lines=25))
        assert len(LogReader(tmp_path / "log")) == 25

    def test_line_counts_must_be_non_negative_ints(self, tmp_path):
        _spilled(tmp_path / "log")
        for lines in (-1, 2.5, "10", None, True):
            def edit(doc, lines=lines):
                doc["chunks"][1]["lines"] = lines
                doc["total_lines"] = 15 + (lines if type(lines) is int else 0)
            self._assert_rejected(tmp_path / "log", edit, "line count")

    def test_chunk_files_must_be_bare_chunk_names(self, tmp_path):
        _spilled(tmp_path / "log")
        outside = tmp_path / "chunk-000001.log.gz"
        outside.write_bytes((tmp_path / "log" / "chunk-000001.log.gz")
                            .read_bytes())
        for name in ("../chunk-000001.log.gz", str(outside),
                     "sub/chunk-000001.log.gz", "chunk-000001.log.gz/..",
                     "chunk-1.log", "chunk-000001.txt", "manifest.json", 7):
            def edit(doc, name=name):
                doc["chunks"][1]["file"] = name
            self._assert_rejected(tmp_path / "log", edit, "chunk file")


class TestLineRanges:
    """``LogReader.reports(start, stop)``: consecutive ranges read what one
    pass reads, opening only the chunks that hold their lines."""

    def test_any_partition_reads_the_whole_log(self, tmp_path):
        _spilled(tmp_path / "log", n=23, per_chunk=5)
        reader = LogReader(tmp_path / "log")
        whole = [r.time for r in reader.reports()]
        assert len(whole) == 23
        for cuts in ([], [5], [7], [3, 4], [5, 10, 15, 20], [1, 12, 22],
                     list(range(1, 23))):
            bounds = [0] + cuts + [23]
            assert [r.time for a, b in zip(bounds, bounds[1:])
                    for r in reader.reports(a, b)] == whole, cuts
        assert list(reader.reports(7, 7)) == []
        with pytest.raises(ValueError, match="not within the 23 lines"):
            list(reader.reports(20, 24))

    def test_chunks_outside_the_range_are_not_opened(self, tmp_path):
        _spilled(tmp_path / "log", n=25, per_chunk=5)
        for index in (0, 3, 4):
            (tmp_path / "log" / f"chunk-00000{index}.log.gz").unlink()
        reader = LogReader(tmp_path / "log")
        assert len(list(reader.reports(6, 15))) == 9
        with pytest.raises(ValueError, match="chunk-000003"):
            list(reader.reports(6, 16))

    @pytest.mark.parametrize("extra", [-1, +1])
    def test_a_line_count_is_checked_once_by_the_range_ending_it(
            self, tmp_path, extra):
        _spilled(tmp_path / "log", n=20, per_chunk=10, compress=False)
        chunk = tmp_path / "log" / "chunk-000000.log"
        lines = chunk.read_text().splitlines(keepends=True)
        chunk.write_text("".join(lines + lines[-1:] if extra > 0
                                 else lines[:-1]))
        reader = LogReader(tmp_path / "log")
        message = f"holds {10 + extra} lines, manifest says 10"
        for a, b in ((0, 4), (4, 8), (12, 20)):
            assert len(list(reader.reports(a, b))) == b - a
        for a, b in ((0, 20), (4, 10), (9, 12)):
            with pytest.raises(ValueError, match=message):
                list(reader.reports(a, b))

    def test_a_chunk_without_lines_belongs_to_one_range(self, tmp_path):
        # a listed chunk of no lines is still opened (and checked) once:
        # by the range holding the line before it, or the one from 0
        _spilled(tmp_path / "log", n=20, per_chunk=10)

        def listed_at(position):
            def edit(doc):
                doc["chunks"].insert(position, {"file": "chunk-000009.log",
                                                "lines": 0})
            return edit

        for position, failing in ((0, (0, 5)), (1, (5, 10)), (2, (15, 20))):
            _edit_manifest(tmp_path / "log", listed_at(position))
            reader = LogReader(tmp_path / "log")
            for span in ((0, 5), (5, 10), (10, 15), (15, 20)):
                if span == failing:
                    with pytest.raises(ValueError, match="chunk-000009"):
                        list(reader.reports(*span))
                else:
                    assert len(list(reader.reports(*span))) == 5
            _edit_manifest(tmp_path / "log",
                           lambda doc: doc["chunks"].pop(position))


class TestLoadValidation:
    """PR-6 regression: load() must survive truncated/garbage lines."""

    def test_corrupt_lines_counted_and_skipped(self):
        server = LogServer(sink=MemorySink())
        _fill(server, 9)
        good = server.dumps()
        lines = good.splitlines()
        lines.insert(3, "garbage without a timestamp")
        lines.insert(5, lines[0][:4])  # truncated before the log string
        lines.append("12.5 not-a-log-request")
        corrupted = "\n".join(lines) + "\n"

        loaded = LogServer.loads(corrupted)
        assert loaded.malformed_count == 3
        assert len(loaded) == 9
        assert loaded.dumps() == good

    def test_blank_lines_are_not_malformed(self):
        server = LogServer(sink=MemorySink())
        _fill(server, 3)
        padded = "\n" + server.dumps().replace("\n", "\n\n")
        loaded = LogServer.loads(padded)
        assert loaded.malformed_count == 0
        assert len(loaded) == 3

    def test_load_into_spill_sink(self, tmp_path):
        server = LogServer(sink=MemorySink())
        _fill(server, 30)
        loaded = LogServer.loads(
            server.dumps(),
            sink=SpillSink(tmp_path / "log", lines_per_chunk=8),
        )
        assert loaded.dumps() == server.dumps()


class TestStreamingMerge:
    def test_merge_matches_stable_sort_semantics(self):
        a, b = LogServer(sink=MemorySink()), LogServer(sink=MemorySink())
        # interleaved arrivals with ties across servers
        for i in range(20):
            a.receive_report(float(i), QoSReport(
                time=float(i), node_id=1, user_id=1, session_id=1,
                continuity=0.5))
            b.receive_report(float(i), QoSReport(
                time=float(i), node_id=2, user_id=2, session_id=2,
                continuity=0.9))
        merged = a.merged_with(b)
        expected = sorted(a.entries() + b.entries(),
                          key=lambda e: e.arrival_time)
        assert merged.entries() == expected
        # ties keep input order: server a's entry precedes b's
        assert merged.entries()[0].log_string == a.entries()[0].log_string

    def test_unsorted_memory_input_is_sorted_first(self):
        a, b = LogServer(sink=MemorySink()), LogServer(sink=MemorySink())
        for t in (5.0, 1.0, 3.0):  # manual out-of-order population
            a.receive_report(t, QoSReport(
                time=t, node_id=1, user_id=1, session_id=1))
        b.receive_report(2.0, QoSReport(
            time=2.0, node_id=2, user_id=2, session_id=2))
        merged = a.merged_with(b)
        times = [e.arrival_time for e in merged.entries()]
        assert times == sorted(times)

    def test_spilled_merge_is_byte_identical(self, tmp_path):
        mem_a, mem_b = LogServer(sink=MemorySink()), \
            LogServer(sink=MemorySink())
        _fill(mem_a, 25)
        _fill(mem_b, 25)
        expected = mem_a.merged_with(mem_b).dumps()

        sp_a = LogServer.loads(mem_a.dumps(),
                               sink=SpillSink(tmp_path / "a",
                                              lines_per_chunk=6))
        sp_b = LogServer.loads(mem_b.dumps(),
                               sink=SpillSink(tmp_path / "b",
                                              lines_per_chunk=9))
        merged = sp_a.merged_with(
            sp_b, sink=SpillSink(tmp_path / "out", lines_per_chunk=11))
        assert merged.dumps() == expected

    def test_ties_are_arrival_times_to_the_millisecond(self):
        # arrival times compare as the log stores them: 1.0004, 1.0001 and
        # 0.9996 all read 1.000, so they tie -- a's two keep their order
        # in a's log (no out-of-order pair to sort) and come before b's
        def qos(node_id):
            return QoSReport(time=1.0, node_id=node_id, user_id=1,
                             session_id=1)

        a, b = LogServer(sink=MemorySink()), LogServer(sink=MemorySink())
        a.receive_report(1.0004, qos(1))
        a.receive_report(1.0001, qos(2))
        a.receive_report(2.0, qos(4))
        b.receive_report(0.9996, qos(3))
        merged = a.merged_with(b)
        assert [r.node_id for r in merged.reports()] == [1, 2, 3, 4]
        assert [e.arrival_time for e in merged.entries()] == \
               [1.0, 1.0, 1.0, 2.0]

    def test_in_arrival_order_compares_stored_times(self):
        server = LogServer(sink=MemorySink(lines_per_chunk=2))
        assert server.in_arrival_order()
        for t in (1.0004, 1.0001, 1.0, 2.0):  # the first three read 1.000
            server.receive_report(t, QoSReport(
                time=t, node_id=1, user_id=1, session_id=1))
        assert server.in_arrival_order()
        server.receive_report(1.5, QoSReport(
            time=1.5, node_id=1, user_id=1, session_id=1))
        assert not server.in_arrival_order()

    def test_kway_merge_and_malformed_sum(self):
        servers = []
        for k in range(3):
            s = LogServer(sink=MemorySink())
            _fill(s, 10)
            s.malformed_count = k
            servers.append(s)
        merged = LogServer.merged(servers)
        assert len(merged) == 30
        assert merged.malformed_count == 3
        times = [e.arrival_time for e in merged.entries()]
        assert times == sorted(times)


class _EntriesOnlySink:
    """A sink with the ``LogSink`` protocol's methods only: no
    ``reports()`` reader of its own."""

    def __init__(self):
        self._entries = []

    def write(self, arrival_time, log_string):
        self._entries.append(LogEntry(arrival_time, log_string))

    def append(self, entry):
        self._entries.append(entry)

    def __len__(self):
        return len(self._entries)

    def iter_entries(self):
        return iter(self._entries)

    def flush(self):
        pass

    def close(self):
        pass


class TestSinkProtocol:
    def test_a_sink_without_reports_is_parsed_entry_by_entry(self):
        memory = LogServer(sink=MemorySink(lines_per_chunk=5))
        minimal = LogServer(sink=_EntriesOnlySink())
        _fill(memory, 12)
        _fill(minimal, 12)
        assert list(minimal.reports()) == list(memory.reports())
        assert list(minimal.reports_of(QoSReport)) == \
               list(memory.reports_of(QoSReport))
        assert minimal.dumps() == memory.dumps()
        assert LogServer.merged((minimal, memory)).dumps() == \
               LogServer.merged((memory, memory)).dumps()


class TestDefaultSink:
    def test_memory_by_default(self, monkeypatch):
        monkeypatch.delenv(SPILL_ENV_VAR, raising=False)
        set_spill_root(None)
        assert isinstance(default_sink(), MemorySink)

    def test_env_var_selects_spill(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SPILL_ENV_VAR, str(tmp_path))
        try:
            sink = default_sink()
            assert isinstance(sink, SpillSink)
            assert sink.directory.parent == tmp_path
            # each server gets its own subdirectory
            assert default_sink().directory != sink.directory
        finally:
            set_spill_root(None)

    def test_explicit_root_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SPILL_ENV_VAR, str(tmp_path / "env"))
        set_spill_root(tmp_path / "explicit")
        try:
            sink = default_sink()
            assert isinstance(sink, SpillSink)
            assert sink.directory.parent == tmp_path / "explicit"
        finally:
            set_spill_root(None)


class TestGzipFormat:
    def test_chunks_are_plain_gzip_text(self, tmp_path):
        """Chunks must stay readable by any gzip tool, not a bespoke codec."""
        server = LogServer(sink=SpillSink(tmp_path / "log",
                                          lines_per_chunk=4))
        _fill(server, 8)
        server.close()
        chunk = sorted((tmp_path / "log").glob("chunk-*"))[0]
        text = gzip.decompress(chunk.read_bytes()).decode("utf-8")
        assert len(text.splitlines()) == 4
        assert text.splitlines()[0] == server.entries()[0].to_line()

    def test_chunks_use_zlib_default_level(self, tmp_path):
        """The level is a constant of the format writer, and it is 1: on
        the benchmark's 132k-line fluid log level 6 cost 1.59 us of
        deflate per line against 0.49 us, for chunks 23% larger (1.45 ->
        1.78 MiB); level 9 had doubled level 6's time for 1.5% less."""
        server = _spilled(tmp_path / "log", n=300, per_chunk=300)
        text = server.dumps().encode("utf-8")
        (chunk,) = (tmp_path / "log").glob("chunk-*")
        buf = io.BytesIO()
        with gzip.GzipFile(chunk.name, fileobj=buf, mode="wb",
                           compresslevel=1, mtime=0) as gz:
            gz.write(text)
        assert chunk.read_bytes() == buf.getvalue()


def _log_strings(n: int):
    """n log strings, one of each report class in turn."""
    server = LogServer(sink=MemorySink())
    _fill(server, n)
    return [entry.log_string for entry in server.iter_entries()]


class TestOneStorageTwoSinks:
    """Both sinks keep the log as gzip chunks plus a live tail; wherever
    the chunk edges, the tail and the flushes fall, every range reads what
    a list of ``LogEntry`` objects -- the storage an in-memory log used to
    be -- gives, arrival times read back at their ``.3f`` value."""

    @settings(max_examples=40, deadline=None)
    @given(arrivals=st.lists(st.floats(0.0, 1e6, allow_nan=False),
                             max_size=18),
           per_chunk=st.integers(1, 6),
           flush_after=st.sets(st.integers(0, 18)),
           live_tail=st.booleans())
    def test_every_range_reads_as_the_entry_list(self, arrivals, per_chunk,
                                                 flush_after, live_tail):
        listed = [LogEntry(t, s)
                  for t, s in zip(arrivals, _log_strings(len(arrivals)))]
        with tempfile.TemporaryDirectory() as tmp:
            spilled = SpillSink(Path(tmp) / "log", lines_per_chunk=per_chunk)
            memory = MemorySink(lines_per_chunk=per_chunk)
            servers = [LogServer(sink=sink) for sink in (memory, spilled)]
            for i, entry in enumerate(listed):
                for server in servers:
                    server.sink.append(entry)
                    if i in flush_after:
                        server.flush()
            if not live_tail:
                for server in servers:
                    server.flush()
            sources = [memory, spilled]
            if listed and not live_tail:   # an empty log writes no manifest
                sources.append(LogReader(Path(tmp) / "log"))

            stored = [LogEntry.from_line(e.to_line()) for e in listed]
            dumped = "".join(e.to_line() + "\n" for e in listed)
            n = len(listed)
            for source in sources:
                assert len(source) == n
                assert list(source.iter_entries()) == stored
                for start in range(n + 1):
                    for stop in range(start, n + 1):
                        assert list(source.reports(start, stop)) == \
                            [e.parse() for e in listed[start:stop]]
            for server in servers:
                assert server.dumps() == dumped
                assert list(server.reports()) == [e.parse() for e in listed]


_POOL: list = []


def _pool(n: int):
    """The first n of a fixed, reused pool of distinct log strings."""
    if len(_POOL) < n:
        _POOL[:] = _log_strings(max(n, 2 * len(_POOL)))
    return _POOL[:n]


def _stored(sink, directory):
    """Everything a sink holds, as bytes and counts: each chunk's bytes
    with its first line and line count, the manifest, the live tail."""
    if directory is None:
        chunks = [(chunk, first, lines) for chunk, first, lines in sink._chunks]
        manifest = None
    else:
        chunks = [(path.name, path.read_bytes(), first, lines)
                  for path, first, lines in sink._chunks]
        found = sorted(p.name for p in directory.glob("chunk-*"))
        assert found == [name for name, *_ in chunks]
        manifest_path = directory / "manifest.json"
        manifest = (manifest_path.read_bytes() if manifest_path.exists()
                    else None)
    return chunks, manifest, list(sink._tail), len(sink)


class TestBatchedWrites:
    """``write_many`` over any split of a line sequence into batches --
    empty batches included -- stores what one ``write`` per line stores:
    the same chunk bytes rotated at the same ``lines_per_chunk``
    boundaries, the same manifest, length, dump and line ranges."""

    @settings(max_examples=30, deadline=None)
    @given(per_chunk=st.sampled_from([1, 7, 997]),
           batches=st.lists(st.tuples(st.floats(0.0, 1e6, allow_nan=False),
                                      st.integers(0, 1100)), max_size=5),
           flush_after=st.sets(st.integers(0, 4)),
           close=st.booleans(),
           spill=st.booleans(),
           data=st.data())
    def test_any_batching_stores_what_per_line_writes_store(
            self, per_chunk, batches, flush_after, close, spill, data):
        # at 1 and 7 lines per chunk the batches stay short: the boundary
        # is crossed many times, and every range can be read back
        limit = 1100 if per_chunk == 997 else 3 * per_chunk + 2
        batches = [(t, min(size, limit)) for t, size in batches]
        lines = _pool(sum(size for _t, size in batches))
        with tempfile.TemporaryDirectory() as tmp:
            sinks, dirs = [], []
            for name in ("per_line", "batched"):
                directory = Path(tmp) / name if spill else None
                dirs.append(directory)
                sinks.append(
                    SpillSink(directory, lines_per_chunk=per_chunk) if spill
                    else MemorySink(lines_per_chunk=per_chunk))
            per_line, batched = sinks
            done = 0
            for i, (t, size) in enumerate(batches):
                batch = lines[done:done + size]
                done += size
                for log_string in batch:
                    per_line.write(t, log_string)
                batched.write_many(t, batch)
                if i in flush_after:
                    per_line.flush()
                    batched.flush()
                assert _stored(batched, dirs[1]) == _stored(per_line, dirs[0])
            if close:
                for sink in sinks:
                    sink.close()
            assert _stored(batched, dirs[1]) == _stored(per_line, dirs[0])
            n = len(lines)
            assert len(batched) == len(per_line) == n
            assert LogServer(sink=batched).dumps() == \
                LogServer(sink=per_line).dumps()
            if n <= 40:
                ranges = [(start, stop) for start in range(n + 1)
                          for stop in range(start, n + 1)]
            else:
                bounds = {0, n}
                for _chunk, first, count in per_line._chunks:
                    bounds.update({first - 1, first + 1, first + count})
                points = sorted(b for b in bounds if 0 <= b <= n)
                ranges = list(zip(points, points[1:])) + [(0, n)]
                ranges += [tuple(sorted(data.draw(
                    st.tuples(st.integers(0, n), st.integers(0, n)))))
                    for _ in range(3)]
            for start, stop in ranges:
                assert list(batched.reports(start, stop)) == \
                    list(per_line.reports(start, stop))

    @pytest.mark.parametrize("spill", [False, True])
    def test_a_closed_sink_rejects_both_writes_alike(self, spill, tmp_path):
        sink = (SpillSink(tmp_path / "log", lines_per_chunk=7) if spill
                else MemorySink(lines_per_chunk=7))
        sink.write_many(1.0, _pool(10))
        sink.close()
        before = _stored(sink, tmp_path / "log" if spill else None)
        errors = []
        for write in (lambda: sink.write(2.0, _pool(1)[0]),
                      lambda: sink.write_many(2.0, _pool(3))):
            with pytest.raises(ValueError) as info:
                write()
            errors.append(str(info.value))
        assert errors == ["sink is closed"] * 2
        sink.write_many(3.0, [])   # as many writes as lines: none
        assert _stored(sink, tmp_path / "log" if spill else None) == before

    def test_server_takes_batches_on_a_sink_without_write_many(self):
        lines = _pool(5)
        entries_only = _EntriesOnlySink()
        LogServer(sink=entries_only).receive_lines(3.0, lines)
        memory = MemorySink()
        LogServer(sink=memory).receive_lines(3.0, lines)
        assert not hasattr(entries_only, "write_many")
        assert list(entries_only.iter_entries()) == \
            list(memory.iter_entries()) == [LogEntry(3.0, s) for s in lines]


class TestBytesPerLine:
    """What a log line costs in Python heap, by ``tracemalloc`` (exact and
    machine-independent, unlike RSS): 60k QoS lines in the 300-line
    ``receive_lines`` batches the vectorised engines hand the server, over
    5,000-line chunks.  Measured on CPython 3.11: in memory 14.8 B/line
    retained and 36 B/line at peak, spilled 0.1 and 23; a store of one
    ``LogEntry`` per line costs over 200 B/line."""

    LINES, BATCH = 60_000, 300
    MAX_PEAK = 100.0
    #: the in-memory log keeps its level-1 gzip chunks (about a sixth of
    #: the text); a spilled one keeps a few hundred bytes per chunk
    MAX_RETAINED = {"memory": 25.0, "spill": 1.0}

    def _per_line(self, sink):
        gc.collect()
        tracemalloc.start()
        try:
            server = LogServer(sink=sink)
            for lo in range(0, self.LINES, self.BATCH):
                rows = range(lo, lo + self.BATCH)
                server.receive_lines(lo * 0.25, QoSReport.log_strings(
                    lo * 0.25, [1000 + i % 10_000 for i in rows],
                    [i % 10_000 for i in rows], [i % 40_000 for i in rows],
                    [(i % 101) / 100.0 for i in rows],
                    [(i % 240) / 10.0 for i in rows], [i % 6 for i in rows],
                    [bool(i % 7) for i in rows]))
            server.close()
            gc.collect()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(server) == self.LINES
        return retained / self.LINES, peak / self.LINES

    @pytest.mark.parametrize("mode", ["memory", "spill"])
    def test_sink_holds_a_line_in_bytes_not_objects(self, mode, tmp_path):
        sink = (SpillSink(tmp_path / "log", lines_per_chunk=5000)
                if mode == "spill" else MemorySink(lines_per_chunk=5000))
        retained, peak = self._per_line(sink)
        assert peak <= self.MAX_PEAK, f"{peak:.1f} B/line at peak"
        assert retained <= self.MAX_RETAINED[mode], \
            f"{retained:.1f} B/line retained"
