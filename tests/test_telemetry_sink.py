"""Log sinks: spill round-trips, load validation, streaming merges."""

from __future__ import annotations

import gzip
import io
import json

import pytest

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
        # an in-memory log keeps the arrival time it was given; both dump
        # the same file
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
        """The level is a constant of the format writer: level 9 doubled
        rotation time on real logs for 1.5% smaller chunks."""
        server = _spilled(tmp_path / "log", n=300, per_chunk=300)
        text = server.dumps().encode("utf-8")
        (chunk,) = (tmp_path / "log").glob("chunk-*")
        buf = io.BytesIO()
        with gzip.GzipFile(chunk.name, fileobj=buf, mode="wb",
                           compresslevel=6, mtime=0) as gz:
            gz.write(text)
        assert chunk.read_bytes() == buf.getvalue()
