"""``fold_log`` over a spilled log split into line ranges, one forked
worker per range after the first: every result, and every error, is the
single pass's, and no worker or descriptor outlives the call."""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import threading
from concurrent.futures import ProcessPoolExecutor

import pytest

import test_failure_injection as failure_tests
import test_telemetry_sink as sink_tests
from repro.analysis import streaming
from repro.analysis.sessions import SessionTable
from repro.analysis.streaming import (
    ClassifyUsersFold,
    ConcurrentUsersFold,
    ContinuitySamplesFold,
    Fold,
    JoinFunnelFold,
    PartnerEventsFold,
    SessionTableFold,
    UploadTotalsFold,
    fold_log,
)
from repro.runtime import run_scenario
from repro.telemetry.server import LogServer
from repro.telemetry.sink import LogReader, SpillSink
from repro.workload.scenarios import steady_audience

pytestmark = [
    pytest.mark.skipif(not (hasattr(os, "fork")
                            and hasattr(os, "sched_getaffinity")),
                       reason="the split needs os.fork and CPU affinity"),
    # an unclosed pipe surfaces as a ResourceWarning from a finaliser
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
]

#: the test process; a fold checks it to act in one process only
TEST_PID = os.getpid()


@contextlib.contextmanager
def forced(workers: int):
    """``fold_log`` splits any spilled log of ``workers`` lines or more
    into ``workers`` ranges (1: the single pass); yields the worker pids
    it forks."""
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(streaming, "_MIN_RANGE_LINES", 1)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
        mp.setattr(os, "fork", fork)
        yield forks


@contextlib.contextmanager
def no_leftovers():
    """The block leaves no child process and no open descriptor behind."""
    fds = sorted(os.listdir("/proc/self/fd"))
    yield
    assert sorted(os.listdir("/proc/self/fd")) == fds
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def deadline():
    """A ``fold_log`` that hangs fails its test instead of the run."""
    def expire(signum, frame):
        raise TimeoutError("fold_log did not return within 120 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _folds():
    """The seven folds: the session table, both of its views, and the
    four other reconstructions."""
    return [SessionTableFold(), ClassifyUsersFold(), UploadTotalsFold(),
            ContinuitySamplesFold(), PartnerEventsFold(),
            ConcurrentUsersFold(t1=400.0, step_s=30.0), JoinFunnelFold()]


def _exact(result):
    """A fold result as a string that differs wherever the results do."""
    if isinstance(result, SessionTable):
        return repr(result.sessions())
    if isinstance(result, tuple):
        return repr([a.tolist() for a in result])
    return repr(result)


def _outcome(directory, workers: int, folds=None):
    """What ``fold_log`` gives over the spill directory at ``workers``
    ranges: every result, or the ``(type, message)`` it raised."""
    reader = LogReader(directory)
    with forced(workers) as forks:
        try:
            results = fold_log(reader, *(folds or _folds()))
        except (ValueError, RuntimeError) as exc:
            outcome = (type(exc), str(exc))
        else:
            outcome = [_exact(r) for r in results]
    assert len(forks) == (workers - 1 if len(reader) >= workers else 0)
    return outcome


def _same_outcome_split(directory):
    single = _outcome(directory, 1)
    for workers in (2, 3, 5):
        assert _outcome(directory, workers) == single, workers
    return single


N_LINES = 480


@pytest.fixture(scope="module")
def log_lines():
    """The first 480 lines of a churny detailed-engine log: activity, QoS,
    traffic and partner reports, partner events among them."""
    scenario = steady_audience(rate_per_s=0.3, horizon_s=400.0, n_servers=2)
    log = run_scenario(scenario, seed=3, engine="detailed").system.log
    lines = log.dumps().splitlines(keepends=True)[:N_LINES]
    assert len(lines) == N_LINES
    kinds = {type(e.parse()).__name__
             for e in LogServer.loads("".join(lines)).iter_entries()}
    assert kinds == {"ActivityReport", "QoSReport", "TrafficReport",
                     "PartnerReport"}
    return "".join(lines)


def _spill(text, directory, per_chunk):
    server = LogServer.loads(text, sink=SpillSink(directory,
                                                  lines_per_chunk=per_chunk))
    server.flush()
    return directory


@pytest.fixture(scope="module")
def spill_dir(log_lines, tmp_path_factory):
    return _spill(log_lines, tmp_path_factory.mktemp("split") / "log", 100)


class TestSplitEqualsSinglePass:
    @pytest.mark.parametrize("cut,per_chunk,workers", [
        ("boundary", 96, 5),     # 96, 192, 288, 384
        ("boundary", 120, 2),    # 240
        ("mid-chunk", 120, 3),   # 160, 320
        ("mid-chunk", 96, 2),    # 240
        ("one-chunk", 1000, 2),
        ("one-chunk", 1000, 3),
        ("one-chunk", 1000, 5),
    ])
    def test_seven_folds(self, log_lines, tmp_path, cut, per_chunk, workers):
        cuts = [N_LINES * k // workers for k in range(1, workers)]
        on_boundary = [c % per_chunk == 0 for c in cuts]
        assert {"boundary": all(on_boundary),
                "mid-chunk": not any(on_boundary),
                "one-chunk": per_chunk >= N_LINES}[cut]
        directory = _spill(log_lines, tmp_path / "log", per_chunk)
        with no_leftovers():
            single = _outcome(directory, 1)
            assert _outcome(directory, workers) == single
        assert single[0].count("Session(") > 10

    def test_a_fold_listed_twice_is_fed_twice(self, spill_dir):
        def twice():
            samples = ContinuitySamplesFold()
            return [samples, samples, PartnerEventsFold()]

        single = _outcome(spill_dir, 1, twice())
        assert _outcome(spill_dir, 3, twice()) == single

    def test_folds_fed_by_hand_count_their_reports_once(self, log_lines,
                                                        tmp_path):
        lines = log_lines.splitlines(keepends=True)
        head = LogServer.loads("".join(lines[:200]))
        tail = _spill("".join(lines[200:]), tmp_path / "tail", 70)

        def primed():
            """Six folds fed the head by hand, and a funnel that was not."""
            folds = _folds()[:5] + [ConcurrentUsersFold(t1=400.0, step_s=30.0)]
            for report in head.reports():
                for fold in folds:
                    fold.update(report)
            return folds + [JoinFunnelFold()]

        whole = _spill(log_lines, tmp_path / "whole", 70)
        expected = [_exact(r) for r in fold_log(LogReader(whole), *_folds())]
        single = _outcome(tail, 1, primed())
        assert single[:6] == expected[:6]   # the funnel saw the tail only
        assert _outcome(tail, 3, primed()) == single

    def test_inside_a_process_pool_worker(self, spill_dir):
        single = _outcome(spill_dir, 1)
        # the campaign runner's pool: forked workers
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            split = pool.submit(_outcome, spill_dir, 3).result(timeout=60)
        assert split == single


class TestSinglePassKept:
    """Where ``fold_log`` must not fork, it does not."""

    def test_logs_not_read_through_a_log_reader(self, log_lines, tmp_path):
        spilled = LogServer.loads(log_lines, sink=SpillSink(
            tmp_path / "log", lines_per_chunk=100))
        for source in (LogServer.loads(log_lines), spilled,
                       list(spilled.reports())):
            with forced(3) as forks:
                fold_log(source, *_folds())
            assert forks == []

    def test_fewer_lines_than_two_ranges(self, spill_dir):
        with forced(3) as forks, pytest.MonkeyPatch.context() as mp:
            mp.setattr(streaming, "_MIN_RANGE_LINES", N_LINES // 2 + 1)
            fold_log(LogReader(spill_dir), *_folds())
        assert forks == []

    def test_a_fold_without_merge(self, spill_dir):
        class Count(Fold):
            def __init__(self):
                self.n = 0

            def update(self, report):
                self.n += 1

            def result(self):
                return self.n

        with forced(3) as forks:
            assert fold_log(LogReader(spill_dir), *_folds(),
                            Count())[-1] == N_LINES
        assert forks == []

    def test_a_second_thread(self, spill_dir):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            with forced(3) as forks:
                fold_log(LogReader(spill_dir), *_folds())
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == []


class FailsInAWorker(UploadTotalsFold):
    def update(self, report):
        if os.getpid() != TEST_PID:
            raise ValueError("a worker's fold failed")
        super().update(report)


class InterruptedHere(UploadTotalsFold):
    def update(self, report):
        if os.getpid() == TEST_PID:
            raise KeyboardInterrupt
        super().update(report)


class DiesWhenSent(UploadTotalsFold):
    """A worker folding this fold is killed while it sends it."""

    def __getstate__(self):
        if os.getpid() != TEST_PID:
            os.kill(os.getpid(), signal.SIGKILL)
        return self.__dict__


class TestWorkerLifecycle:
    """A failed worker fails the pass; a failed pass stops its workers."""

    def test_success_leaves_nothing_behind(self, spill_dir):
        with no_leftovers():
            _same_outcome_split(spill_dir)

    def test_a_worker_error_is_raised_here(self, spill_dir):
        with no_leftovers(), forced(3) as forks:
            with pytest.raises(ValueError, match="a worker's fold failed"):
                fold_log(LogReader(spill_dir), *_folds(), FailsInAWorker())
        assert len(forks) == 2

    def test_an_interrupt_here_stops_the_workers(self, spill_dir):
        with no_leftovers(), forced(3) as forks:
            with pytest.raises(KeyboardInterrupt):
                fold_log(LogReader(spill_dir), *_folds(), InterruptedHere())
        assert len(forks) == 2

    @pytest.mark.parametrize("when", ["at fork", "while sending"])
    def test_a_killed_worker_fails_the_pass(self, spill_dir, when):
        real_fork = os.fork

        def fork_and_kill():
            pid = real_fork()
            if pid and when == "at fork":
                os.kill(pid, signal.SIGKILL)
            return pid

        folds = _folds()
        if when == "while sending":
            folds.insert(1, DiesWhenSent())
        with no_leftovers(), forced(3), pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "fork", fork_and_kill)
            with pytest.raises(RuntimeError,
                               match=r"exited without its result"):
                fold_log(LogReader(spill_dir), *folds)


class TestDamagedSpillDirectorySplit(sink_tests.TestDamagedSpillDirectory):
    """Every damaged directory of the sink tests, folded split at 2, 3 and
    5 ranges, raises what the single pass raises."""

    def _assert_names_chunk(self, server, chunk):
        # fold_log decodes what iter_entries() only splits, so a line cut
        # mid-way may fail in the decoder first: the error is the pass's
        kind, _message = _same_outcome_split(server.sink.directory)
        assert kind is ValueError
        super()._assert_names_chunk(server, chunk)

    def test_healthy_chunks_before_the_damage_still_stream(self, tmp_path):
        super().test_healthy_chunks_before_the_damage_still_stream(tmp_path)
        _same_outcome_split(tmp_path / "log")

    def test_kill_between_chunk_fsync_and_manifest_replace(self, tmp_path):
        super().test_kill_between_chunk_fsync_and_manifest_replace(tmp_path)
        _same_outcome_split(tmp_path / "log")


class TestDamagedSpillThroughReportsSplit(
        failure_tests.TestDamagedSpillThroughReports):
    """... and so does every damaged directory of the failure-injection
    tests (or, undamaged, gives the single pass's results)."""

    @staticmethod
    def _both_ways(directory):
        _same_outcome_split(directory)
        return failure_tests.TestDamagedSpillThroughReports._both_ways(
            directory)
