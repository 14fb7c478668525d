"""Tests for ``python -m repro profile`` (the cProfile hot-spot runner)."""

import cProfile
import json
import pstats

import pytest

from repro.experiments.cli import main as repro_main
from repro.experiments.profile import hotspot_table


def _stats_of(fn):
    prof = cProfile.Profile()
    prof.enable()
    fn()
    prof.disable()
    return pstats.Stats(prof)


class TestHotspotTable:
    def test_formats_rows_and_total(self):
        stats = _stats_of(lambda: sum(i * i for i in range(1000)))
        table = hotspot_table(stats, top=5)
        lines = table.splitlines()
        assert "ncalls" in lines[0] and "callsite" in lines[0]
        assert "total internal time" in lines[-1]
        assert len(lines) <= 5 + 2  # header + top rows + footer

    def test_sort_keys(self):
        stats = _stats_of(lambda: [str(i) for i in range(100)])
        for sort in ("tottime", "cumtime", "ncalls"):
            assert "callsite" in hotspot_table(stats, sort=sort)

    def test_bad_sort_rejected(self):
        stats = _stats_of(lambda: None)
        with pytest.raises(ValueError):
            hotspot_table(stats, sort="percall")


class TestProfileCli:
    def test_unknown_experiment_is_usage_error(self, capsys):
        assert repro_main(["profile", "not-an-experiment"]) == 2
        capsys.readouterr()

    def test_profiles_experiment_and_writes_trace(self, tmp_path, capsys):
        trace = tmp_path / "model.trace.json"
        stats = tmp_path / "model.pstats"
        rc = repro_main(["profile", "model", "--quiet", "--top", "5",
                         "--trace-out", str(trace),
                         "--stats-out", str(stats)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "callsite" in out
        assert "chrome trace written" in out
        payload = json.loads(trace.read_text())
        assert "traceEvents" in payload  # loadable by chrome://tracing
        pstats.Stats(str(stats))  # raw dump round-trips
