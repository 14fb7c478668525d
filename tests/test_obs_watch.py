"""The live metrics-feed viewer (``python -m repro watch``)."""

from __future__ import annotations

import io
import json
import threading
import time
from pathlib import Path

from repro.experiments.cli import main as repro_main
from repro.obs.watch import (
    Snapshot,
    follow_feed,
    iter_feed,
    render_snapshot,
    watch_once,
)


def _line(t_wall, t_sim, metrics) -> str:
    return json.dumps({"t_wall": t_wall, "t_sim": t_sim,
                       "metrics": metrics}) + "\n"


RUN_METRICS = {"engine.events_executed": 12_000, "run.live_peers": 77,
               "run.mean_continuity": 0.95, "run.peak_rss_mb": 120.0}
CAMPAIGN_METRICS = {"campaign.runs_total": 8, "campaign.runs_done": 3,
                    "campaign.runs_failed": 1, "campaign.runs_cached": 2,
                    "campaign.runs_in_flight": 2, "run.peak_rss_mb": 64.0}


class TestRendering:
    def test_run_snapshot_totals(self):
        snap = Snapshot.from_line(_line(10.0, 300.0, RUN_METRICS))
        text = render_snapshot(snap)
        assert "sim=300.0s" in text
        assert "events=12 000" in text
        assert "peers=77" in text
        assert "continuity=0.950" in text
        assert "rss=120MB" in text
        assert "finished" not in text

    def test_run_snapshot_rate_from_previous(self):
        prev = Snapshot.from_line(_line(10.0, 300.0,
                                        {"engine.events_executed": 2_000}))
        snap = Snapshot.from_line(_line(12.0, 330.0, RUN_METRICS))
        assert "events/s=5 000" in render_snapshot(snap, prev)

    def test_fastsim_feed_uses_steps(self):
        snap = Snapshot.from_line(_line(10.0, 60.0, {"fastsim.steps": 240}))
        assert "steps=240" in render_snapshot(snap)

    def test_campaign_snapshot(self):
        snap = Snapshot.from_line(_line(10.0, None, CAMPAIGN_METRICS))
        text = render_snapshot(snap)
        assert "campaign 3/8 done" in text
        assert "(1 failed, 2 cached, 2 running)" in text
        assert snap.is_final and "finished" in text

    def test_unrecognised_metrics_still_render(self):
        # a metric-free final snapshot still produces a line
        snap = Snapshot.from_line(_line(1.0, None, {"something.else": 1}))
        assert render_snapshot(snap) == "[watch] (run finished)"


class TestOnce:
    def test_renders_latest_snapshot(self, tmp_path):
        feed = tmp_path / "m.jsonl"
        feed.write_text(
            _line(10.0, 100.0, {"engine.events_executed": 1_000})
            + _line(12.0, 200.0, RUN_METRICS))
        out = io.StringIO()
        assert watch_once(feed, stream=out) == 0
        text = out.getvalue()
        assert "sim=200.0s" in text
        assert "events/s=5 500" in text  # (12000-1000)/(12-10)

    def test_empty_feed_is_an_error(self, tmp_path):
        feed = tmp_path / "m.jsonl"
        feed.write_text("")
        assert watch_once(feed, stream=io.StringIO()) == 1

    def test_malformed_lines_skipped(self, tmp_path):
        feed = tmp_path / "m.jsonl"
        feed.write_text("not json\n" + _line(1.0, 50.0, RUN_METRICS)
                        + "{\"truncated\": ")
        assert [s.t_sim for s in iter_feed(feed)] == [50.0]
        assert watch_once(feed, stream=io.StringIO()) == 0


class TestFollow:
    def test_follows_until_final_snapshot(self, tmp_path):
        feed = tmp_path / "m.jsonl"
        feed.write_text(_line(1.0, 10.0, RUN_METRICS))

        def appender():
            time.sleep(0.05)
            with open(feed, "a") as fh:
                fh.write(_line(2.0, 20.0, RUN_METRICS))
                fh.write(_line(3.0, None, RUN_METRICS))

        t = threading.Thread(target=appender)
        t.start()
        out = io.StringIO()
        rc = follow_feed(feed, interval_s=0.02, timeout_s=5.0, stream=out)
        t.join()
        assert rc == 0
        lines = out.getvalue().strip().splitlines()
        assert len(lines) == 3
        assert "finished" in lines[-1]

    def test_missing_feed_times_out(self, tmp_path):
        rc = follow_feed(tmp_path / "never.jsonl", interval_s=0.01,
                         timeout_s=0.05, stream=io.StringIO())
        assert rc == 1

    def test_stalled_feed_times_out(self, tmp_path):
        feed = tmp_path / "m.jsonl"
        feed.write_text(_line(1.0, 10.0, RUN_METRICS))  # never finalised
        rc = follow_feed(feed, interval_s=0.01, timeout_s=0.05,
                         stream=io.StringIO())
        assert rc == 1

    def test_partial_line_not_consumed_early(self, tmp_path):
        feed = tmp_path / "m.jsonl"
        full = _line(2.0, None, RUN_METRICS)
        feed.write_text(full[: len(full) // 2])

        def complete():
            time.sleep(0.05)
            with open(feed, "a") as fh:
                fh.write(full[len(full) // 2:])

        t = threading.Thread(target=complete)
        t.start()
        out = io.StringIO()
        rc = follow_feed(feed, interval_s=0.02, timeout_s=5.0, stream=out)
        t.join()
        assert rc == 0
        assert out.getvalue().count("[watch]") == 1


class TestCli:
    def test_once_exit_codes(self, tmp_path, capsys):
        feed = tmp_path / "m.jsonl"
        feed.write_text(_line(5.0, 42.0, RUN_METRICS))
        assert repro_main(["watch", str(feed), "--once"]) == 0
        assert "sim=42.0s" in capsys.readouterr().out

    def test_usage_errors_exit_2(self, tmp_path):
        assert repro_main(["watch", str(tmp_path / "m.jsonl"),
                           "--interval", "0"]) == 2
        assert repro_main(["watch"]) == 2  # argparse: missing feed

    def test_missing_feed_exits_1(self, tmp_path):
        assert repro_main(["watch", str(tmp_path / "m.jsonl"),
                           "--once"]) == 1
        assert repro_main(["watch", str(tmp_path / "m.jsonl"),
                           "--timeout", "0.05", "--interval", "0.01"]) == 1

    def test_repro_cli_dispatch(self, tmp_path, capsys):
        feed = tmp_path / "m.jsonl"
        feed.write_text(_line(5.0, 42.0, RUN_METRICS))
        assert repro_main(["watch", str(feed), "--once"]) == 0
        assert "sim=42.0s" in capsys.readouterr().out

    def test_listed_in_repro_list(self, capsys):
        assert repro_main(["list"]) == 0
        assert "watch" in capsys.readouterr().out.split()


class TestEndToEnd:
    def test_real_run_feed_renders(self, tmp_path, capsys):
        """A real observed run produces a feed the watcher understands."""
        feed = tmp_path / "m.jsonl"
        assert repro_main(["model", "--quiet",
                           "--metrics-out", str(feed)]) == 0
        assert repro_main(["watch", str(feed), "--once"]) == 0
        out = capsys.readouterr().out
        assert "[watch]" in out
        assert "rss=" in out
        assert "finished" in out

    def test_final_snapshot_samples_gauge_providers(self, tmp_path):
        """run.live_peers / run.peak_rss_mb reach the feed via providers."""
        import repro.obs as obs
        from repro.core.config import SystemConfig
        from repro.core.system import CoolstreamingSystem

        feed = tmp_path / "m.jsonl"
        with obs.session(metrics_path=str(feed)):
            system = CoolstreamingSystem(
                SystemConfig(n_servers=2, server_max_partners=16), seed=5)
            for u in range(4):
                system.engine.schedule(
                    u * 2.0, lambda u=u: system.spawn_peer(user_id=u))
            system.run(until=120.0)
        last = json.loads(Path(feed).read_text().strip().splitlines()[-1])
        assert last["metrics"]["run.live_peers"] >= 1
        assert last["metrics"]["run.peak_rss_mb"] > 0
