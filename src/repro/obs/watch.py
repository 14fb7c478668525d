"""Live view over an obs metrics JSONL feed.

``python -m repro watch RUN.jsonl`` tails the snapshot stream that
``--metrics-out`` (or a campaign heartbeat) appends to and renders one
status line per snapshot::

    [watch] sim=1180.0s events/s=61432 peers=842 continuity=0.97 rss=312MB

The feed is the only coupling: the watcher holds no reference to the
running process, so it works across processes, over NFS, and on feeds
from runs that already finished.  Campaign feeds are recognised by their
``campaign.runs_total`` gauge and render scheduler progress instead::

    [watch] campaign 37/120 done (2 failed, 14 cached, 4 running) rss=98MB

Exit codes: 0 feed completed (final snapshot seen) or ``--once``
rendered, 1 unreadable feed / run never appeared (README, "Command
line").
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["Snapshot", "render_snapshot", "iter_feed", "follow_feed",
           "watch_once", "cmd_watch"]

# counters whose per-second rate is the headline number, in preference
# order (detailed engine first, then the fluid engine's step counter)
_WORK_COUNTERS: Tuple[Tuple[str, str], ...] = (
    ("engine.events_executed", "events"),
    ("fastsim.steps", "steps"),
)


class Snapshot:
    """One parsed feed line plus the rate context of the previous one."""

    __slots__ = ("t_wall", "t_sim", "metrics")

    def __init__(self, t_wall: float, t_sim: Optional[float],
                 metrics: Dict[str, object]) -> None:
        self.t_wall = t_wall
        self.t_sim = t_sim
        self.metrics = metrics

    @classmethod
    def from_line(cls, line: str) -> "Snapshot":
        data = json.loads(line)
        return cls(float(data["t_wall"]), data.get("t_sim"),
                   data.get("metrics") or {})

    @property
    def is_final(self) -> bool:
        """The session-exit snapshot carries a null ``t_sim``."""
        return self.t_sim is None

    @property
    def is_campaign(self) -> bool:
        return "campaign.runs_total" in self.metrics


def _fmt_count(value: float) -> str:
    return f"{value:,.0f}".replace(",", " ")


def render_snapshot(snap: Snapshot, prev: Optional[Snapshot] = None) -> str:
    """One human-readable status line for ``snap``.

    ``prev`` (the previous snapshot, if any) supplies the baseline for
    the work-rate figure; without it the line shows cumulative totals.
    """
    m = snap.metrics
    parts: List[str] = []
    if snap.is_campaign:
        total = int(m.get("campaign.runs_total", 0) or 0)
        done = int(m.get("campaign.runs_done", 0) or 0)
        failed = int(m.get("campaign.runs_failed", 0) or 0)
        cached = int(m.get("campaign.runs_cached", 0) or 0)
        running = int(m.get("campaign.runs_in_flight", 0) or 0)
        parts.append(f"campaign {done}/{total} done "
                     f"({failed} failed, {cached} cached, {running} running)")
    else:
        if snap.t_sim is not None:
            parts.append(f"sim={snap.t_sim:.1f}s")
        for counter, unit in _WORK_COUNTERS:
            value = m.get(counter)
            if not isinstance(value, (int, float)):
                continue
            if prev is not None and snap.t_wall > prev.t_wall:
                prev_value = prev.metrics.get(counter)
                if isinstance(prev_value, (int, float)):
                    rate = (value - prev_value) / (snap.t_wall - prev.t_wall)
                    parts.append(f"{unit}/s={_fmt_count(rate)}")
                    break
            parts.append(f"{unit}={_fmt_count(value)}")
            break
        peers = m.get("run.live_peers")
        if isinstance(peers, (int, float)):
            parts.append(f"peers={int(peers)}")
        continuity = m.get("run.mean_continuity")
        if isinstance(continuity, (int, float)):
            parts.append(f"continuity={continuity:.3f}")
    rss = m.get("run.peak_rss_mb")
    if isinstance(rss, (int, float)):
        parts.append(f"rss={rss:.0f}MB")
    if snap.is_final:
        parts.append("(run finished)")
    if not parts:
        parts.append("(no recognised metrics yet)")
    return "[watch] " + " ".join(parts)


def iter_feed(path: Path) -> Iterator[Snapshot]:
    """Parse every complete snapshot line currently in the feed.

    Malformed or truncated lines (a writer may be mid-append) are
    skipped, never fatal.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                yield Snapshot.from_line(line)
            except (ValueError, KeyError, TypeError):
                continue


def follow_feed(
    path: Path,
    *,
    interval_s: float = 1.0,
    timeout_s: Optional[float] = None,
    stream=None,
    _sleep=time.sleep,
) -> int:
    """Tail ``path``, rendering each new snapshot until the final one.

    Waits up to ``timeout_s`` for the feed file to appear (a watcher is
    typically started moments before or after the run), then for new
    lines, polling every ``interval_s``.  Returns an exit code.
    """
    out = stream if stream is not None else sys.stdout
    t0 = time.monotonic()  # repro: noqa[DET002] watcher pacing, not simulation state
    while not path.exists():
        if timeout_s is not None and time.monotonic() - t0 >= timeout_s:  # repro: noqa[DET002] watcher pacing
            print(f"error: watch: {path} never appeared", file=sys.stderr)
            return 1
        _sleep(min(interval_s, 0.2))

    prev: Optional[Snapshot] = None
    offset = 0
    stalled_since: Optional[float] = None
    with open(path, "r", encoding="utf-8") as fh:
        while True:
            fh.seek(offset)
            chunk = fh.read()
            progressed = False
            # only consume lines the writer has finished (newline-terminated)
            while "\n" in chunk:
                line, chunk = chunk.split("\n", 1)
                offset += len(line.encode("utf-8")) + 1
                line = line.strip()
                if not line:
                    continue
                try:
                    snap = Snapshot.from_line(line)
                except (ValueError, KeyError, TypeError):
                    continue
                progressed = True
                out.write(render_snapshot(snap, prev) + "\n")
                out.flush()
                prev = snap
                if snap.is_final:
                    return 0
            now = time.monotonic()  # repro: noqa[DET002] watcher pacing, not simulation state
            if progressed:
                stalled_since = None
            elif stalled_since is None:
                stalled_since = now
            elif timeout_s is not None and now - stalled_since >= timeout_s:
                print(f"error: watch: {path} stalled for {timeout_s:.0f}s "
                      "without a final snapshot", file=sys.stderr)
                return 1
            _sleep(interval_s)


def watch_once(path: Path, *, stream=None) -> int:
    """Render the latest snapshot currently in the feed and return 0."""
    out = stream if stream is not None else sys.stdout
    prev: Optional[Snapshot] = None
    last: Optional[Snapshot] = None
    for snap in iter_feed(path):
        prev, last = last, snap
    if last is None:
        print(f"error: watch: no snapshots in {path}", file=sys.stderr)
        return 1
    out.write(render_snapshot(last, prev) + "\n")
    out.flush()
    return 0


def cmd_watch(args) -> int:
    """The ``watch`` handler (options in :mod:`repro.experiments.cli`)."""
    if not args.interval > 0:
        print("error: watch: --interval must be positive", file=sys.stderr)
        return 2
    path = Path(args.feed)
    if args.once:
        return watch_once(path)
    return follow_feed(path, interval_s=args.interval,
                       timeout_s=args.timeout)
