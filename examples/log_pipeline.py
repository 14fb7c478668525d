#!/usr/bin/env python
"""The measurement pipeline end to end: run, dump, reload, analyse.

Demonstrates that the analysis toolkit works from a *log file* alone --
run a system, dump the log server's contents to disk in the deployed
``<arrival> /log?name=value&...`` line format, reload it in a fresh
process-like state, and reproduce the session and QoS statistics.

Run:  python examples/log_pipeline.py
"""

import tempfile
from pathlib import Path

from repro import CoolstreamingSystem, SystemConfig
from repro.analysis import (
    ClassifyUsersFold,
    ContinuitySamplesFold,
    SessionTableFold,
    fold_log,
    mean_continuity,
    type_distribution,
)
from repro.telemetry.server import LogServer


def main() -> None:
    system = CoolstreamingSystem(SystemConfig(n_servers=2), seed=1)
    for user in range(40):
        system.engine.schedule(
            user * 1.5, lambda u=user: system.spawn_peer(user_id=u)
        )
    system.run(until=700.0)

    with tempfile.TemporaryDirectory() as tmp:
        log_path = Path(tmp) / "event.log"
        with open(log_path, "w") as fp:
            lines = system.log.dump(fp)
        size = log_path.stat().st_size
        print(f"dumped {lines} log strings ({size / 1024:.1f} KiB) "
              f"to {log_path.name}")
        print("sample lines:")
        for line in log_path.read_text().splitlines()[:3]:
            print("   ", line)

        with open(log_path) as fp:
            reloaded = LogServer.load(fp)

    assert len(reloaded) == len(system.log)
    table, samples, types = fold_log(
        reloaded, SessionTableFold(), ContinuitySamplesFold(),
        ClassifyUsersFold(),
    )
    print(f"\nreconstructed {len(table)} sessions "
          f"({len(table.normal_sessions())} normal)")
    print(f"mean continuity (from reloaded log): "
          f"{mean_continuity(samples, after=300.0):.4f}")
    dist = type_distribution(types)
    print("user types:",
          {k.value: f"{v * 100:.0f}%" for k, v in dist.items() if v > 0})


if __name__ == "__main__":
    main()
