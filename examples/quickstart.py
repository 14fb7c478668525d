#!/usr/bin/env python
"""Quickstart: run a small Coolstreaming system and read its telemetry.

Builds a 2-server deployment, lets 30 users join over a minute, streams
for five simulated minutes, then answers the three questions the paper's
measurement pipeline answers: how fast did players get ready, how good
was playback, and who did the uploading.

Run:  python examples/quickstart.py
"""

from repro import CoolstreamingSystem, SystemConfig
from repro.analysis import (
    Cdf,
    ClassifyUsersFold,
    SessionTableFold,
    UploadTotalsFold,
    contribution_by_type,
    contributor_class_share,
    fold_log,
)

def main() -> None:
    cfg = SystemConfig(n_servers=2)
    system = CoolstreamingSystem(cfg, seed=42)

    # 30 users join over the first 60 seconds
    for user in range(30):
        system.engine.schedule(
            user * 2.0, lambda u=user: system.spawn_peer(user_id=u)
        )

    system.run(until=360.0)

    print("--- simulator view ---")
    for key, value in system.summary().items():
        print(f"  {key:>18s} : {value:,.2f}")

    # Everything below uses only the log server, like the paper did:
    # one pass over the log feeds every statistic.
    table, types, totals = fold_log(
        system.log, SessionTableFold(), ClassifyUsersFold(), UploadTotalsFold()
    )
    ready = table.ready_delays()
    print("\n--- from the log server ---")
    print(f"  sessions reconstructed : {len(table)}")
    if ready:
        cdf = Cdf.from_samples(ready)
        print(f"  media-player-ready time: median {cdf.median:.1f} s, "
              f"p90 {cdf.quantile(0.9):.1f} s")
    pop, up = contributor_class_share(contribution_by_type(types, totals))
    print(f"  contributor-class peers: {pop * 100:.0f}% of users, "
          f"{up * 100:.0f}% of uploaded bytes")
    print("\nfirst log line:")
    print(" ", system.log.entries()[0].to_line())


if __name__ == "__main__":
    main()
