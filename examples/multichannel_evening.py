#!/usr/bin/env python
"""A multi-program evening: three channels, one audience.

The measured service broadcast several programs; viewers picked one on a
web page and the Fig. 5a audience drop at ~22:00 came from "the ending of
some programs".  This example runs three channels with Zipf-skewed
popularity, a zapping audience, and staggered program endings -- the
platform-wide audience curve shows the partial collapse at each ending
while the surviving channels keep their viewers.

Run:  python examples/multichannel_evening.py
"""

import numpy as np

from repro.analysis import SessionTableFold, fold_log
from repro.core.config import SystemConfig
from repro.core.multichannel import MultiChannelDeployment
from repro.experiments.render import render_series
from repro.telemetry.reports import LeaveReason
from repro.workload.surfing import ChannelAudience


def main() -> None:
    horizon = 900.0
    cfg = SystemConfig(n_servers=2)
    deployment = MultiChannelDeployment(3, cfg, seed=11)

    rng = np.random.default_rng(3)
    times = np.sort(rng.uniform(0.0, 0.3 * horizon, 150))
    audience = ChannelAudience(
        deployment, arrival_times=times,
        popularity_skew=1.0, zap_probability=0.25, zap_after_s=90.0,
    )

    # programs end at staggered times; their watchers leave
    def end_program(channel_idx: int) -> None:
        for peer in deployment.channel(channel_idx).peers():
            peer.leave(LeaveReason.PROGRAM_END)

    deployment.engine.schedule_at(0.6 * horizon, lambda: end_program(2))
    deployment.engine.schedule_at(0.8 * horizon, lambda: end_program(1))

    # sample the platform audience as the evening unfolds
    samples = []

    def sample() -> None:
        samples.append((deployment.engine.now,
                        list(deployment.audience_by_channel())))

    for t in np.arange(30.0, horizon, 30.0):
        deployment.engine.schedule_at(float(t), sample)

    print(f"running 3 channels, {len(times)} viewers, {horizon:.0f} s ...")
    deployment.run(until=horizon)

    ts = [s[0] for s in samples]
    for ch in range(3):
        series = [s[1][ch] for s in samples]
        print(render_series(f"channel {ch} viewers", ts, series, fmt="%.0f"))
    total = [sum(s[1]) for s in samples]
    print(render_series("platform total", ts, total, fmt="%.0f"))

    (table,) = fold_log(deployment.merged_log(), SessionTableFold())
    print()
    print(f"  platform sessions : {len(table)} from {len(times)} viewers")
    print(f"  zaps              : {audience.zap_count}")
    print(f"  audience at end   : {deployment.audience_by_channel()}"
          f"  (programs 1 and 2 ended)")


if __name__ == "__main__":
    main()
