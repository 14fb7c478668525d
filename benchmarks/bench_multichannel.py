"""Multi-channel benchmark: the Fig. 5a partial-collapse mechanism.

The measured audience drop at ~22:00 came from "the ending of *some*
programs" -- i.e. it was a per-channel event visible in the platform
total.  This bench runs three channels with a zapping audience, ends one
program mid-run, and asserts the platform curve shows a partial (not
total) collapse while the surviving channels keep their audiences.
"""

import numpy as np

from repro.analysis import SessionTableFold, fold_log
from repro.core.config import SystemConfig
from repro.core.multichannel import MultiChannelDeployment
from repro.telemetry.reports import LeaveReason
from repro.workload.surfing import ChannelAudience


def test_partial_collapse_at_program_end(benchmark):
    def run():
        horizon = 700.0
        cfg = SystemConfig(n_servers=2)
        deployment = MultiChannelDeployment(3, cfg, seed=11)
        rng = np.random.default_rng(3)
        times = np.sort(rng.uniform(0.0, 0.3 * horizon, 120))
        audience = ChannelAudience(
            deployment, arrival_times=times,
            popularity_skew=0.8, zap_probability=0.2, zap_after_s=90.0,
        )
        before = {}
        after = {}

        def snapshot(store):
            store.update({
                "by_channel": list(deployment.audience_by_channel()),
                "total": deployment.concurrent_users,
            })

        def end_program():
            for peer in deployment.channel(1).peers():
                peer.leave(LeaveReason.PROGRAM_END)

        deployment.engine.schedule_at(0.6 * horizon - 1.0,
                                      lambda: snapshot(before))
        deployment.engine.schedule_at(0.6 * horizon, end_program)
        deployment.engine.schedule_at(0.6 * horizon + 30.0,
                                      lambda: snapshot(after))
        deployment.run(until=horizon)
        return deployment, audience, before, after

    deployment, audience, before, after = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    print()
    print("audience before ending:", before["by_channel"],
          "total", before["total"])
    print("audience after ending: ", after["by_channel"],
          "total", after["total"])
    print("zaps:", audience.zap_count)

    # the ended channel lost its audience...
    assert after["by_channel"][1] <= 0.2 * max(1, before["by_channel"][1])
    # ...the others kept most of theirs (partial collapse, as in Fig. 5a)
    assert after["by_channel"][0] >= 0.7 * before["by_channel"][0]
    assert after["total"] >= 0.4 * before["total"]
    # the platform log still analyses coherently
    (table,) = fold_log(deployment.merged_log(), SessionTableFold())
    assert len(table) >= 120
