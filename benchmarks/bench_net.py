"""Net-backend benchmark: a real 16-node localhost deployment.

Deploys the socket backend's full stack -- coordinator, dedicated
servers, user peers exchanging length-prefixed frames over TCP -- on a
small audience, and records the deployment-scale figures: nodes, blocks
delivered, control-plane message throughput, and the mean continuity
against a detailed-engine reference run of the *same* workload
realization (the parity harness's comparison, reduced to one number).

Key figures are written to ``benchmarks/BENCH_net.json`` so CI and
regression tooling can diff them across revisions.
"""

import json
import os
import platform
from pathlib import Path
from time import perf_counter

import pytest

from repro.core.config import SystemConfig
from repro.net.backend import NetBackend
from repro.net.config import NetConfig
from repro.runtime import run_scenario, sample_workload
from repro.workload.scenarios import uniform_ramp

BENCH_JSON = Path(__file__).resolve().parent / "BENCH_net.json"

SEED = 0
HORIZON_S = 240.0
N_USERS = 14          # + 2 servers = 16 nodes
TIME_SCALE = 40.0     # 240 virtual seconds in ~6s of wall time

_RESULTS = {}


@pytest.fixture(scope="module", autouse=True)
def _emit_bench_json():
    yield
    if _RESULTS:
        payload = {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "results": dict(sorted(_RESULTS.items())),
        }
        BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")


def _scenario():
    cfg = SystemConfig().with_overrides(status_report_period_s=30.0)
    return uniform_ramp(n_users=N_USERS, horizon_s=HORIZON_S,
                        n_servers=2, cfg=cfg)


def _blocks_delivered(sessions) -> int:
    """Contiguously received blocks summed over every user session."""
    total = 0
    for peer in sessions:
        if peer.start_index is None:
            continue
        total += sum(h - peer.start_index + 1 for h in peer.heads)
    return total


def _run_net(scenario):
    """Run the deployment; return the backend and every user session it
    spawned (a departed peer is gone from the registry, so a spawn hook
    keeps the sessions for the blocks count)."""
    backend = NetBackend(scenario, seed=SEED,
                         net=NetConfig(time_scale=TIME_SCALE))
    workload = sample_workload(scenario, SEED)
    backend.apply_workload(workload.times, workload.durations)
    for time_s, prob in workload.endings:
        backend.add_program_ending(time_s, prob)
    sessions = []
    spawn_peer = backend.system.spawn_peer

    def recording_spawn(**kwargs):
        node = spawn_peer(**kwargs)
        sessions.append(node)
        return node

    backend.system.spawn_peer = recording_spawn
    backend.run(scenario.horizon_s)
    return backend, sessions


def test_net_deployment_throughput(benchmark):
    """16-node localhost deployment: blocks, messages/s, continuity."""
    scenario = _scenario()
    t0 = perf_counter()
    backend, sessions = benchmark.pedantic(_run_net, args=(scenario,),
                                           rounds=1, iterations=1)
    wall = perf_counter() - t0
    metrics = backend.snapshot_metrics()
    messages = int(metrics["net.messages_sent"])
    blocks = _blocks_delivered(sessions)
    assert messages > 0
    assert blocks > 0
    assert metrics["net.frames_rejected"] == 0

    # detailed reference on the byte-identical workload realization
    detailed = run_scenario(scenario, seed=SEED, engine="detailed")
    ref_continuity = detailed.metrics()["mean_continuity"]
    net_continuity = metrics["mean_continuity"]

    _RESULTS["peers"] = N_USERS + 2
    _RESULTS["horizon_virtual_s"] = HORIZON_S
    _RESULTS["wall_s"] = round(wall, 3)
    _RESULTS["blocks_delivered"] = blocks
    _RESULTS["messages_total"] = messages
    _RESULTS["messages_per_s"] = round(messages / wall, 1)
    _RESULTS["bytes_sent"] = int(metrics["net.bytes_sent"])
    _RESULTS["mean_continuity_net"] = round(net_continuity, 4)
    _RESULTS["mean_continuity_detailed"] = round(ref_continuity, 4)
    _RESULTS["continuity_gap"] = round(abs(net_continuity - ref_continuity), 4)
    print(f"\n[bench_net] {N_USERS + 2} nodes, {blocks} blocks, "
          f"{messages} messages in {wall:.2f}s "
          f"({messages / wall:,.0f} msg/s); continuity net "
          f"{net_continuity:.4f} vs detailed {ref_continuity:.4f}")
