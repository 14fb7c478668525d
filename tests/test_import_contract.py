"""The import contract: a process loads numpy, the layer it asked for and
what that layer calls -- nothing else (DESIGN.md, "What a process pays
before its first event").

Every case runs in a fresh interpreter, because inside the test session
everything is already imported.  Only module *sets* are asserted; resident
size and import time belong to ``benchmarks/perf``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# never needed to import a layer or to build and run a deterministic engine
HEAVY = ("networkx", "scipy", "asyncio", "repro.net", "repro.campaign",
         "repro.check")

BUILD = """
from repro.runtime import build_backend
from repro.workload.scenarios import steady_audience
scenario = steady_audience(rate_per_s=0.2, horizon_s=400.0, n_servers=1)
backend = build_backend(scenario, 0, {engine!r})
"""


def fresh(script: str):
    """Run ``script`` in a new interpreter; its last stdout line, as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout.splitlines()[-1])


def modules_after(script: str):
    return fresh(script + "\nimport json, sys; print(json.dumps(sorted(sys.modules)))")


def loaded(modules, name: str):
    return [m for m in modules if m == name or m.startswith(name + ".")]


@pytest.mark.parametrize("script, forbidden", [
    ("import repro.telemetry.sink", HEAVY),
    ("import repro.analysis", HEAVY),
    ("import repro.analysis.streaming", HEAVY),
    (BUILD.format(engine="detailed"), HEAVY + ("repro.fastsim",)),
], ids=["telemetry.sink", "analysis", "analysis.streaming", "build_detailed"])
def test_layers_load_nothing_they_do_not_call(script, forbidden):
    modules = modules_after(script)
    assert not [m for name in forbidden for m in loaded(modules, name)]


def test_fluid_engine_loads_when_it_is_built():
    assert loaded(modules_after(BUILD.format(engine="fast")), "repro.fastsim")


def test_networkx_loads_when_a_snapshot_is_taken():
    out = fresh("""
import json, sys
from repro.analysis import snapshot_overlay
from repro.core.config import SystemConfig
from repro.core.system import CoolstreamingSystem
system = CoolstreamingSystem(SystemConfig(n_servers=1), seed=7)
for user in range(12):
    system.engine.schedule(user * 2.0, lambda u=user: system.spawn_peer(user_id=u))
system.run(until=120.0)
before = "networkx" in sys.modules
snapshot = snapshot_overlay(system)
import networkx
print(json.dumps({
    "before": before,
    "after": "networkx" in sys.modules,
    "is_digraph": type(snapshot.graph) is networkx.DiGraph,
    "depths": sorted(snapshot.depth_distribution().items()),
}))
""")
    # the depth distribution is the one the eager import gave
    assert out == {"before": False, "after": True, "is_digraph": True,
                   "depths": [[2, 11], [3, 1]]}


@pytest.mark.parametrize("engine", ["detailed", "fast", "ode"])
def test_nothing_deferred_lands_in_the_timed_interval(engine):
    """After ``build_backend`` and the imports ``benchmarks/perf/child.py``
    makes, run -> flush -> fold -> hash imports nothing of ours, numpy's or
    any third party's; the standard library may still load its own."""
    out = fresh("""
import json, sys
import repro.obs as obs
from repro.analysis.streaming import (
    ClassifyUsersFold, ConcurrentUsersFold, ContinuitySamplesFold,
    JoinFunnelFold, PartnerEventsFold, SessionTableFold, UploadTotalsFold,
    fold_log)
from repro.telemetry.sink import LogReader, SpillSink, set_spill_root
""" + BUILD.format(engine=engine) + """
built = set(sys.modules)
backend.run(scenario.horizon_s)
backend.log.flush()
table, *rest = fold_log(
    backend.log, SessionTableFold(), ClassifyUsersFold(), UploadTotalsFold(),
    ContinuitySamplesFold(), PartnerEventsFold(),
    ConcurrentUsersFold(t1=scenario.horizon_s, step_s=2.0), JoinFunnelFold())
obs.stable_hash({"lines": len(backend.log), "sessions": len(table.sessions())})
print(json.dumps({"lines": len(backend.log),
                  "new": sorted(set(sys.modules) - built)}))
""")
    assert out["lines"] > 0
    assert not [m for m in out["new"]
                if m.partition(".")[0] not in sys.stdlib_module_names]


def test_a_figure_command_loads_no_other_subcommand():
    """``python -m repro table1`` builds the whole command tree but imports
    only the handler it dispatches to."""
    modules = modules_after("from repro.experiments.cli import main\n"
                            "assert main(['table1', '--quiet']) == 0")
    for name in ("repro.campaign", "repro.check", "repro.net", "asyncio",
                 "cProfile"):
        assert not loaded(modules, name), name
