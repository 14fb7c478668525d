"""Seed-determinism regression tests for the observability layer.

Two properties are load-bearing:

1. instrumentation must not perturb the simulation -- a run inside an
   obs session produces bit-identical outcomes to the same run outside;
2. the deterministic metric subset (counters) is itself reproducible --
   two observed runs with the same seed yield identical counter values.

Wall-clock measurements (timers, histograms, trace spans) are exempt by
design; :meth:`MetricsRegistry.counter_values` carves out the subset
these tests compare.
"""

import json

import numpy as np
import pytest

import repro.obs as obs
from repro.core.config import SystemConfig
from repro.core.system import CoolstreamingSystem
from repro.fastsim import FastSimulation


@pytest.fixture(autouse=True)
def _no_leaked_session():
    assert obs.current() is None
    yield
    from repro.obs import context as obs_context
    obs_context.deactivate()


def _reference_run(seed):
    cfg = SystemConfig(n_servers=2)
    system = CoolstreamingSystem(cfg, seed=seed)
    for u in range(15):
        system.engine.schedule(u * 2.0, lambda u=u: system.spawn_peer(user_id=u))
    system.run(until=150.0)
    outcome = system.summary()
    outcome["events"] = system.engine.events_processed
    outcome["log"] = system.log.dumps()
    return outcome


def _session(tier, tmp_path):
    """A metrics-only session, or one that also writes a Chrome trace."""
    if tier == "traced":
        return obs.session(trace_path=str(tmp_path / "trace.json"))
    return obs.session()


def _fastsim_run(seed):
    cfg = SystemConfig(n_servers=2)
    sim = FastSimulation(cfg, seed=seed, capacity_hint=256)
    sim.add_arrivals(np.linspace(0.0, 30.0, 100), np.full(100, 200.0))
    sim.run(until=120.0)
    return {
        "steps": sim.steps_run,
        "playing": sim.playing_users,
        "continuity": sim.mean_continuity(),
        "live": sim.concurrent_users,
    }


class TestObsDoesNotPerturb:
    @pytest.mark.parametrize("tier", ["metrics", "traced"])
    def test_reference_engine_identical_with_and_without_obs(self, tier,
                                                              tmp_path):
        plain = _reference_run(seed=11)
        with _session(tier, tmp_path):
            observed = _reference_run(seed=11)
        assert observed == plain

    def test_fastsim_identical_with_and_without_obs(self):
        plain = _fastsim_run(seed=11)
        with obs.session():
            observed = _fastsim_run(seed=11)
        assert observed == plain


class TestTracedTier:
    """A tracing session times every event and emits one span for each;
    its counters are exactly those of a metrics-only session."""

    def test_traced_and_metrics_only_counters_equal(self, tmp_path):
        values = {}
        for tier in ("metrics", "traced"):
            with _session(tier, tmp_path) as ctx:
                _reference_run(seed=4)
                values[tier] = ctx.registry.counter_values()
        assert values["traced"]["engine.events_executed"] > 0
        assert values["traced"] == values["metrics"]

    def test_one_engine_span_per_event(self, tmp_path):
        with _session("traced", tmp_path) as ctx:
            outcome = _reference_run(seed=4)
            executed = ctx.registry.counter_values()["engine.events_executed"]
        trace = json.loads((tmp_path / "trace.json").read_text())
        assert trace["otherData"]["dropped_events"] == 0
        spans = [e for e in trace["traceEvents"]
                 if e["ph"] == "X" and e["cat"] == "engine"]
        assert len(spans) == executed == outcome["events"]


class TestCountersAreDeterministic:
    def test_reference_engine_same_seed_same_counters(self):
        with obs.session() as ctx:
            _reference_run(seed=4)
            first = ctx.registry.counter_values()
        with obs.session() as ctx:
            _reference_run(seed=4)
            second = ctx.registry.counter_values()
        assert first  # the run actually recorded protocol counters
        assert "core.partnerships_formed" in first
        assert "engine.events_executed" in first
        assert first == second

    def test_reference_engine_seed_changes_counters(self):
        with obs.session() as ctx:
            _reference_run(seed=4)
            a = ctx.registry.counter_values()
        with obs.session() as ctx:
            _reference_run(seed=5)
            b = ctx.registry.counter_values()
        assert a != b

    def test_fastsim_same_seed_same_counters(self):
        with obs.session() as ctx:
            _fastsim_run(seed=4)
            first = ctx.registry.counter_values()
        with obs.session() as ctx:
            _fastsim_run(seed=4)
            second = ctx.registry.counter_values()
        assert "fastsim.steps" in first
        assert "fastsim.joins" in first
        assert first == second
