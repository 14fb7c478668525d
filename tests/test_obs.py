"""Tests for the repro.obs instrumentation layer.

Covers the metrics registry, exporters, trace collector, run manifest,
the ambient-context guards (double session / double attach), and the
engine instrumentation itself.
"""

import json
import math

import pytest

import repro.obs as obs
from repro.obs import context as obs_context
from repro.obs.metrics import (
    NULL_REGISTRY,
    Histogram,
    MetricsRegistry,
    prometheus_name,
    render_prometheus,
)
from repro.obs.manifest import (
    RunManifest,
    config_fingerprint,
    manifest_path_for,
)
from repro.obs.trace import TraceCollector
from repro.obs.exporters import JsonlMetricsWriter, write_prometheus
from repro.core.config import SystemConfig
from repro.sim.engine import Engine


@pytest.fixture(autouse=True)
def _no_leaked_session():
    """Every test starts and ends with observability off."""
    assert obs.current() is None
    yield
    obs_context.deactivate()


class TestRegistry:
    def test_counter_get_or_create(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.counter("a").inc(4)
        assert reg.counter("a").value == 5
        assert len(reg) == 1

    def test_kind_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_gauge_set_and_max(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(10)
        g.max(3)
        assert g.value == 10
        g.max(12)
        assert g.value == 12

    def test_histogram_buckets_cumulative(self):
        h = Histogram("h", bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        assert h.count == 4
        assert h.cumulative_buckets() == [(1.0, 1), (2.0, 2), (4.0, 3)]
        assert h.total == pytest.approx(105.0)

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(2.0, 1.0))

    def test_histogram_mean_empty_is_nan(self):
        assert math.isnan(Histogram("h").mean)

    def test_timer_context_manager(self):
        reg = MetricsRegistry()
        with reg.timer("t"):
            pass
        assert reg.timer("t").count == 1

    def test_counter_values_excludes_wall_time(self):
        reg = MetricsRegistry()
        reg.counter("events").inc(7)
        reg.gauge("depth").set(3)
        reg.timer("wall").observe(0.25)
        assert reg.counter_values() == {"events": 7}

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.5)
        reg.timer("t").observe(0.02)
        snap = reg.snapshot()
        assert snap["c"] == 2
        assert snap["g"] == 1.5
        assert snap["t"]["count"] == 1
        json.dumps(snap)  # must be JSON-serialisable as-is

    def test_null_registry_accepts_everything(self):
        NULL_REGISTRY.counter("a").inc()
        NULL_REGISTRY.gauge("b").set(1)
        NULL_REGISTRY.timer("c").observe(0.1)
        assert len(NULL_REGISTRY) == 0
        assert NULL_REGISTRY.snapshot() == {}


class TestPrometheus:
    def test_name_sanitizing(self):
        assert prometheus_name("engine.events_executed") == \
            "repro_engine_events_executed"
        assert prometheus_name("9lives") == "repro__9lives"

    def test_render_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("events").inc(3)
        reg.gauge("depth").set(5)
        reg.timer("step").observe(0.002)
        text = render_prometheus(reg)
        assert "# TYPE repro_events counter" in text
        assert "repro_events 3" in text
        assert "repro_depth 5" in text
        assert 'repro_step_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_step_seconds_count 1" in text
        assert text.endswith("\n")

    def test_write_prometheus(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        path = write_prometheus(reg, tmp_path / "metrics.prom")
        assert "repro_x 1" in path.read_text()


class TestTrace:
    def test_complete_events_serialise(self, tmp_path):
        tc = TraceCollector()
        tc.complete("cb", tc.now_us(), 12.5, cat="engine", sim_time=3.0)
        tc.counter("peers", {"live": 10})
        obj = tc.to_json_obj()
        phases = [e["ph"] for e in obj["traceEvents"]]
        assert phases == ["M", "X", "C"]
        out = tmp_path / "t.json"
        tc.write(out)
        assert json.loads(out.read_text())["otherData"]["dropped_events"] == 0

    def test_cap_drops_and_counts(self):
        tc = TraceCollector(max_events=2)
        for _ in range(5):
            tc.complete("cb", 0.0, 1.0)
        assert len(tc) == 2
        assert tc.dropped == 3
        assert tc.full

    def test_negative_duration_clamped(self):
        tc = TraceCollector()
        tc.complete("cb", 0.0, -5.0)
        assert tc.to_json_obj()["traceEvents"][-1]["dur"] == 0.0


class TestManifest:
    def test_config_fingerprint_stable_and_sensitive(self):
        a = config_fingerprint(SystemConfig())
        b = config_fingerprint(SystemConfig())
        c = config_fingerprint(SystemConfig(n_servers=7))
        assert a == b
        assert a != c

    def test_hash_ignores_dict_insertion_order(self):
        """Regression: the canonical hash must not depend on the order
        keys were inserted (campaign run keys rely on this)."""
        from repro.obs.manifest import stable_hash

        a = stable_hash({"alpha": 1, "beta": {"y": 2.0, "x": [1, 2]}})
        b = stable_hash({"beta": {"x": [1, 2], "y": 2.0}, "alpha": 1})
        assert a == b
        assert a != stable_hash({"alpha": 1, "beta": {"y": 2.0, "x": [2, 1]}})

    def test_canonical_payload_float_formatting(self):
        from repro.obs.manifest import canonical_payload

        # -0.0 collapses onto 0.0; non-finite floats serialise as tagged
        # strings rather than non-standard JSON tokens
        assert canonical_payload({"x": -0.0}) == canonical_payload({"x": 0.0})
        assert "nan" in canonical_payload(float("nan"))
        assert "inf" in canonical_payload(float("inf"))
        # shortest-repr floats are stable and roundtrip
        assert canonical_payload(0.1) == "0.1"

    def test_fingerprint_ignores_field_order(self):
        """Two equal configs hash equal regardless of how their field
        dicts happen to be ordered internally."""
        import dataclasses

        cfg = SystemConfig()
        d = dataclasses.asdict(cfg)
        reordered = dict(reversed(list(d.items())))
        from repro.obs.manifest import stable_hash

        assert stable_hash(d, length=16) == stable_hash(reordered, length=16)
        assert stable_hash(d, length=16) == config_fingerprint(cfg)

    def test_sidecar_path(self):
        assert str(manifest_path_for("out/m.jsonl")).endswith("m.manifest.json")
        assert str(manifest_path_for("metrics")).endswith(
            "metrics.manifest.json")

    def test_note_seed_first_wins(self):
        m = RunManifest()
        m.note_seed(3)
        m.note_seed(9)
        assert m.seed == 3

    def test_write_contains_provenance(self, tmp_path):
        m = RunManifest(scenario="t", seed=1)
        m.note_config(SystemConfig())
        p = m.write(tmp_path / "m.manifest.json")
        data = json.loads(p.read_text())
        assert data["scenario"] == "t"
        assert data["seed"] == 1
        assert data["config_hash"]
        assert data["wall_time_s"] >= 0
        assert "python" in data and "argv" in data


class TestJsonlWriter:
    def test_lines_are_valid_json(self, tmp_path):
        path = tmp_path / "m.jsonl"
        writer = JsonlMetricsWriter(path)
        reg = MetricsRegistry()
        reg.counter("c").inc()
        writer.snapshot(reg, 1.0)
        reg.counter("c").inc()
        writer.snapshot(reg, 2.0)
        writer.close()
        writer.close()  # idempotent
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["t_sim"] for l in lines] == [1.0, 2.0]
        assert [l["metrics"]["c"] for l in lines] == [1, 2]


class TestContextGuards:
    def test_session_yields_active_context(self):
        with obs.session() as ctx:
            assert obs.current() is ctx
        assert obs.current() is None

    def test_double_session_rejected(self):
        with obs.session():
            with pytest.raises(obs.ObsError):
                with obs.session():
                    pass

    def test_helpers_noop_when_off(self):
        obs.inc("nothing")
        obs.observe("nothing", 1.0)
        obs.set_gauge("nothing", 2.0)
        assert not obs.enabled()

    def test_helpers_record_when_on(self):
        with obs.session() as ctx:
            assert obs.enabled()
            obs.inc("a", 2)
            obs.set_gauge("b", 4.0)
            assert ctx.registry.counter("a").value == 2
            assert ctx.registry.gauge("b").value == 4.0


class TestEngineInstrumentation:
    def test_counters_and_site_timers(self):
        n = 1000
        with obs.session() as ctx:
            eng = Engine()

            def tick():
                pass

            for i in range(n):
                eng.schedule(float(i), tick)
            ev = eng.schedule(3.5, tick)
            ev.cancel()
            eng.run()
            counters = ctx.registry.counter_values()
            assert counters["engine.events_executed"] == n
            assert counters["engine.events_cancelled"] == 1
            site = "TestEngineInstrumentation.test_counters_and_site_timers" \
                   ".<locals>.tick"
            # metrics-only sessions time events 0, 64, 128, ... only: a
            # timer per event would cost every event a clock pair (the
            # counters above stay exact either way)
            timer = ctx.registry.timer(f"engine.callback.{site}")
            assert timer.count == math.ceil(n / 64)
            assert ctx.registry.gauge("engine.heap_depth_max").value >= 1

    def test_traced_session_times_every_event(self, tmp_path):
        with obs.session(trace_path=str(tmp_path / "t.json")) as ctx:
            eng = Engine()

            def tick():
                pass

            for i in range(10):
                eng.schedule(float(i), tick)
            eng.run()
            site = "TestEngineInstrumentation." \
                   "test_traced_session_times_every_event.<locals>.tick"
            assert ctx.registry.timer(f"engine.callback.{site}").count == 10

    def test_trace_spans_emitted(self, tmp_path):
        with obs.session(trace_path=str(tmp_path / "t.json")) as ctx:
            eng = Engine()
            eng.schedule(1.0, lambda: None)
            eng.run()
        data = json.loads((tmp_path / "t.json").read_text())
        spans = [e for e in data["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 1
        assert spans[0]["cat"] == "engine"
        assert spans[0]["args"]["sim_time"] == 1.0

    def test_outside_session_engine_not_instrumented(self):
        eng = Engine()
        assert eng._obs is None
        eng.schedule(1.0, lambda: None)
        eng.run()
        assert eng.events_processed == 1

    def test_cancelled_count_maintained_without_obs(self):
        eng = Engine()
        ev = eng.schedule(1.0, lambda: None)
        ev.cancel()
        eng.schedule(2.0, lambda: None)
        eng.run()
        assert eng.events_cancelled == 1


class TestSessionExport:
    def test_session_writes_all_artefacts(self, tmp_path):
        metrics = tmp_path / "m.jsonl"
        trace = tmp_path / "t.json"
        with obs.session(metrics_path=str(metrics), trace_path=str(trace),
                         scenario="unit", seed=42):
            eng = Engine()
            eng.schedule(1.0, lambda: None)
            eng.run()
        assert metrics.exists()
        lines = [json.loads(l) for l in metrics.read_text().splitlines()]
        assert lines[-1]["metrics"]["engine.events_executed"] == 1
        assert json.loads(trace.read_text())["traceEvents"]
        manifest = json.loads((tmp_path / "m.manifest.json").read_text())
        assert manifest["scenario"] == "unit"
        assert manifest["seed"] == 42
        assert manifest["metrics_path"] == str(metrics)

    def test_session_without_metrics_uses_trace_sidecar(self, tmp_path):
        trace = tmp_path / "t.json"
        with obs.session(trace_path=str(trace)):
            pass
        assert (tmp_path / "t.manifest.json").exists()


class TestBatchedCounter:
    def test_shares_total_with_plain_accessor(self):
        reg = obs.MetricsRegistry()
        batched = reg.batched_counter("c")
        batched.inc(3)
        batched.pending += 2  # the hot-loop fast path
        # unflushed increments are visible through the batched view...
        assert batched.value == 5
        # ...and counter_values flushes them into the shared counter
        assert reg.counter_values()["c"] == 5
        assert reg.counter("c").value == 5
        assert batched.pending == 0

    def test_same_instance_per_name(self):
        reg = obs.MetricsRegistry()
        assert reg.batched_counter("x") is reg.batched_counter("x")

    def test_mixed_batched_and_direct_increments(self):
        reg = obs.MetricsRegistry()
        reg.counter("c").inc(10)
        reg.batched_counter("c").inc(4)
        assert reg.counter_values()["c"] == 14

    def test_snapshot_and_prometheus_flush(self):
        reg = obs.MetricsRegistry()
        reg.batched_counter("c").inc(7)
        assert reg.snapshot()["c"] == 7
        reg.batched_counter("c").inc(2)
        assert 'repro_c 9' in obs.render_prometheus(reg)

    def test_null_registry_accepts_batched_calls(self):
        null = obs.NULL_REGISTRY
        c = null.batched_counter("anything")
        c.inc()
        c.pending += 5
        c.flush()
        null.flush_batched()
        assert null.counter_values() == {}


class TestGaugeProviders:
    def test_providers_sampled_at_snapshot_beats(self, tmp_path):
        metrics = tmp_path / "m.jsonl"
        with obs.session(metrics_path=str(metrics)) as ctx:
            ctx.register_gauge_provider("test.level", lambda: 17.5)
        line = json.loads(metrics.read_text().splitlines()[-1])
        assert line["metrics"]["test.level"] == 17.5
        assert line["metrics"]["run.peak_rss_mb"] > 0

    def test_nan_and_raising_providers_skipped(self, tmp_path):
        metrics = tmp_path / "m.jsonl"
        with obs.session(metrics_path=str(metrics)) as ctx:
            ctx.register_gauge_provider("test.nan", lambda: float("nan"))
            def boom() -> float:
                raise RuntimeError("provider died")
            ctx.register_gauge_provider("test.boom", boom)
        line = json.loads(metrics.read_text().splitlines()[-1])
        assert "test.nan" not in line["metrics"]
        assert "test.boom" not in line["metrics"]
