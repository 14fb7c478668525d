"""Turn child outputs into the per-layer metric row of one workload.

Untraced children give the span seconds (medians); the one traced child
gives shares, counts and unit costs.  Self times are reported as
*traced share x untraced seconds of the same span*, because cProfile
inflates call-heavy Python; phase stopwatches are scaled by the
untraced/traced ratio of ``runtime.run`` for the same reason.  By
construction the layer self times sum to the three measured spans, so
what the spans miss of ``wall_s`` is ``bench.unattributed_s``.
"""

from __future__ import annotations

from statistics import median
from typing import Dict, List

from metrics import (
    CORE_MODULES,
    FASTSIM_PHASES,
    MODEL_PHASES,
    SELF_TIME_METRIC,
    zero_layer_metrics,
)

__all__ = ["SPAN_METRICS", "layer_metrics"]

#: profiled span -> the span-seconds metric that scales its shares
SPAN_METRICS = {
    "runtime.run": "runtime.run_s",
    "analysis.fold": "analysis.fold_s",
    "experiments.payload": "experiments.payload_s",
}

_CORE_COUNTERS = ("bm_exchanges", "gossip_messages", "partnerships_formed",
                  "partnerships_dropped", "adaptations", "parent_switches",
                  "sessions_started", "sessions_ended")


def layer_metrics(workload, untraced: List[dict], traced: dict
                  ) -> Dict[str, float]:
    """Every per-layer metric by name (0 for layers the workload does not
    exercise)."""
    m = zero_layer_metrics()
    for key in untraced[0]["spans_s"]:
        m[key] = median(u["spans_s"][key] for u in untraced)
    wall_s = median(u["end_to_end"]["wall_s"] for u in untraced)
    cpu_s = median(u["end_to_end"]["cpu_s"] for u in untraced)
    m["bench.probe_s"] = median(u["probe_s"] for u in untraced)
    m["bench.unattributed_s"] = median(
        u["end_to_end"]["wall_s"]
        - sum(u["spans_s"][key] for key in SPAN_METRICS.values())
        for u in untraced)
    m["bench.traced_overhead_ratio"] = (
        traced["end_to_end"]["wall_s"] / wall_s)

    detail = traced["traced_detail"]
    waterfill_calls = 0
    for span, profile in detail["profiles"].items():
        seconds, layers = m[SPAN_METRICS[span]], dict(profile["layers"])
        if workload.time_scale and span == "runtime.run":
            # A paced run sleeps in the selector until timers are due, and
            # cProfile stretches only the busy part, so the traced idle
            # share is too small.  Idle is what the untraced run did not
            # spend on the CPU; the other layers share the busy seconds.
            busy_s = min(seconds, max(0.0, cpu_s - m["analysis.fold_s"]
                                      - m["experiments.payload_s"]))
            m[SELF_TIME_METRIC["idle"]] += seconds - busy_s
            layers.pop("idle", None)
            seconds = busy_s
        total = sum(layers.values())
        if total <= 0:
            continue
        for layer, layer_s in layers.items():
            # a repro package with no row of its own counts as library
            metric = SELF_TIME_METRIC.get(layer, SELF_TIME_METRIC["stdlib"])
            m[metric] += seconds * layer_s / total
        for module, module_s in profile["core_modules"].items():
            if module in CORE_MODULES:
                m[f"core.self_s.{module}"] += seconds * module_s / total
        waterfill_calls += profile["calls"].get("waterfill_rates", 0)
    m["network.waterfill_calls"] = waterfill_calls

    # counts: exact on a fixed seed for the deterministic engines
    counts, registry = traced["counts"], detail["registry"]
    for key, value in counts.items():
        if key in m:
            m[key] = value
    m["sim.heap_depth_max"] = registry.get("engine.heap_depth_max", 0)
    for name in _CORE_COUNTERS:
        m[f"core.{name}"] = registry.get(f"core.{name}", 0)
    quanta = sum(v for k, v in registry.items()
                 if k.startswith("core.upload_quanta."))
    saturated = sum(v for k, v in registry.items()
                    if k.startswith("core.upload_saturated_quanta."))
    m["core.upload_saturated_frac"] = saturated / quanta if quanta else 0.0
    if workload.engine in ("detailed", "net"):
        m["core.join_success_frac"] = detail["join_success_frac"]
    m["fastsim.peer_steps"] = registry.get("fastsim.peers_stepped", 0)

    run_s = m["runtime.run_s"]
    if run_s > 0:
        m["sim.events_per_s"] = m["sim.events"] / run_s
        m["fastsim.peer_steps_per_s"] = m["fastsim.peer_steps"] / run_s
    deflate = run_s / traced["spans_s"]["runtime.run_s"]
    for phase in FASTSIM_PHASES:
        m[f"fastsim.phase_s.{phase}"] = (
            deflate * detail["fastsim_phase_s"].get(phase, 0.0))
    for phase in MODEL_PHASES:
        m[f"model.phase_s.{phase}"] = (
            deflate * detail["model_phase_s"].get(phase, 0.0))

    if workload.engine == "net":
        messages = median(u["counts"]["net.messages_sent"] for u in untraced)
        m["net.cpu_us_per_message"] = 1e6 * cpu_s / max(1.0, messages)
        m["net.virtual_s_per_cpu_s"] = traced["horizon_s"] / cpu_s
        m["net.pacing_lag_s"] = (
            run_s - traced["horizon_s"] / workload.time_scale)

    for key, value in {**detail["replay"], **detail["micro"]}.items():
        m[key] = value
    return m
