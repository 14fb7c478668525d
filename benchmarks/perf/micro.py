"""Stub micro-loops: each layer's unit cost, timed alone from outside.

These run in the traced child after the timed interval.  They call only
public functions with fixed synthetic inputs (no seed: the loops must do
identical work in every run), so a per-unit number here can be set
against the same layer's self time inside the real run.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict

__all__ = ["kernel_ns_per_event", "waterfill_us_per_call",
           "codec_us_per_frame", "run_all"]

_KERNEL_EVENTS = 200_000
_WATERFILL_CALLS = 20_000
_CODEC_FRAMES = 20_000


def kernel_ns_per_event(heap_depth: int) -> float:
    """Event kernel with callbacks stubbed: ``heap_depth`` self-rescheduling
    no-op events (so every pop pays the workload's heap depth) plus 64
    bucketed periodic tasks, for a fixed number of fired events."""
    from repro.sim.engine import Engine, PeriodicTask

    engine = Engine()
    depth = max(1, int(heap_depth))
    schedule = engine.schedule

    def make(delay: float):
        def fire() -> None:
            schedule(delay, fire)
        return fire

    for i in range(depth):
        # delays spread over (1, 2): pops interleave instead of batching
        delay = 1.0 + (i * 0.6180339887498949) % 1.0
        schedule(delay, make(delay))
    tasks = [PeriodicTask(engine, 2.0, _noop) for _ in range(64)]
    t0 = perf_counter()
    engine.run(max_events=_KERNEL_EVENTS)
    elapsed = perf_counter() - t0
    for task in tasks:
        task.stop()
    return 1e9 * elapsed / engine.events_processed


def _noop() -> None:
    return None


def waterfill_us_per_call(n: int) -> float:
    """``waterfill_rates`` on ``n`` demands, a third of them below the
    fair share (n <= 16 is the pure-Python path, above it numpy)."""
    from repro.network.fairshare import waterfill_rates

    capacity = float(n)
    demands = [0.5 if i % 3 == 0 else 1.5 + 0.01 * i for i in range(n)]
    t0 = perf_counter()
    for _ in range(_WATERFILL_CALLS):
        waterfill_rates(capacity, demands)
    return 1e6 * (perf_counter() - t0) / _WATERFILL_CALLS


def codec_us_per_frame() -> Dict[str, float]:
    """Encode and decode cost of the smallest frame on the wire (BM_UPDATE)
    and the typical one (BLOCKS)."""
    from repro.net.codec import FrameDecoder, MsgType, encode_frame

    frames = {
        "bm": (MsgType.BM_UPDATE, {"bm": [120, 119, 121, 120, 1, 0, 1, 1]}),
        "blocks": (MsgType.BLOCKS,
                   {"substream": 2, "first": 118_204, "last": 118_211}),
    }
    out: Dict[str, float] = {}
    for kind, (msg_type, payload) in frames.items():
        t0 = perf_counter()
        for _ in range(_CODEC_FRAMES):
            wire = encode_frame(msg_type, payload)
        out[f"net.codec_encode_us_per_frame.{kind}"] = (
            1e6 * (perf_counter() - t0) / _CODEC_FRAMES)
        decoder = FrameDecoder()
        decoded = 0
        t0 = perf_counter()
        for _ in range(_CODEC_FRAMES):
            for _msg in decoder.feed(wire):
                decoded += 1
        out[f"net.codec_decode_us_per_frame.{kind}"] = (
            1e6 * (perf_counter() - t0) / _CODEC_FRAMES)
        if decoded != _CODEC_FRAMES:
            raise RuntimeError(f"codec micro-loop decoded {decoded} frames")
    return out


def run_all(heap_depth: int) -> Dict[str, float]:
    """Every micro-loop, keyed by per-layer metric name."""
    out = {
        "sim.kernel_ns_per_event": kernel_ns_per_event(heap_depth),
        "network.waterfill_us_per_call_n8": waterfill_us_per_call(8),
        "network.waterfill_us_per_call_n64": waterfill_us_per_call(64),
    }
    out.update(codec_us_per_frame())
    return out
