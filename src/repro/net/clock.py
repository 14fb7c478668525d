"""The wall-clock -> virtual-time mapping of the net backend.

The simulators *are* their clock; a real deployment has to derive one.
:class:`VirtualClock` maps the host's monotonic clock onto the virtual
timeline every protocol object lives on::

    virtual = elapsed_wall_while_running * time_scale

The clock is pausable: :meth:`~repro.net.backend.NetBackend.run` resumes
it, runs to the requested virtual horizon, and pauses it again, so the
``StreamingBackend`` contract's repeated ``run(until)`` calls see a
timeline that only advances while a run is in progress (exactly like an
engine that only moves inside ``Engine.run``).

This is the one module of the backend that reads the host clock; the
reads are annotated for the determinism lint because a real-network
backend is wall-clock-driven *by design* -- the determinism caveats are
documented in README "Running on a real network".
"""

from __future__ import annotations

import time

__all__ = ["VirtualClock"]


def _wall() -> float:
    """Monotonic wall reading (the net backend's time base)."""
    return time.monotonic()  # repro: noqa[DET002] net backend is wall-clock-driven by design


class VirtualClock:
    """Pausable mapping from wall seconds to virtual seconds.

    Starts paused at virtual time 0; :meth:`resume`/:meth:`pause` bracket
    the running intervals.  ``now()`` is stable while paused.
    """

    def __init__(self, time_scale: float) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.time_scale = float(time_scale)
        self._accum_virtual = 0.0
        self._resumed_wall: float | None = None

    def resume(self) -> None:
        """Let virtual time advance.  Idempotent."""
        if self._resumed_wall is None:
            self._resumed_wall = _wall()

    def pause(self) -> None:
        """Freeze virtual time.  Idempotent."""
        if self._resumed_wall is not None:
            self._accum_virtual += (_wall() - self._resumed_wall) * self.time_scale
            self._resumed_wall = None

    def now(self) -> float:
        """Current virtual time in seconds."""
        if self._resumed_wall is None:
            return self._accum_virtual
        return self._accum_virtual + (_wall() - self._resumed_wall) * self.time_scale

    def clamp(self, virtual: float) -> None:
        """Pull a paused clock back to exactly ``virtual`` if the pump
        quantum overshot it (keeps ``now()`` == the engine clock at the
        end of a run)."""
        if self._resumed_wall is None and self._accum_virtual > virtual:
            self._accum_virtual = float(virtual)
