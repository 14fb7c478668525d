"""Per-layer self time from a ``cProfile`` run, bucketed by owning package.

A function's ``tottime`` is charged to the ``repro.<package>`` that owns
its file (``core`` additionally by module), to ``numpy``, or to ``bench``
(this harness's own code inside the timed interval).  Library time --
built-ins, pure-Python stdlib, dataclass-generated ``<string>`` code --
has no layer of its own: it is charged to the nearest layer *up the call
graph*, using the per-caller split cProfile records.  So
``heapq.heappop`` called from ``sim/engine.py`` is kernel time and
``urllib.parse.parse_qsl`` under ``decode_log_string`` is telemetry time.
Two exceptions keep the socket backend readable:

* the asyncio event loop (``asyncio/``, ``selectors.py``) calls *into*
  the program rather than being called by it, so its own time and the
  library time beneath it stay in ``stdlib``;
* time blocked in the selector is ``idle``: a paced run sleeps there.

cProfile inflates call-heavy Python relative to native code, so the
buckets are reported as *shares* of the profiled span and multiplied by
the same span's untraced seconds by the caller; never read the raw
seconds as a stopwatch.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Tuple

__all__ = ["bucket_profile", "owner_of"]

_HERE = os.path.dirname(os.path.abspath(__file__))
_REPRO_MARK = os.sep + "repro" + os.sep
_NUMPY_MARK = os.sep + "numpy" + os.sep
_ASYNCIO_MARK = os.sep + "asyncio" + os.sep

#: pseudo-layers of :func:`owner_of`
LIBRARY, LOOP, IDLE = "<library>", "stdlib", "idle"
#: call-graph hops library time may climb before it is left in ``stdlib``
#: (recursion inside the library would otherwise circulate forever)
_MAX_HOPS = 64


def owner_of(func: Tuple[str, int, str]) -> Tuple[str, str]:
    """``(layer, module)`` of a profiled function; ``layer`` is
    :data:`LIBRARY` for code whose time belongs to its callers."""
    filename, _line, name = func
    if filename == "~":
        if "numpy" in name:
            return ("numpy", "")
        if "select." in name and "poll" in name:
            return (IDLE, "")
        return (LIBRARY, "")
    if filename.startswith(_HERE):
        return ("bench", "")
    pos = filename.rfind(_REPRO_MARK)
    if pos >= 0:
        rest = filename[pos + len(_REPRO_MARK):]
        package, sep, tail = rest.partition(os.sep)
        if sep:
            module = os.path.splitext(os.path.basename(tail))[0]
            return (package, module)
        return ("runtime", "")      # repro/__init__.py, repro/__main__.py
    if _NUMPY_MARK in filename:
        return ("numpy", "")
    if _ASYNCIO_MARK in filename or filename.endswith("selectors.py"):
        return (LOOP, "")
    return (LIBRARY, "")


def bucket_profile(profile) -> Dict[str, object]:
    """Bucket one profile.  Returns ``{"layers": {layer: s},
    "core_modules": {module: s}, "calls": {function name: ncalls}}``."""
    stats = pstats.Stats(profile).stats
    layers: Dict[str, float] = {}
    core_modules: Dict[str, float] = {}
    calls: Dict[str, int] = {}

    def charge(owner: Tuple[str, str], seconds: float) -> None:
        layer, module = owner
        layers[layer] = layers.get(layer, 0.0) + seconds
        if layer == "core":
            core_modules[module] = core_modules.get(module, 0.0) + seconds

    def hand_up(func, amount: float, weight_index: int,
                climbing: Dict[tuple, float]) -> None:
        """Split ``amount`` of library time among ``func``'s callers."""
        edges = {caller: edge[weight_index]
                 for caller, edge in stats[func][4].items() if caller != func}
        total = sum(edges.values())
        if total <= 0:
            charge((LOOP, ""), amount)      # no caller inside the profile
            return
        for caller, weight in edges.items():
            share = amount * weight / total
            owner = owner_of(caller)
            if owner[0] == LIBRARY:
                climbing[caller] = climbing.get(caller, 0.0) + share
            else:
                charge(owner, share)

    climbing: Dict[tuple, float] = {}
    for func, (_cc, ncalls, tottime, _ct, _callers) in stats.items():
        owner = owner_of(func)
        if owner[0] == LIBRARY:
            # own time splits exactly: cProfile keeps tottime per caller
            hand_up(func, tottime, 2, climbing)
            continue
        charge(owner, tottime)
        if owner[0] == "network":
            calls[func[2]] = calls.get(func[2], 0) + ncalls
    for _hop in range(_MAX_HOPS):
        if not climbing:
            break
        passing, climbing = climbing, {}
        for func, amount in passing.items():
            # time passing through splits by each caller's cumulative time
            hand_up(func, amount, 3, climbing)
    charge((LOOP, ""), sum(climbing.values()))
    return {
        "layers": layers,
        "core_modules": core_modules,
        "calls": calls,
    }
