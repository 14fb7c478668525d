"""Machine fingerprint and speed probes.

Rows measured in different containers -- or in the same container a
minute apart -- are not comparable as raw seconds: PR 5 had to
hand-explain a 16% slower box, and on the 2-vCPU microVM this benchmark
was written on, one process doing fixed work takes 1.0x to 1.5x as long
from one minute to the next (host contention the guest cannot see).

* :func:`speed_probe` is a fixed loop, half interpreter work and half
  native: heap push/pop with tuple keys at a fixed depth (the event
  kernel), query-string parsing into dicts (the telemetry path), numpy
  sort-and-reduce (the fluid and ODE engines) and zlib round trips (the
  spilled log).  Every child runs it immediately before and after its
  timed interval; the normalised end-to-end times are set-up and the
  interval rescaled by ``PROBE_REF_S / probe``.
* :func:`calibrate` adds one fixed numpy sort and is stamped, with the
  fingerprint, into every results file as ``calib.py_s`` /
  ``calib.numpy_s``.

The probes take no seed: they must do identical work everywhere.
"""

from __future__ import annotations

import gc
import heapq
import os
import platform
import sys
import time
import zlib
from pathlib import Path
from typing import Dict, Tuple
from urllib.parse import parse_qsl

__all__ = ["THREAD_PINS", "PROBE_REF_S", "speed_probe", "calibrate",
           "fingerprint"]

#: BLAS/OpenMP pins every child runs under: one process, no threads
#: beyond the program's own.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: What :func:`speed_probe` takes on the box the baseline was measured
#: on when the box is quiet.  Only a unit: it makes a
#: normalised second about one second there.  Changing it rescales every
#: normalised number, so it changes only together with the baseline.
PROBE_REF_S = 0.52

_HEAP_OPS = 100_000
_HEAP_DEPTH = 4096
_PARSE_OPS = 30_000
_LOG_STRING = ("type=qos&t=1234.567&node=100123&user=4711&sess=90210"
               "&cont=0.9912&buf=12.500&par=3&play=1")
_NUMPY_OPS = 400
_NUMPY_N = 50_000
_ZLIB_OPS = 170
_ZLIB_LINES = 2_000
_SORT_N = 2_000_000


def _interpreter_loop() -> None:
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    x = 12345
    for i in range(_HEAP_OPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        push(heap, (x, i))
        if i >= _HEAP_DEPTH:      # bounded: the probe must not be
            pop(heap)             # what sets the child's peak RSS
    for _ in range(_PARSE_OPS):
        dict(parse_qsl(_LOG_STRING))


def _native_loop() -> None:
    import numpy as np

    values = ((np.arange(_NUMPY_N, dtype=np.uint64) * 2654435761)
              % 1000003).astype(np.float64)
    text = "\n".join(f"{_LOG_STRING}&seq={i}"
                     for i in range(_ZLIB_LINES)).encode("ascii")
    for _ in range(_NUMPY_OPS):
        (np.sort(values) * 1.5 + 2.0).sum()
    for _ in range(_ZLIB_OPS):
        zlib.decompress(zlib.compress(text, 6))


def speed_probe() -> Tuple[float, float]:
    """``(wall, cpu)`` seconds the fixed loop takes right now (~0.55 s):
    wall time is rescaled by the one, CPU time by the other.

    Half interpreter work, half native, each on a working set under
    1 MB.  The cyclic collector is off for the duration: a collection
    walks every tracked object of the process, so with it on the probe
    would also measure how large a simulation the caller is holding."""
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        _interpreter_loop()
        _native_loop()
        return time.perf_counter() - wall0, time.process_time() - cpu0
    finally:
        if gc_was_on:
            gc.enable()


def calibrate() -> Dict[str, float]:
    """``calib.py_s`` (the probe's interpreter half) and ``calib.numpy_s``
    (one fixed sort)."""
    import numpy as np

    t0 = time.perf_counter()
    _interpreter_loop()
    py_s = time.perf_counter() - t0
    values = (np.arange(_SORT_N, dtype=np.uint64) * 2654435761) % 1000003
    t0 = time.perf_counter()
    np.sort(values.astype(np.float64))
    numpy_s = time.perf_counter() - t0
    return {"calib.py_s": py_s, "calib.numpy_s": numpy_s}


def fingerprint(repo_root: Path, git_revision) -> Dict[str, object]:
    """Where a results file was measured.  ``git_revision`` is
    ``repro.obs.git_revision`` (this module loads without ``src/``)."""
    import numpy

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "git_rev": git_revision(repo_root),
        "thread_pins": dict(THREAD_PINS),
        "executable": sys.executable,
    }
