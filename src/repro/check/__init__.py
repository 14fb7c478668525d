"""repro.check -- static contract analysis for the simulation stack.

The reproduction's headline guarantees (byte-identical workload
realizations across engines, content-addressed campaign caching,
seed-determinism regression tests) all rest on one convention: every
stochastic or ordering-sensitive operation routes through
:mod:`repro.sim.rng` named streams.  A single unseeded
``random.random()``, wall-clock read, or ``set`` iteration in a hot path
silently poisons cache keys and the parity harness.

v2 grew the per-file determinism lint into a **two-pass project
analyzer**: pass 1 harvests cross-module facts from every file (the
telemetry fields each report's ``_wire_form`` table puts on the wire,
fields each analysis ``Fold`` reads, obs metric names emitted vs
referenced, the async function inventory -- see
:mod:`repro.check.project`); pass 2 runs the per-file rules plus
*project rules* that check producer/consumer contracts across module
boundaries -- the drift class that corrupts reproduced figures without
ever crashing::

    python -m repro check src/              # text findings, exit 1 if any
    python -m repro check src/ --output json
    python -m repro check src/ --output sarif   # PR-diff annotations
    python -m repro check src/ --cache .repro-check-cache
    python -m repro check --list-rules

Rule catalog
------------

======  ==============================================================
DET001  unseeded global RNG use (``random.*`` / ``numpy.random.*``
        module-level draws) -- use :class:`repro.sim.rng.RngHub`
DET002  wall-clock reads (``time.time``, ``datetime.now``,
        ``perf_counter``, ...) outside the obs/telemetry allowlist
DET003  iteration over ``set``/``frozenset`` (or ``dict.keys()``
        feeding RNG draws): hash-order-dependent behaviour
FLT001  float ``==`` / ``!=`` comparisons outside tests
CFG001  config dataclass numeric field lacking validation in
        ``__post_init__`` while sibling fields are validated
ASY001  blocking call (``time.sleep``, sync socket/file I/O,
        ``subprocess.run``) inside an ``async def``
ASY002  coroutine called but never awaited or scheduled (project)
ASY003  ``create_task``/``ensure_future`` result dropped without a
        reference or done-callback (silent task death)
SCH001  telemetry field a fold reads that no report defines or no
        report's wire table carries (project)
OBS001  metric name referenced in watch/exporters that no
        instrumentation site emits (project)
UNIT001 additive arithmetic mixing unit suffixes (``_s``/``_ms`` vs
        ``_blocks`` vs ``_bps``/``_kbps``)
======  ==============================================================

Findings are suppressed with ``# repro: noqa[RULE]`` (comma lists
allowed; bare ``# repro: noqa`` suppresses every rule) plus a short
justification comment.  A marker on *any* physical line of a
multi-line statement covers the whole statement.

Exit codes: 0 clean (warn-only findings included), 1 error-severity
findings, 2 usage/parse error.
"""

from repro.check.engine import (
    CheckReport,
    Finding,
    Rule,
    all_rules,
    check_paths,
    check_source,
    register,
)
from repro.check.project import FileFacts, ProjectContext, harvest_file

# importing the rule modules populates the registry
import repro.check.rules_determinism  # noqa: F401
import repro.check.rules_float  # noqa: F401
import repro.check.rules_config  # noqa: F401
import repro.check.rules_async  # noqa: F401
import repro.check.rules_schema  # noqa: F401
import repro.check.rules_obs  # noqa: F401
import repro.check.rules_units  # noqa: F401

__all__ = [
    "CheckReport",
    "FileFacts",
    "Finding",
    "ProjectContext",
    "Rule",
    "all_rules",
    "check_paths",
    "check_source",
    "harvest_file",
    "register",
]
