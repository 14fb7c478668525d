"""No public code in ``src/repro/`` that only tests reach.

A public function, class or method (no leading ``_``) must be used by
something under ``src/``, ``examples/`` or ``benchmarks/``; otherwise it
is code kept alive by its own tests.  The scan is pure ``ast`` and never
imports ``repro``.

* **Definitions:** every top-level ``def``/``class`` of a module under
  ``src/repro/``, and every method in a top-level class body.
* **Uses:** a ``"module:Name"`` string (backend registrations, the
  CLI's lazy ``handler=`` strings), an ``Attribute`` load of the name,
  and, for a function or class, a ``Name`` load of it; for a method, the
  name given as a string to ``getattr``/``hasattr``.  A bare ``Name``
  load does not count for a method: outside a class body it is a local
  variable that happens to share the name (``table``, ``ratio`` and
  ``period`` hid test-only methods that way).  An ``import``, an
  ``__all__`` entry or any other string is not a use.
* **Never flagged:** ``visit_*`` methods (``ast.NodeVisitor`` dispatch)
  and classes registered by a ``@register`` decorator.

Matching is by name, so a test-only method that shares its name with a
used attribute goes unseen.  A symbol that stays test-only on purpose is
listed in ``KEPT`` with the reason, and an entry that stops being a
finding fails the second test.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
USERS = (ROOT / "src", ROOT / "examples", ROOT / "benchmarks")

#: a lazy reference such as ``"repro.fastsim.engine:FluidBackend"``
MODULE_REF_RE = re.compile(r"^[A-Za-z_][\w.]*:([A-Za-z_]\w*)$")

#: ``"path:Qual.name"`` (path under ``src/repro/``) -> why it stays
KEPT: Dict[str, str] = {
    "check/engine.py:check_source":
        "the one-string entry point of the lint: every rule fixture is "
        "checked through it (18 test sites); check_paths needs files",
    "core/adaptation.py:inequality1_ok":
        "Inequality (1) as Section IV.B writes it: the reference "
        "test_detailed_fastpaths.py::TestAdaptationCheck holds "
        "PeerNode._adaptation_check's inlined copy to",
    "core/pull.py:PullScheduler.outstanding":
        "reads the incremental per-child queue count the scheduler keeps; "
        "test_core_pull.py checks it against a brute-force recount "
        "(10 sites)",
    "experiments/ablations.py:run_variant":
        "the pinned entry point of tests/test_figure_payload_pins.py",
    "obs/exporters.py:write_prometheus":
        "documented API: README's Prometheus exporter for long runs",
    "obs/metrics.py:MetricsRegistry.counter_values":
        "documented API: README's observability example prints it",
    "obs/metrics.py:NullRegistry.counter_values":
        "the disabled registry's side of the documented counter_values",
    "sim/rng.py:RngHub.draw_counts":
        "the oracle ROADMAP item 13 names: draw counts must match under "
        "the strict sanitizer",
    "sim/rng.py:RngHub.violations":
        "the warn-mode sanitizer's record of what it caught (README, "
        "RNG sanitizer); draw_counts' twin",
    "sim/rng.py:RngHub.sanitize":
        "the mode the hub resolved from its argument or "
        "REPRO_RNG_SANITIZE; test_rng_sanitizer.py pins the opt-in and "
        "its propagation through fork at 6 sites",
    "telemetry/logstring.py:encode_log_string":
        "the reference encoder (urlencode with quote) the generated "
        "Report.to_log_string is held to",
    "telemetry/server.py:LogServer.reports_of":
        "16 test call sites would each paste its isinstance filter",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_registered(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else "")
        if name == "register":
            return True
    return False


def _definitions(tree: ast.Module) -> Iterator[Tuple[str, str, bool]]:
    """``(qualified name, name, is a method)`` of each public definition
    in ``tree``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield node.name, node.name, False
        elif isinstance(node, ast.ClassDef):
            if not node.name.startswith("_") and not _is_registered(node):
                yield node.name, node.name, False
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")
                        and not item.name.startswith("visit_")):
                    yield f"{node.name}.{item.name}", item.name, True


def _uses(tree: ast.Module, names: Set[str], members: Set[str]) -> None:
    """Add to ``names`` what ``tree`` uses as a function or class name and
    to ``members`` what it uses as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif (isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)):
            members.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            m = MODULE_REF_RE.match(node.value)
            if m:
                names.add(m.group(1))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "hasattr")
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)):
            members.add(node.args[1].value)


def findings() -> Set[str]:
    """Every ``"path:Qual.name"`` that nothing outside ``tests/`` uses."""
    defined: Dict[str, Tuple[str, bool]] = {}
    names: Set[str] = set()
    members: Set[str] = set()
    for base in USERS:
        for path in sorted(base.rglob("*.py")):
            tree = _parse(path)
            _uses(tree, names, members)
            if PACKAGE in path.parents:
                rel = path.relative_to(PACKAGE).as_posix()
                for qual, name, method in _definitions(tree):
                    defined[f"{rel}:{qual}"] = (name, method)
    return {
        key for key, (name, method) in defined.items()
        if name not in members and (method or name not in names)
    }


def test_src_has_no_test_only_public_code():
    unjustified = sorted(findings() - KEPT.keys())
    assert not unjustified, (
        "public src/ code that nothing under src/, examples/ or "
        "benchmarks/ uses; delete it, or add it to KEPT with a reason:\n  "
        + "\n  ".join(unjustified))


def test_kept_entries_are_current_findings():
    stale = sorted(KEPT.keys() - findings())
    assert not stale, (
        "KEPT entries that no longer exist or are used outside tests; "
        "drop them:\n  " + "\n  ".join(stale))
    assert all(reason.strip() for reason in KEPT.values())
