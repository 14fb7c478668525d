"""Pass-1 fact harvest: the cross-module tables project rules consume.

The original ``repro check`` engine was strictly per-file, so it could
not see the bug classes the codebase is now most exposed to: a fold in
``analysis/streaming.py`` reading a telemetry field no report in
``telemetry/reports.py`` emits, ``watch.py`` referencing a metric name
no instrumentation site ever increments, or a coroutine in ``repro.net``
called without ever being awaited or scheduled.  All of these are
*cross-module contract* properties -- invisible to any single-file walk.

This module is the first pass of the two-pass analyzer:

* :func:`harvest_file` walks one parsed module and extracts a
  :class:`FileFacts` record -- telemetry wire fields written by
  ``Report.to_params`` / ``to_log_string`` f-strings and read back by
  ``from_params``, report attributes each ``Fold.update`` touches,
  obs counter/gauge names emitted vs referenced, the async function
  inventory, plus the file's (statement-span-expanded) suppression map.
* :class:`ProjectContext` merges every file's facts into the global
  tables project rules (``SCH001``/``SCH002``/``OBS001``/``ASY002``)
  check in pass 2.

Facts are plain JSON-serializable data on purpose: the ``--cache``
result cache stores them per content hash, so a warm run rebuilds the
full :class:`ProjectContext` without re-parsing a single unchanged file.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import PurePath
from typing import (Any, Dict, FrozenSet, Iterable, List, Optional, Set,
                    Tuple)

__all__ = [
    "FileFacts",
    "ProjectContext",
    "harvest_file",
    "module_of",
    "statement_spans",
    "expand_suppressions",
]


#: a metric name as instrumentation emits it: dotted lowercase words
#: ("engine.events_executed").  Full-string match only, so prose in a
#: docstring never harvests as a reference.
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+$")

#: terminal callee names that take a metric name as their first argument
_EMIT_CALLEE_RE = re.compile(
    r"(?:^|_)(?:counter|gauge|histogram|timer|inc|observe|set_gauge"
    r"|register_gauge_provider)$")

#: module-level constants that enumerate metric names for a consumer
#: (e.g. watch.py's ``_WORK_COUNTERS`` preference table)
_REF_COLLECTION_RE = re.compile(r"COUNTER|GAUGE|METRIC")

#: wire keys inside a log-string f-string: ``?type=`` / ``&ci=`` ...
_WIRE_KEY_RE = re.compile(r"[?&]([A-Za-z_][A-Za-z0-9_]*)=")

Loc = Tuple[int, int]  # (line, col)


def module_of(path: str) -> str:
    """Dotted module guess for ``path`` (``src/repro/net/peer.py`` ->
    ``repro.net.peer``).  Only used to qualify same-module function
    names, so a rough guess outside ``src/`` layouts is fine."""
    parts = list(PurePath(path.replace("\\", "/")).parts)
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    else:
        parts = parts[-1:]
    if not parts:
        return "<unknown>"
    parts[-1] = PurePath(parts[-1]).stem
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "<unknown>"


# --------------------------------------------------------------------------
# statement spans + suppression expansion (multi-line noqa anchoring)
# --------------------------------------------------------------------------

def statement_spans(tree: ast.AST) -> List[Tuple[int, int]]:
    """``(first_line, last_line)`` of every statement, sorted.

    Used to expand ``# repro: noqa`` markers: a suppression on *any*
    physical line of a statement covers the whole statement, so a noqa
    at the end of a wrapped expression still silences a finding anchored
    at the expression's first line.
    """
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            spans.append((node.lineno, node.end_lineno or node.lineno))
    spans.sort()
    return spans


def _smallest_span(line: int,
                   spans: List[Tuple[int, int]]) -> Optional[Tuple[int, int]]:
    best: Optional[Tuple[int, int]] = None
    for start, end in spans:
        if start <= line <= end:
            if best is None or (end - start) < (best[1] - best[0]):
                best = (start, end)
        elif start > line:
            break
    return best


def expand_suppressions(
    noqa: Dict[int, Optional[FrozenSet[str]]],
    spans: List[Tuple[int, int]],
) -> Dict[int, Optional[FrozenSet[str]]]:
    """Suppression map with each marker applied to its whole statement.

    The innermost statement containing the marker line wins, so a noqa
    on one line of an ``if`` body never silences the whole ``if``; a
    marker on a blank or comment-only line keeps its line-local scope.
    """
    out: Dict[int, Optional[FrozenSet[str]]] = {}

    def _merge(line: int, entry: Optional[FrozenSet[str]]) -> None:
        if line in out and out[line] is None:
            return  # blanket suppression already covers this line
        if entry is None:
            out[line] = None
        else:
            out[line] = (out.get(line) or frozenset()) | entry

    for marker_line, entry in noqa.items():
        span = _smallest_span(marker_line, spans) or (marker_line,
                                                      marker_line)
        for line in range(span[0], span[1] + 1):
            _merge(line, entry)
    return out


# --------------------------------------------------------------------------
# per-file facts
# --------------------------------------------------------------------------

@dataclass
class ReportClassFacts:
    """Telemetry contract facts of one report class."""

    bases: List[str] = field(default_factory=list)
    #: dataclass-style annotated attributes (non-ClassVar)
    fields: List[str] = field(default_factory=list)
    #: every attribute a consumer may read: fields + ClassVars + methods
    attrs: List[str] = field(default_factory=list)
    #: wire key -> first write location, from ``to_params``/``_header``
    param_writes: Dict[str, Loc] = field(default_factory=dict)
    #: wire key -> first write location, from ``to_log_string`` f-strings
    wire_writes: Dict[str, Loc] = field(default_factory=dict)
    #: wire key -> first read location, from ``from_params``
    param_reads: Dict[str, Loc] = field(default_factory=dict)
    #: constructor kwarg -> wire keys its value expression reads
    kwarg_keys: Dict[str, List[str]] = field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        return {
            "bases": self.bases, "fields": self.fields, "attrs": self.attrs,
            "param_writes": {k: list(v) for k, v in self.param_writes.items()},
            "wire_writes": {k: list(v) for k, v in self.wire_writes.items()},
            "param_reads": {k: list(v) for k, v in self.param_reads.items()},
            "kwarg_keys": self.kwarg_keys,
        }

    @classmethod
    def from_json(cls, d: Dict[str, Any]) -> "ReportClassFacts":
        return cls(
            bases=list(d["bases"]), fields=list(d["fields"]),
            attrs=list(d["attrs"]),
            param_writes={k: (v[0], v[1])
                          for k, v in d["param_writes"].items()},
            wire_writes={k: (v[0], v[1])
                         for k, v in d["wire_writes"].items()},
            param_reads={k: (v[0], v[1])
                         for k, v in d["param_reads"].items()},
            kwarg_keys={k: list(v) for k, v in d["kwarg_keys"].items()},
        )


@dataclass
class FileFacts:
    """Everything pass 1 learned about one module.

    Strictly JSON-plain so the result cache can persist it; see
    :meth:`to_json` / :meth:`from_json`.
    """

    path: str
    module: str
    #: class name -> telemetry contract facts
    report_classes: Dict[str, ReportClassFacts] = field(default_factory=dict)
    #: wire keys read outside report classes (``parse_report`` dispatch)
    global_param_reads: Dict[str, Loc] = field(default_factory=dict)
    #: (fold class, attr, line, col) for each ``report.<attr>`` read
    fold_reads: List[Tuple[str, str, int, int]] = field(default_factory=list)
    #: metric name -> first emit location
    metric_emits: Dict[str, Loc] = field(default_factory=dict)
    #: literal prefixes of dynamically-built metric names (f-strings)
    metric_prefixes: List[str] = field(default_factory=list)
    #: (name, line, col) metric references (``.get("a.b")``, ``"a.b" in``)
    metric_refs: List[Tuple[str, int, int]] = field(default_factory=list)
    #: module-qualified module-level ``async def`` names
    async_funcs: List[str] = field(default_factory=list)
    #: bare names of async methods defined anywhere in the file
    async_methods: List[str] = field(default_factory=list)
    #: bare names of *sync* methods (ambiguity guard for ASY002)
    sync_methods: List[str] = field(default_factory=list)
    #: (kind, name, resolved, line, col) for statement-expression calls;
    #: kind is "name" (bare function) or "attr" (method-ish)
    bare_calls: List[Tuple[str, str, Optional[str], int, int]] = \
        field(default_factory=list)
    #: line -> suppressed rule ids (None = all), statement-span expanded
    suppressions: Dict[int, Optional[FrozenSet[str]]] = \
        field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "module": self.module,
            "report_classes": {k: v.to_json()
                               for k, v in self.report_classes.items()},
            "global_param_reads": {k: list(v) for k, v in
                                   self.global_param_reads.items()},
            "fold_reads": [list(t) for t in self.fold_reads],
            "metric_emits": {k: list(v)
                             for k, v in self.metric_emits.items()},
            "metric_prefixes": self.metric_prefixes,
            "metric_refs": [list(t) for t in self.metric_refs],
            "async_funcs": self.async_funcs,
            "async_methods": self.async_methods,
            "sync_methods": self.sync_methods,
            "bare_calls": [list(t) for t in self.bare_calls],
            "suppressions": {
                str(line): (None if rules is None else sorted(rules))
                for line, rules in self.suppressions.items()
            },
        }

    @classmethod
    def from_json(cls, d: Dict[str, Any]) -> "FileFacts":
        return cls(
            path=d["path"],
            module=d["module"],
            report_classes={k: ReportClassFacts.from_json(v)
                            for k, v in d["report_classes"].items()},
            global_param_reads={k: (v[0], v[1]) for k, v in
                                d["global_param_reads"].items()},
            fold_reads=[(t[0], t[1], t[2], t[3]) for t in d["fold_reads"]],
            metric_emits={k: (v[0], v[1])
                          for k, v in d["metric_emits"].items()},
            metric_prefixes=list(d["metric_prefixes"]),
            metric_refs=[(t[0], t[1], t[2]) for t in d["metric_refs"]],
            async_funcs=list(d["async_funcs"]),
            async_methods=list(d["async_methods"]),
            sync_methods=list(d["sync_methods"]),
            bare_calls=[(t[0], t[1], t[2], t[3], t[4])
                        for t in d["bare_calls"]],
            suppressions={
                int(line): (None if rules is None else frozenset(rules))
                for line, rules in d["suppressions"].items()
            },
        )


# --------------------------------------------------------------------------
# harvesting
# --------------------------------------------------------------------------

def _terminal_name(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _base_names(node: ast.ClassDef) -> List[str]:
    names = []
    for base in node.bases:
        while isinstance(base, ast.Subscript):  # Generic[...] bases
            base = base.value
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def _is_report_class(node: ast.ClassDef, bases: List[str]) -> bool:
    if any(b == "Report" or b.endswith("Report") for b in bases):
        return True
    return any(isinstance(s, ast.FunctionDef) and s.name == "to_params"
               for s in node.body)


def _is_fold_class(node: ast.ClassDef, bases: List[str]) -> bool:
    return (node.name == "Fold" or node.name.endswith("Fold")
            or any(b == "Fold" or b.endswith("Fold") for b in bases))


def _str_const(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _loc(node: ast.AST) -> Loc:
    return (getattr(node, "lineno", 1), getattr(node, "col_offset", 0))


def _collect_param_writes(fn: ast.AST, out: Dict[str, Loc]) -> None:
    """Wire keys written by a ``to_params``-style method: subscript
    assignments with constant keys plus dict-literal keys."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    key = _str_const(target.slice)
                    if key is not None:
                        out.setdefault(key, _loc(target))
        elif isinstance(node, ast.Dict):
            for key_node in node.keys:
                key = _str_const(key_node) if key_node is not None else None
                if key is not None:
                    out.setdefault(key, _loc(key_node))


def _collect_wire_writes(fn: ast.AST, out: Dict[str, Loc]) -> None:
    """Wire keys appearing as ``?key=`` / ``&key=`` in any string piece
    of a ``to_log_string``-style method (f-strings included)."""
    for node in ast.walk(fn):
        text = _str_const(node)
        if text is None:
            continue
        for match in _WIRE_KEY_RE.finditer(text):
            out.setdefault(match.group(1), _loc(node))


def _collect_param_reads(fn: ast.AST, out: Dict[str, Loc]) -> None:
    """Wire keys a ``from_params``-style method reads: ``p["k"]``,
    ``p.get("k", ...)`` and ``"k" in p`` membership probes."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Subscript):
            key = _str_const(node.slice)
            if key is not None and isinstance(node.value, ast.Name):
                out.setdefault(key, _loc(node))
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and node.args):
            key = _str_const(node.args[0])
            if key is not None:
                out.setdefault(key, _loc(node))
        elif isinstance(node, ast.Compare) and node.ops:
            if isinstance(node.ops[0], ast.In):
                key = _str_const(node.left)
                if key is not None:
                    out.setdefault(key, _loc(node))


def _collect_kwarg_keys(fn: ast.AST, out: Dict[str, List[str]]) -> None:
    """Constructor kwarg -> wire keys read inside its value expression.

    ``total_up=float(p.get("tup", "0"))`` maps the dataclass field
    ``total_up`` to the wire key ``tup`` -- the bridge that lets SCH001
    relate a fold's attribute read back to what ``to_params`` emits.
    """
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        for kw in node.keywords:
            if kw.arg is None:
                continue
            keys: Dict[str, Loc] = {}
            _collect_param_reads(kw.value, keys)
            if keys:
                merged = sorted(set(out.get(kw.arg, [])) | set(keys))
                out[kw.arg] = merged


class _Harvester(ast.NodeVisitor):
    """Single-walk fact collector (class/function stacks tracked)."""

    def __init__(self, facts: FileFacts, aliases: Dict[str, str]) -> None:
        self.facts = facts
        self.aliases = aliases
        self._class_stack: List[str] = []
        self._func_depth = 0

    # -- classes -------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        bases = _base_names(node)
        if self._func_depth == 0 and not self._class_stack:
            if _is_report_class(node, bases):
                self._harvest_report_class(node, bases)
            if _is_fold_class(node, bases):
                self._harvest_fold_class(node)
            for stmt in node.body:
                if isinstance(stmt, ast.AsyncFunctionDef):
                    self.facts.async_methods.append(stmt.name)
                elif isinstance(stmt, ast.FunctionDef):
                    self.facts.sync_methods.append(stmt.name)
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _harvest_report_class(self, node: ast.ClassDef,
                              bases: List[str]) -> None:
        rc = self.facts.report_classes.setdefault(
            node.name, ReportClassFacts(bases=bases))
        for stmt in node.body:
            if (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)):
                rc.attrs.append(stmt.target.id)
                ann = ast.dump(stmt.annotation)
                if "ClassVar" not in ann:
                    rc.fields.append(stmt.target.id)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                rc.attrs.append(stmt.name)
                if stmt.name in ("to_params", "_header"):
                    _collect_param_writes(stmt, rc.param_writes)
                elif stmt.name in ("to_log_string", "_header_strs",
                                   "log_strings"):
                    _collect_wire_writes(stmt, rc.wire_writes)
                elif stmt.name == "from_params":
                    _collect_param_reads(stmt, rc.param_reads)
                    _collect_kwarg_keys(stmt, rc.kwarg_keys)

    def _harvest_fold_class(self, node: ast.ClassDef) -> None:
        update = next(
            (s for s in node.body if isinstance(s, ast.FunctionDef)
             and s.name == "update"), None)
        if update is None or len(update.args.args) < 2:
            return
        report_param = update.args.args[1].arg
        for sub in ast.walk(update):
            if (isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == report_param):
                self.facts.fold_reads.append(
                    (node.name, sub.attr, sub.lineno, sub.col_offset))

    # -- functions -----------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if (self._func_depth == 0 and not self._class_stack
                and node.name in ("parse_report", "from_params")):
            _collect_param_reads(node, self.facts.global_param_reads)
        self._func_depth += 1
        self.generic_visit(node)
        self._func_depth -= 1

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        if self._func_depth == 0 and not self._class_stack:
            self.facts.async_funcs.append(
                f"{self.facts.module}.{node.name}")
        self._func_depth += 1
        self.generic_visit(node)
        self._func_depth -= 1

    # -- statement-expression calls (ASY002 sites) ---------------------
    def visit_Expr(self, node: ast.Expr) -> None:
        call = node.value
        if isinstance(call, ast.Call):
            func = call.func
            if isinstance(func, ast.Name):
                resolved = self.aliases.get(func.id)
                self.facts.bare_calls.append(
                    ("name", func.id, resolved, node.lineno,
                     node.col_offset))
            elif isinstance(func, ast.Attribute):
                self.facts.bare_calls.append(
                    ("attr", func.attr, None, node.lineno, node.col_offset))
        self.generic_visit(node)

    # -- metric emits / references -------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = _terminal_name(node.func)
        if name is not None and node.args:
            first = node.args[0]
            if _EMIT_CALLEE_RE.search(name):
                literal = _str_const(first)
                if literal is not None and METRIC_NAME_RE.match(literal):
                    self.facts.metric_emits.setdefault(literal, _loc(node))
                elif isinstance(first, ast.JoinedStr) and first.values:
                    head = _str_const(first.values[0])
                    if head and "." in head:
                        self.facts.metric_prefixes.append(head)
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "get"):
                literal = _str_const(first)
                if literal is not None and METRIC_NAME_RE.match(literal):
                    self.facts.metric_refs.append(
                        (literal, first.lineno, first.col_offset))
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        if node.ops and isinstance(node.ops[0], ast.In):
            literal = _str_const(node.left)
            if literal is not None and METRIC_NAME_RE.match(literal):
                self.facts.metric_refs.append(
                    (literal, node.left.lineno, node.left.col_offset))
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._func_depth == 0 and not self._class_stack:
            named = any(isinstance(t, ast.Name)
                        and _REF_COLLECTION_RE.search(t.id)
                        for t in node.targets)
            if named:
                for sub in ast.walk(node.value):
                    literal = _str_const(sub)
                    if literal is not None and METRIC_NAME_RE.match(literal):
                        self.facts.metric_refs.append(
                            (literal, sub.lineno, sub.col_offset))
        self.generic_visit(node)


def harvest_file(tree: ast.Module, path: str, source: str) -> FileFacts:
    """Pass 1 over one parsed module: extract its :class:`FileFacts`."""
    # local import: engine imports this module lazily for the same reason
    from repro.check.engine import collect_aliases, parse_suppressions

    facts = FileFacts(path=path, module=module_of(path))
    _Harvester(facts, collect_aliases(tree)).visit(tree)
    facts.suppressions = expand_suppressions(
        parse_suppressions(source), statement_spans(tree))
    # deterministic fact ordering: cache round-trips must be byte-stable
    facts.metric_prefixes = sorted(set(facts.metric_prefixes))
    facts.async_funcs = sorted(set(facts.async_funcs))
    facts.async_methods = sorted(set(facts.async_methods))
    facts.sync_methods = sorted(set(facts.sync_methods))
    return facts


# --------------------------------------------------------------------------
# the merged project view
# --------------------------------------------------------------------------

class ProjectContext:
    """Merged fact tables of every checked file (pass-2 input).

    Exposes the global views project rules consume; the per-file
    records stay reachable through :attr:`files` for rules that need
    per-class detail (the to_params/to_log_string twin check) or a
    finding's suppression map.
    """

    def __init__(self, files: Iterable[FileFacts]) -> None:
        self.files: List[FileFacts] = list(files)

        self.report_attrs: Set[str] = set()
        self.report_fields: Set[str] = set()
        #: wire key -> every class emitting it (via to_params OR wire)
        self.emitted_keys: Set[str] = set()
        #: wire key -> read anywhere (from_params or parse_report)
        self.read_keys: Set[str] = set()
        #: dataclass field -> wire keys from_params maps it to
        self.field_keys: Dict[str, Set[str]] = {}
        self.metric_emits: Set[str] = set()
        self.metric_prefixes: List[str] = []
        self.async_funcs: Set[str] = set()
        self.async_methods: Set[str] = set()
        self.sync_methods: Set[str] = set()
        #: path -> expanded suppression map (project-finding filtering)
        self.suppressions_by_path: Dict[
            str, Dict[int, Optional[FrozenSet[str]]]] = {}

        class_facts: Dict[str, ReportClassFacts] = {}
        for facts in self.files:
            class_facts.update(facts.report_classes)
            for rc in facts.report_classes.values():
                self.report_attrs.update(rc.attrs)
                self.report_fields.update(rc.fields)
                self.read_keys.update(rc.param_reads)
                for attr, keys in rc.kwarg_keys.items():
                    self.field_keys.setdefault(attr, set()).update(keys)
            self.read_keys.update(facts.global_param_reads)
            self.metric_emits.update(facts.metric_emits)
            self.metric_prefixes.extend(facts.metric_prefixes)
            self.async_funcs.update(facts.async_funcs)
            self.async_methods.update(facts.async_methods)
            self.sync_methods.update(facts.sync_methods)
            self.suppressions_by_path[facts.path] = facts.suppressions

        # emitted keys include what base classes emit (ActivityReport
        # inherits the header fields its ``_header()`` call produces)
        self._class_facts = class_facts
        for name in class_facts:
            self.emitted_keys.update(self.class_emitted(name))
        self.metric_prefixes = sorted(set(self.metric_prefixes))

    def class_emitted(self, class_name: str,
                      _seen: Optional[Set[str]] = None) -> Set[str]:
        """Wire keys ``class_name`` emits, own methods plus inherited."""
        seen = _seen if _seen is not None else set()
        if class_name in seen:
            return set()
        seen.add(class_name)
        rc = self._class_facts.get(class_name)
        if rc is None:
            return set()
        keys = set(rc.param_writes) | set(rc.wire_writes)
        for base in rc.bases:
            keys |= self.class_emitted(base, seen)
        return keys

    def emits_metric(self, name: str) -> bool:
        """Whether any instrumentation site can produce metric ``name``."""
        if name in self.metric_emits:
            return True
        return any(name.startswith(prefix)
                   for prefix in self.metric_prefixes)
