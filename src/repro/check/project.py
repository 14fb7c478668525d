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
  :class:`FileFacts` record -- each report class's fields and the wire
  key its ``_wire_form`` table gives each field, report attributes each
  ``Fold.update`` touches, obs counter/gauge names emitted vs
  referenced, the async function inventory, plus the file's
  (statement-span-expanded) suppression map.
* :class:`ProjectContext` merges every file's facts into the global
  tables project rules (``SCH001``/``OBS001``/``ASY002``) check in
  pass 2.

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
    #: field -> the wire key its ``_wire_form`` table entry gives it
    field_keys: Dict[str, str] = field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        return {"bases": self.bases, "fields": self.fields,
                "attrs": self.attrs, "field_keys": self.field_keys}

    @classmethod
    def from_json(cls, d: Dict[str, Any]) -> "ReportClassFacts":
        return cls(bases=list(d["bases"]), fields=list(d["fields"]),
                   attrs=list(d["attrs"]), field_keys=dict(d["field_keys"]))


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


def _wire_table(node: ast.ClassDef) -> Optional[ast.Call]:
    """The class's ``@_wire_form(...)`` decorator call, if it has one."""
    for deco in node.decorator_list:
        if (isinstance(deco, ast.Call)
                and _terminal_name(deco.func) == "_wire_form"):
            return deco
    return None


def _is_report_class(node: ast.ClassDef, bases: List[str]) -> bool:
    if any(b == "Report" or b.endswith("Report") for b in bases):
        return True
    return _wire_table(node) is not None


def _is_fold_class(node: ast.ClassDef, bases: List[str]) -> bool:
    return (node.name == "Fold" or node.name.endswith("Fold")
            or any(b == "Fold" or b.endswith("Fold") for b in bases))


def _str_const(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _loc(node: ast.AST) -> Loc:
    return (getattr(node, "lineno", 1), getattr(node, "col_offset", 0))


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
        table = _wire_table(node)
        for entry in table.args if table is not None else ():
            if isinstance(entry, ast.Tuple) and len(entry.elts) >= 2:
                key, name = (_str_const(e) for e in entry.elts[:2])
                if key is not None and name is not None:
                    rc.field_keys[name] = key

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
    records stay reachable through :attr:`files` for a finding's
    suppression map.
    """

    def __init__(self, files: Iterable[FileFacts]) -> None:
        self.files: List[FileFacts] = list(files)

        self.report_attrs: Set[str] = set()
        self.report_fields: Set[str] = set()
        #: field -> the wire keys the report classes' tables give it
        self.field_keys: Dict[str, Set[str]] = {}
        self.metric_emits: Set[str] = set()
        self.metric_prefixes: List[str] = []
        self.async_funcs: Set[str] = set()
        self.async_methods: Set[str] = set()
        self.sync_methods: Set[str] = set()
        #: path -> expanded suppression map (project-finding filtering)
        self.suppressions_by_path: Dict[
            str, Dict[int, Optional[FrozenSet[str]]]] = {}

        for facts in self.files:
            for rc in facts.report_classes.values():
                self.report_attrs.update(rc.attrs)
                self.report_fields.update(rc.fields)
                for name, key in rc.field_keys.items():
                    self.field_keys.setdefault(name, set()).add(key)
            self.metric_emits.update(facts.metric_emits)
            self.metric_prefixes.extend(facts.metric_prefixes)
            self.async_funcs.update(facts.async_funcs)
            self.async_methods.update(facts.async_methods)
            self.sync_methods.update(facts.sync_methods)
            self.suppressions_by_path[facts.path] = facts.suppressions
        self.metric_prefixes = sorted(set(self.metric_prefixes))

    def emits_metric(self, name: str) -> bool:
        """Whether any instrumentation site can produce metric ``name``."""
        if name in self.metric_emits:
            return True
        return any(name.startswith(prefix)
                   for prefix in self.metric_prefixes)
