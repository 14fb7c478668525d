"""Rule-engine core: visitor dispatch, registry, suppressions, reports.

Design
------

* Each :class:`Rule` declares the AST node-type names it wants
  (``interests``); :func:`check_source` walks the tree **once** and
  dispatches every node to the interested rules, so adding rules does
  not add tree walks.
* Rules receive a :class:`FileContext` carrying the parsed tree, the
  import alias map (``np`` -> ``numpy``, ``perf_counter`` ->
  ``time.perf_counter``, ...) and a :meth:`FileContext.finding` helper.
* Findings on a line carrying ``# repro: noqa[RULE]`` (or a bare
  ``# repro: noqa``) are dropped after collection, so suppressed and
  unsuppressed occurrences share one code path.  A marker anywhere on a
  multi-line statement covers the whole statement (span expansion in
  :mod:`repro.check.project`).
* v2 adds a second pass: per-file checking also *harvests* cross-module
  facts (:func:`repro.check.project.harvest_file`); rules with
  ``project = True`` then run once against the merged
  :class:`~repro.check.project.ProjectContext` instead of per file.
  Their findings anchor at harvested source locations, so suppression
  and sorting are shared with per-file findings.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (TYPE_CHECKING, Dict, FrozenSet, Iterable, Iterator,
                    List, Optional, Tuple)

if TYPE_CHECKING:  # import cycle: project.py uses collect_aliases
    from repro.check.project import FileFacts, ProjectContext

__all__ = [
    "CheckError",
    "CheckReport",
    "FileContext",
    "Finding",
    "RULESET_VERSION",
    "Rule",
    "all_rules",
    "check_paths",
    "check_source",
    "collect_aliases",
    "register",
    "resolve_name",
]

#: bump whenever rule behavior changes -- SARIF reports it as the tool
#: version
RULESET_VERSION = "2.0"


class CheckError(Exception):
    """Usage-level failure (bad path, unknown rule): CLI exit code 2."""


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    message: str
    path: str
    line: int
    col: int
    #: ``"error"`` findings gate the exit code; ``"warn"`` ones surface
    #: drift worth a look without failing CI
    severity: str = "error"

    def render(self) -> str:
        """``path:line:col: RULE message`` -- the text output format."""
        tag = "" if self.severity == "error" else f"[{self.severity}] "
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule} {tag}{self.message}")

    def to_dict(self) -> Dict[str, object]:
        """JSON-output form (stable key set; see docs/README)."""
        return {"rule": self.rule, "message": self.message,
                "path": self.path, "line": self.line, "col": self.col,
                "severity": self.severity}

    @property
    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


# --------------------------------------------------------------------------
# suppression comments
# --------------------------------------------------------------------------

#: ``# repro: noqa`` or ``# repro: noqa[DET001]`` / ``[DET001,FLT001]``
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?")


def parse_suppressions(source: str) -> Dict[int, Optional[FrozenSet[str]]]:
    """Map 1-based line number -> suppressed rule ids (``None`` = all).

    Works on raw source lines, so suppressions inside strings would also
    count; in practice the marker is unusual enough that this classic
    linter simplification is fine.
    """
    out: Dict[int, Optional[FrozenSet[str]]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        m = _NOQA_RE.search(text)
        if not m:
            continue
        rules = m.group("rules")
        if rules is None:
            out[lineno] = None  # blanket suppression
        else:
            ids = frozenset(r.strip().upper()
                            for r in rules.split(",") if r.strip())
            prev = out.get(lineno, frozenset())
            out[lineno] = None if prev is None else (prev | ids)
    return out


def _suppressed(finding: Finding,
                noqa: Dict[int, Optional[FrozenSet[str]]]) -> bool:
    entry = noqa.get(finding.line, frozenset())
    if entry is None and finding.line in noqa:
        return True
    return bool(entry) and finding.rule in entry  # type: ignore[operator]


# --------------------------------------------------------------------------
# import alias resolution
# --------------------------------------------------------------------------

def collect_aliases(tree: ast.AST) -> Dict[str, str]:
    """Local name -> fully qualified import path for the whole module.

    ``import numpy as np`` maps ``np -> numpy``; ``from time import
    perf_counter`` maps ``perf_counter -> time.perf_counter``.  Relative
    imports are skipped (their absolute prefix is unknown and no rule
    targets package-internal names).
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname:
                    aliases[a.asname] = a.name
                else:
                    head = a.name.split(".")[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.level or not node.module:
                continue
            for a in node.names:
                if a.name == "*":
                    continue
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    return aliases


def _dotted(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def resolve_name(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Fully qualified name of a (possibly dotted) expression, or None.

    Only expressions whose head is an *imported* name resolve -- a local
    variable that happens to be called ``random`` never false-positives.
    """
    dotted = _dotted(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    full = aliases.get(head)
    if full is None:
        return None
    return f"{full}.{rest}" if rest else full


# --------------------------------------------------------------------------
# file context + rule base
# --------------------------------------------------------------------------

class FileContext:
    """Everything a rule may want to know about the file under check."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.aliases = collect_aliases(tree)

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Qualified name of ``node`` through this file's imports."""
        return resolve_name(node, self.aliases)

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        """A :class:`Finding` anchored at ``node``'s location."""
        return Finding(
            rule=rule.id,
            message=message,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            severity=rule.severity,
        )


class Rule:
    """Base class: subclass, set ``id``/``title``/``interests``, register.

    ``interests`` names AST node classes (``"Call"``, ``"Compare"``,
    ``"ClassDef"``, ...); :meth:`on_node` is invoked for each matching
    node in a single shared tree walk and yields findings.

    Rules with ``project = True`` skip the per-file walk entirely and
    implement :meth:`check_project` instead: one invocation against the
    merged fact tables of every checked file.
    """

    id: str = ""
    title: str = ""
    #: one-line rationale shown by ``--list-rules``
    rationale: str = ""
    #: default severity of this rule's findings
    severity: str = "error"
    #: True for cross-module rules driven by the ProjectContext
    project: bool = False
    interests: Tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        """Whether the rule runs on this file at all (path-based scoping)."""
        return True

    def begin_file(self, ctx: FileContext) -> None:
        """Per-file setup hook (alias maps are already on ``ctx``)."""

    def on_node(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        """Findings for one node of an interested type."""
        return iter(())

    def end_file(self, ctx: FileContext) -> Iterator[Finding]:
        """Findings emitted after the walk (cross-node rules)."""
        return iter(())

    def check_project(self, project: "ProjectContext") -> Iterator[Finding]:
        """Findings computed from the merged project fact tables."""
        return iter(())

    def project_finding(self, path: str, line: int, col: int,
                        message: str) -> Finding:
        """A :class:`Finding` anchored at a harvested fact location."""
        return Finding(rule=self.id, message=message, path=path,
                       line=line, col=col, severity=self.severity)


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

_REGISTRY: Dict[str, Rule] = {}


def register(rule_cls: type) -> type:
    """Class decorator adding one instance of ``rule_cls`` to the registry."""
    rule = rule_cls()
    if not rule.id:
        raise ValueError(f"rule {rule_cls.__name__} has no id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    _REGISTRY[rule.id] = rule
    return rule_cls


def all_rules() -> List[Rule]:
    """Registered rules, sorted by id."""
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def select_rules(select: Optional[Iterable[str]] = None,
                 ignore: Optional[Iterable[str]] = None) -> List[Rule]:
    """The active rule set after ``--select`` / ``--ignore`` filters."""
    rules = all_rules()
    known = {r.id for r in rules}
    for requested in list(select or []) + list(ignore or []):
        if requested.upper() not in known:
            raise CheckError(
                f"unknown rule {requested!r}; known: {', '.join(sorted(known))}"
            )
    if select:
        wanted = {s.upper() for s in select}
        rules = [r for r in rules if r.id in wanted]
    if ignore:
        dropped = {s.upper() for s in ignore}
        rules = [r for r in rules if r.id not in dropped]
    return rules


# --------------------------------------------------------------------------
# checking
# --------------------------------------------------------------------------

def _file_pass(source: str, path: str,
               rules: List[Rule]) -> Tuple["FileFacts", List[Finding]]:
    """Pass 1 on one file: parse, harvest facts, run per-file rules.

    Returns the harvested facts plus the (suppression-filtered, sorted)
    per-file findings.
    """
    from repro.check.project import harvest_file

    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise CheckError(f"{path}: cannot parse: {exc.msg} "
                         f"(line {exc.lineno})") from exc
    facts = harvest_file(tree, path, source)

    ctx = FileContext(path, source, tree)
    active = [r for r in rules
              if not r.project and r.applies_to(path)]
    findings: List[Finding] = []
    if active:
        dispatch: Dict[str, List[Rule]] = {}
        for rule in active:
            rule.begin_file(ctx)
            for name in rule.interests:
                dispatch.setdefault(name, []).append(rule)
        for node in ast.walk(tree):
            for rule in dispatch.get(type(node).__name__, ()):
                findings.extend(rule.on_node(node, ctx))
        for rule in active:
            findings.extend(rule.end_file(ctx))

    findings = [f for f in findings
                if not _suppressed(f, facts.suppressions)]
    findings.sort(key=lambda f: f.sort_key)
    return facts, findings


def _project_pass(all_facts: List["FileFacts"],
                  rules: List[Rule]) -> List[Finding]:
    """Pass 2: run project rules against the merged fact tables."""
    from repro.check.project import ProjectContext

    active = [r for r in rules if r.project]
    if not active:
        return []
    project = ProjectContext(all_facts)
    findings: List[Finding] = []
    for rule in active:
        findings.extend(rule.check_project(project))
    kept = []
    for f in findings:
        noqa = project.suppressions_by_path.get(f.path, {})
        if not _suppressed(f, noqa):
            kept.append(f)
    kept.sort(key=lambda f: f.sort_key)
    return kept


def check_source(source: str, path: str = "<string>",
                 rules: Optional[List[Rule]] = None) -> List[Finding]:
    """Check one source string; raises :class:`CheckError` on syntax errors.

    Project rules run against a single-file project view, so contract
    rules still fire on a self-contained file (the fixture triples rely
    on this); cross-file analysis needs :func:`check_paths`.
    """
    if rules is None:
        rules = all_rules()
    facts, findings = _file_pass(source, path, rules)
    findings = findings + _project_pass([facts], rules)
    findings.sort(key=lambda f: f.sort_key)
    return findings


@dataclass
class CheckReport:
    """Outcome of checking a path set."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def counts(self) -> Dict[str, int]:
        """Findings per rule id (sorted keys, stable JSON)."""
        out: Dict[str, int] = {}
        for f in self.findings:
            out[f.rule] = out.get(f.rule, 0) + 1
        return dict(sorted(out.items()))

    @property
    def exit_code(self) -> int:
        """0 clean (warn-only counts as clean), 1 error-severity
        findings, 2 any file-level error."""
        if self.errors:
            return 2
        if any(f.severity == "error" for f in self.findings):
            return 1
        return 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": 2,
            "files_checked": self.files_checked,
            "counts": self.counts,
            "findings": [f.to_dict() for f in self.findings],
            "errors": list(self.errors),
        }


def iter_python_files(paths: Iterable[str]) -> List[Path]:
    """Expand files/directories to a sorted, de-duplicated ``.py`` list."""
    seen = {}
    for raw in paths:
        p = Path(raw)
        if not p.exists():
            raise CheckError(f"no such file or directory: {raw}")
        if p.is_dir():
            # check_fixtures hold deliberate violations for the rule
            # tests -- expanding a directory never picks them up (naming
            # a fixture file explicitly still checks it)
            candidates = sorted(
                f for f in p.rglob("*.py")
                if not any(part.startswith(".") or part == "check_fixtures"
                           for part in f.parts)
            )
        elif p.suffix == ".py":
            candidates = [p]
        else:
            raise CheckError(f"not a python file: {raw}")
        for f in candidates:
            seen[str(f)] = f
    return [seen[k] for k in sorted(seen)]


def check_paths(paths: Iterable[str],
                select: Optional[Iterable[str]] = None,
                ignore: Optional[Iterable[str]] = None) -> CheckReport:
    """Check every ``.py`` file under ``paths`` with the active rule set.

    Two passes: per-file rules run while harvesting each file's fact
    record; project rules then run once over the merged tables.
    """
    rules = select_rules(select, ignore)
    report = CheckReport()
    all_facts: List["FileFacts"] = []
    for path in iter_python_files(paths):
        try:
            source = path.read_bytes().decode("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            report.errors.append(f"{path}: cannot read: {exc}")
            continue
        try:
            facts, findings = _file_pass(source, str(path), rules)
        except CheckError as exc:
            report.errors.append(str(exc))
            continue
        all_facts.append(facts)
        report.findings.extend(findings)
        report.files_checked += 1
    report.findings.extend(_project_pass(all_facts, rules))
    report.findings.sort(key=lambda f: f.sort_key)
    return report
