"""Two-pass project analysis: fact harvest, project rules, SARIF.

The harvest tests run against the *real* ``telemetry/reports.py`` and
``analysis/streaming.py`` modules, so a schema change there that the
harvester cannot see breaks loudly here -- the checker's own contract
with the codebase is itself under test.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.check import check_paths, check_source, engine, harvest_file
from repro.check.engine import RULESET_VERSION, Finding, Rule, all_rules
from repro.check.project import ProjectContext, module_of
from repro.experiments.cli import main as repro_main

REPO = Path(__file__).parent.parent
REPORTS = REPO / "src" / "repro" / "telemetry" / "reports.py"
STREAMING = REPO / "src" / "repro" / "analysis" / "streaming.py"


def _harvest(path: Path):
    source = path.read_text(encoding="utf-8")
    return harvest_file(ast.parse(source), str(path), source)


# --- pass 1: harvest on the real telemetry module -------------------------

def test_harvest_report_wire_schema():
    facts = _harvest(REPORTS)
    classes = facts.report_classes
    assert {"Report", "ActivityReport", "QoSReport", "TrafficReport",
            "PartnerReport"} <= set(classes)

    # header keys come from the base class's table; own keys from each
    # subclass's, read off its _wire_form decorator
    assert set(classes["Report"].field_keys.values()) == {
        "t", "node", "user", "sess"}
    assert set(classes["ActivityReport"].field_keys.values()) == {
        "ev", "try", "pub", "why"}
    assert set(classes["QoSReport"].field_keys.values()) == {
        "ci", "buf", "par", "play"}
    assert set(classes["TrafficReport"].field_keys.values()) == {
        "up", "down", "tup", "tdown"}
    assert set(classes["PartnerReport"].field_keys.values()) == {
        "np", "nin", "nout", "pev"}

    # every dataclass field is carried by its class's table or the
    # header's
    assert set(classes["Report"].fields) == set(classes["Report"].field_keys)
    for name in ("ActivityReport", "QoSReport", "TrafficReport",
                 "PartnerReport"):
        rc = classes[name]
        assert set(rc.fields) == set(rc.field_keys), name


def test_harvest_kwarg_to_wire_key_mapping():
    facts = _harvest(REPORTS)
    traffic = facts.report_classes["TrafficReport"]
    assert traffic.field_keys["total_up"] == "tup"
    assert traffic.field_keys["bytes_down"] == "down"
    qos = facts.report_classes["QoSReport"]
    assert qos.field_keys["continuity"] == "ci"
    partner = facts.report_classes["PartnerReport"]
    assert partner.field_keys["events"] == "pev"


def test_harvest_fold_reads_on_real_streaming_module():
    facts = _harvest(STREAMING)
    reads = {(cls, attr) for cls, attr, _, _ in facts.fold_reads}
    assert ("UploadTotalsFold", "total_up") in reads
    assert ("ContinuitySamplesFold", "continuity") in reads
    assert ("SessionTableFold", "session_id") in reads
    # delegating folds read no attributes directly
    assert not any(cls == "ConcurrentUsersFold" for cls, _ in reads)


def test_project_context_inherited_emits_cover_header():
    project = ProjectContext([_harvest(REPORTS)])
    # the header fields are carried by the base class's table
    assert {"time", "node_id", "user_id", "session_id", "continuity",
            "total_up"} <= set(project.field_keys)
    assert project.field_keys["time"] == {"t"}
    # and every field any report defines reaches the wire
    assert project.report_fields == set(project.field_keys)


def test_harvest_metric_emits_and_prefixes():
    src = (
        "def instrument(registry, obs, kind):\n"
        "    registry.counter('engine.events_executed')\n"
        "    obs.inc(f'rng.sanitizer.{kind}')\n"
        "    registry.gauge('run.live_peers')\n"
    )
    facts = harvest_file(ast.parse(src), "src/repro/x.py", src)
    assert set(facts.metric_emits) == {"engine.events_executed",
                                       "run.live_peers"}
    assert facts.metric_prefixes == ["rng.sanitizer."]
    project = ProjectContext([facts])
    assert project.emits_metric("rng.sanitizer.out_of_owner_draw")
    assert not project.emits_metric("rng.other.thing")


def test_module_of_maps_src_layout():
    assert module_of("src/repro/net/peer.py") == "repro.net.peer"
    assert module_of("src/repro/check/__init__.py") == "repro.check"
    assert module_of("standalone.py") == "standalone"


# --- pass 2: cross-file project rules -------------------------------------

def _write_tree(tmp_path, files):
    root = tmp_path / "proj"
    for name, body in files.items():
        p = root / name
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(body, encoding="utf-8")
    return str(root)


PRODUCER = (
    "from dataclasses import dataclass\n"
    "from repro.telemetry.reports import _wire_form\n"
    "@_wire_form(('t', 'time', '.3f'), ('rtt', 'rtt', '.4f'))\n"
    "@dataclass\n"
    "class PingReport:\n"
    "    time: float\n"
    "    rtt: float\n"
)


def test_sch001_fires_across_files(tmp_path):
    # the fold lives in a different module than the report: only the
    # merged project view can see the drifted read
    consumer = (
        "class RttFold:\n"
        "    def update(self, report):\n"
        "        self.acc = report.rtt + report.jitter\n"
    )
    root = _write_tree(tmp_path, {"producer.py": PRODUCER,
                                  "consumer.py": consumer})
    report = check_paths([root])
    assert [f.rule for f in report.findings] == ["SCH001"]
    assert "jitter" in report.findings[0].message
    assert report.findings[0].path.endswith("consumer.py")


def test_sch001_clean_when_schema_matches(tmp_path):
    consumer = (
        "class RttFold:\n"
        "    def update(self, report):\n"
        "        self.acc = report.rtt\n"
    )
    root = _write_tree(tmp_path, {"producer.py": PRODUCER,
                                  "consumer.py": consumer})
    assert check_paths([root]).findings == []


class _WarnOnPass(Rule):
    """A warn-severity rule: flags every ``pass`` statement."""

    id = "TST900"
    title = "pass statement"
    rationale = "exercises warn severity"
    severity = "warn"
    interests = ("Pass",)

    def on_node(self, node, ctx):
        yield Finding(rule=self.id, message="pass statement",
                      path=ctx.path, line=node.lineno, col=node.col_offset,
                      severity=self.severity)


@pytest.fixture
def warn_rule(monkeypatch):
    """:class:`_WarnOnPass`, registered for the one test."""
    rule = _WarnOnPass()
    monkeypatch.setitem(engine._REGISTRY, rule.id, rule)
    return rule


def test_sch002_is_warn_severity_and_does_not_gate_exit(tmp_path, capsys,
                                                        warn_rule):
    root = _write_tree(tmp_path, {"idle.py": "def idle():\n    pass\n"})
    report = check_paths([root])
    assert [f.rule for f in report.findings] == [warn_rule.id]
    assert report.findings[0].severity == "warn"
    assert report.exit_code == 0  # warn-only runs stay green
    assert repro_main(["check", root]) == 0
    assert "[warn]" in capsys.readouterr().out


def test_obs001_fires_across_files(tmp_path):
    emitter = "def instrument(reg):\n    reg.counter('pipe.blocks_in')\n"
    consumer = ("def render(m):\n"
                "    return m.get('pipe.blocks_in'), "
                "m.get('pipe.blocks_out')\n")
    root = _write_tree(tmp_path, {"emitter.py": emitter,
                                  "consumer.py": consumer})
    report = check_paths([root])
    assert [f.rule for f in report.findings] == ["OBS001"]
    # (membership-probing the dotted name directly would itself look
    # like a metric reference to the harvester)
    assert "blocks_out" in report.findings[0].message


def test_asy002_resolves_through_imports(tmp_path):
    helpers = ("import asyncio\n"
               "async def drain_queue():\n"
               "    await asyncio.sleep(0)\n")
    caller = ("from helpers import drain_queue\n"
              "def tick():\n"
              "    drain_queue()\n")
    root = _write_tree(tmp_path, {"helpers.py": helpers,
                                  "caller.py": caller})
    report = check_paths([root])
    assert [f.rule for f in report.findings] == ["ASY002"]
    assert report.findings[0].path.endswith("caller.py")


# --- satellite: multi-line noqa anchoring ---------------------------------

def test_noqa_on_any_line_of_a_wrapped_statement(tmp_path):
    # the finding anchors at line 3 (statement start); the marker sits
    # on the *continuation* line -- v1 missed this, v2 must not
    src = ("import random\n"
           "def f(xs):\n"
           "    return (random.random()\n"
           "            + len(xs))  # repro: noqa[DET001] wrapped stmt\n")
    assert check_source(src, path="src/repro/x.py") == []


def test_noqa_inner_statement_does_not_blanket_the_block():
    # a marker inside an if-body line covers that statement, not the
    # sibling statement above it
    src = ("import random\n"
           "def f(flag):\n"
           "    a = random.random()\n"
           "    if flag:\n"
           "        b = random.random()  # repro: noqa[DET001] inner\n"
           "    return a\n")
    findings = check_source(src, path="src/repro/x.py")
    assert [(f.rule, f.line) for f in findings] == [("DET001", 3)]


def test_noqa_on_a_wrapped_statement_suppresses_a_project_finding(tmp_path):
    # the SCH001 finding is cross-file (the fold reads a field no report
    # in producer.py defines); the marker on the statement's
    # continuation line still suppresses it through check_paths
    consumer = ("class RttFold:\n"
                "    def update(self, report):\n"
                "        self.acc = (report.rtt\n"
                "                    + report.jitter)")
    root = _write_tree(tmp_path, {"producer.py": PRODUCER,
                                  "consumer.py": consumer + "\n"})
    assert [f.rule for f in check_paths([root]).findings] == ["SCH001"]
    (Path(root) / "consumer.py").write_text(
        consumer + "  # repro: noqa[SCH001]\n", encoding="utf-8")
    assert check_paths([root]).findings == []


# --- satellite: SARIF output ----------------------------------------------

def _tree_with_findings(tmp_path):
    return _write_tree(tmp_path, {
        "producer.py": PRODUCER,
        "drifty.py": ("class JitterFold:\n"
                      "    def update(self, report):\n"
                      "        self.acc = report.jitter\n"),
        "dirty.py": "import random\nx = random.random()\n",
    })

def test_sarif_document_shape(tmp_path, capsys):
    root = _tree_with_findings(tmp_path)
    assert repro_main(["check", root, "--output", "sarif"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    (run,) = doc["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-check"
    assert driver["version"] == RULESET_VERSION
    assert {r["id"] for r in driver["rules"]} == \
        {r.id for r in all_rules()}
    assert run["results"], "expected SARIF results"
    for result in run["results"]:
        assert result["level"] in ("error", "warning")
        (loc,) = result["locations"]
        region = loc["physicalLocation"]["region"]
        assert region["startLine"] >= 1 and region["startColumn"] >= 1


def test_sarif_maps_warn_to_the_warning_level(tmp_path, capsys, warn_rule):
    root = _write_tree(tmp_path, {"idle.py": "def idle():\n    pass\n"})
    assert repro_main(["check", root, "--output", "sarif"]) == 0
    (run,) = json.loads(capsys.readouterr().out)["runs"]
    (meta,) = [r for r in run["tool"]["driver"]["rules"]
               if r["id"] == warn_rule.id]
    assert meta["defaultConfiguration"]["level"] == "warning"
    assert [r["level"] for r in run["results"]] == ["warning"]


def test_sarif_clean_run_has_no_results(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert repro_main(["check", str(clean), "--output", "sarif"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["runs"][0]["results"] == []
