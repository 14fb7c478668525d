"""Two-pass project analysis: fact harvest, project rules, cache, SARIF.

The harvest tests run against the *real* ``telemetry/reports.py`` and
``analysis/streaming.py`` modules, so a schema change there that the
harvester cannot see breaks loudly here -- the checker's own contract
with the codebase is itself under test.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

from repro.check import check_paths, check_source, harvest_file
from repro.check.engine import RULESET_VERSION, all_rules
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

    # header keys come from the base class; own keys from each subclass
    assert set(classes["Report"].param_writes) == {
        "type", "t", "node", "user", "sess"}
    assert set(classes["ActivityReport"].param_writes) == {
        "ev", "try", "pub", "why"}
    assert set(classes["QoSReport"].param_writes) == {
        "ci", "buf", "par", "play"}
    assert set(classes["TrafficReport"].param_writes) == {
        "up", "down", "tup", "tdown"}
    assert set(classes["PartnerReport"].param_writes) == {
        "np", "nin", "nout", "pev"}

    # the f-string twins carry exactly the same keys (SCH001 pins this)
    for name in ("Report", "ActivityReport", "QoSReport",
                 "TrafficReport", "PartnerReport"):
        rc = classes[name]
        assert set(rc.wire_writes) == set(rc.param_writes), name


def test_harvest_kwarg_to_wire_key_mapping():
    facts = _harvest(REPORTS)
    traffic = facts.report_classes["TrafficReport"]
    assert traffic.kwarg_keys["total_up"] == ["tup"]
    assert traffic.kwarg_keys["bytes_down"] == ["down"]
    qos = facts.report_classes["QoSReport"]
    assert qos.kwarg_keys["continuity"] == ["ci"]
    # events=events is precomputed -- no extractable wire mapping
    partner = facts.report_classes["PartnerReport"]
    assert "events" not in partner.kwarg_keys


def test_harvest_global_parse_report_reads():
    facts = _harvest(REPORTS)
    assert "type" in facts.global_param_reads


def test_harvest_fold_reads_on_real_streaming_module():
    facts = _harvest(STREAMING)
    reads = {(cls, attr) for cls, attr, _, _ in facts.fold_reads}
    assert ("UploadTotalsFold", "total_up") in reads
    assert ("ContinuitySamplesFold", "continuity") in reads
    assert ("SessionTableFold", "session_id") in reads
    # delegating folds read no attributes directly
    assert not any(cls == "ConcurrentUsersFold" for cls, _ in reads)


def test_project_context_inherited_emits_cover_header():
    facts = _harvest(REPORTS)
    project = ProjectContext([facts])
    # subclass emits include the inherited header fields
    assert {"type", "t", "node", "user", "sess", "ci",
            "tup"} <= project.class_emitted("QoSReport") | \
        project.class_emitted("TrafficReport")
    assert "t" in project.class_emitted("QoSReport")
    # and the merged emitted-key table covers every consumed key
    assert project.read_keys <= project.emitted_keys


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
    "@dataclass\n"
    "class PingReport:\n"
    "    time: float\n"
    "    rtt: float\n"
    "    def to_params(self):\n"
    "        return {'t': f'{self.time:.3f}', 'rtt': f'{self.rtt:.4f}'}\n"
    "    @classmethod\n"
    "    def from_params(cls, p):\n"
    "        return cls(time=float(p['t']), rtt=float(p['rtt']))\n"
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


def test_sch002_is_warn_severity_and_does_not_gate_exit(tmp_path, capsys):
    producer = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class PingReport:\n"
        "    time: float\n"
        "    ttl: int\n"
        "    def to_params(self):\n"
        "        return {'t': f'{self.time:.3f}', 'ttl': str(self.ttl)}\n"
        "    @classmethod\n"
        "    def from_params(cls, p):\n"
        "        return cls(time=float(p['t']), ttl=0)\n"
    )
    root = _write_tree(tmp_path, {"producer.py": producer})
    report = check_paths([root])
    assert [f.rule for f in report.findings] == ["SCH002"]
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


# --- satellite: content-hash result cache ---------------------------------

def _tree_with_findings(tmp_path):
    return _write_tree(tmp_path, {
        "producer.py": PRODUCER,
        "drifty.py": ("class JitterFold:\n"
                      "    def update(self, report):\n"
                      "        self.acc = report.jitter\n"),
        "dirty.py": "import random\nx = random.random()\n",
    })


def test_cache_results_are_byte_identical(tmp_path):
    root = _tree_with_findings(tmp_path)
    cache_dir = str(tmp_path / "cache")

    plain = check_paths([root])
    cold = check_paths([root], cache_dir=cache_dir)
    warm = check_paths([root], cache_dir=cache_dir)

    baseline = [f.to_dict() for f in plain.findings]
    assert baseline  # the tree has DET001 + SCH001 findings
    assert [f.to_dict() for f in cold.findings] == baseline
    assert [f.to_dict() for f in warm.findings] == baseline
    plain_doc, warm_doc = plain.to_dict(), warm.to_dict()
    plain_doc.pop("cache"), warm_doc.pop("cache")
    assert json.dumps(plain_doc) == json.dumps(warm_doc)

    assert cold.cache_hits == 0 and cold.cache_misses == 3
    assert warm.cache_hits == 3 and warm.cache_misses == 0


def test_cache_serves_suppressions_and_project_facts(tmp_path):
    # project findings are recomputed from cached facts, including the
    # statement-span suppression map
    root = _write_tree(tmp_path, {
        "producer.py": PRODUCER,
        "consumer.py": ("class RttFold:\n"
                        "    def update(self, report):\n"
                        "        self.acc = (report.rtt\n"
                        "                    + report.jitter"
                        ")  # repro: noqa[SCH001]\n"),
    })
    cache_dir = str(tmp_path / "cache")
    cold = check_paths([root], cache_dir=cache_dir)
    warm = check_paths([root], cache_dir=cache_dir)
    assert cold.findings == [] and warm.findings == []
    assert warm.cache_hits == 2


def test_cache_invalidated_by_content_and_rule_set(tmp_path):
    root = _tree_with_findings(tmp_path)
    cache_dir = str(tmp_path / "cache")
    check_paths([root], cache_dir=cache_dir)

    # content change: only the touched file misses
    dirty = Path(root) / "dirty.py"
    dirty.write_text("import random\ny = random.random()\n")
    second = check_paths([root], cache_dir=cache_dir)
    assert second.cache_hits == 2 and second.cache_misses == 1

    # rule-set change: nothing is served from the old signature
    third = check_paths([root], cache_dir=cache_dir, select=["DET001"])
    assert third.cache_hits == 0 and third.cache_misses == 3
    assert [f.rule for f in third.findings] == ["DET001"]


def test_cli_cache_flag_round_trips(tmp_path, capsys):
    root = _tree_with_findings(tmp_path)
    cache_dir = str(tmp_path / "cache")
    assert repro_main(["check", root, "--cache", cache_dir, "--output", "json"]) == 1
    first = json.loads(capsys.readouterr().out)
    assert repro_main(["check", root, "--cache", cache_dir, "--output", "json"]) == 1
    second = json.loads(capsys.readouterr().out)
    assert first["findings"] == second["findings"]
    assert second["cache"]["hits"] == 3


# --- satellite: SARIF output ----------------------------------------------

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

    sch = [r for r in driver["rules"] if r["id"] == "SCH002"]
    assert sch[0]["defaultConfiguration"]["level"] == "warning"


def test_sarif_clean_run_has_no_results(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert repro_main(["check", str(clean), "--output", "sarif"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["runs"][0]["results"] == []
