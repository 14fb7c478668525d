"""Engine-level behaviour of repro.check: suppressions, output, exit codes."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.check import all_rules, check_paths, check_source
from repro.check.engine import CheckError, parse_suppressions
from repro.experiments.cli import main as repro_main

VIRTUAL = "src/repro/engine_under_test.py"

VIOLATING = "import random\n\ndef f():\n    return random.random()\n"


# --- suppression parsing --------------------------------------------------

def test_noqa_specific_rule_suppresses_only_that_rule():
    src = ("import random, time\n"
           "def f():\n"
           "    a = random.random()  # repro: noqa[DET001] justified\n"
           "    b = time.time()  # repro: noqa[DET001] wrong rule id\n"
           "    return a, b\n")
    findings = check_source(src, path=VIRTUAL)
    assert [f.rule for f in findings] == ["DET002"]


def test_bare_noqa_suppresses_every_rule():
    src = ("import random, time\n"
           "def f():\n"
           "    return random.random() + time.time()  # repro: noqa both ok\n")
    assert check_source(src, path=VIRTUAL) == []


def test_noqa_comma_list():
    src = ("import random, time\n"
           "def f():\n"
           "    return random.random() + time.time()"
           "  # repro: noqa[DET001, DET002] fixture\n")
    assert check_source(src, path=VIRTUAL) == []


def test_parse_suppressions_shapes():
    sup = parse_suppressions(
        "x = 1  # repro: noqa\n"
        "y = 2  # repro: noqa[DET001]\n"
        "z = 3  # plain comment\n")
    assert sup[1] is None
    assert sup[2] == frozenset({"DET001"})
    assert 3 not in sup


# --- rule selection -------------------------------------------------------

def test_select_and_ignore(tmp_path):
    f = tmp_path / "mod.py"
    f.write_text("import random, time\n"
                 "def g():\n"
                 "    return random.random() + time.time()\n")
    all_findings = check_paths([str(f)])
    assert sorted(x.rule for x in all_findings.findings) == \
        ["DET001", "DET002"]
    only = check_paths([str(f)], select=["DET001"])
    assert [x.rule for x in only.findings] == ["DET001"]
    without = check_paths([str(f)], ignore=["det001"])
    assert [x.rule for x in without.findings] == ["DET002"]
    with pytest.raises(CheckError):
        check_paths([str(f)], select=["NOPE999"])


# --- CLI: formats + exit codes --------------------------------------------

def _write(tmp_path: Path, name: str, body: str) -> str:
    p = tmp_path / name
    p.write_text(body, encoding="utf-8")
    return str(p)


def test_cli_exit_0_on_clean_tree(tmp_path, capsys):
    path = _write(tmp_path, "clean.py", "def f():\n    return 1\n")
    assert repro_main(["check", path]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_exit_1_with_findings_text(tmp_path, capsys):
    path = _write(tmp_path, "dirty.py", VIOLATING)
    assert repro_main(["check", path]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out and "dirty.py:4:" in out


def test_cli_exit_2_on_bad_path(capsys):
    assert repro_main(["check", "definitely/not/a/path.py"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_exit_2_on_syntax_error(tmp_path, capsys):
    path = _write(tmp_path, "broken.py", "def f(:\n")
    assert repro_main(["check", path]) == 2
    assert "cannot parse" in capsys.readouterr().err


def test_cli_exit_2_on_unknown_rule(tmp_path, capsys):
    path = _write(tmp_path, "clean.py", "x = 1\n")
    assert repro_main(["check", path, "--select", "NOPE"]) == 2


def test_cli_json_schema(tmp_path, capsys):
    path = _write(tmp_path, "dirty.py", VIOLATING)
    assert repro_main(["check", path, "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == 2
    assert doc["files_checked"] == 1
    assert doc["counts"] == {"DET001": 1}
    assert doc["errors"] == []
    assert set(doc) == {"version", "files_checked", "counts", "findings",
                        "errors"}
    (finding,) = doc["findings"]
    assert set(finding) == {"rule", "message", "path", "line", "col",
                            "severity"}
    assert finding["rule"] == "DET001"
    assert finding["severity"] == "error"
    assert finding["line"] == 4


def test_cli_json_clean(tmp_path, capsys):
    path = _write(tmp_path, "clean.py", "x = 1\n")
    assert repro_main(["check", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["findings"] == [] and doc["counts"] == {}


def test_cli_list_rules(capsys):
    assert repro_main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("DET001", "DET002", "DET003", "FLT001", "CFG001",
                 "ASY001", "ASY002", "ASY003", "SCH001", "OBS001",
                 "UNIT001"):
        assert rule in out


def test_registry_is_complete_and_sorted():
    ids = [r.id for r in all_rules()]
    assert ids == sorted(ids)
    assert set(ids) >= {"DET001", "DET002", "DET003", "FLT001", "CFG001",
                        "ASY001", "ASY002", "ASY003", "SCH001", "OBS001",
                        "UNIT001"}
    assert len(ids) >= 11  # acceptance criterion: --list-rules >= 11 ids


# --- python -m repro check dispatch ---------------------------------------

def test_repro_cli_dispatches_check(tmp_path, capsys):
    dirty = _write(tmp_path, "dirty.py", VIOLATING)
    assert repro_main(["check", dirty]) == 1
    assert "DET001" in capsys.readouterr().out
    clean = _write(tmp_path, "clean.py", "x = 1\n")
    assert repro_main(["check", clean]) == 0


def test_repro_cli_lists_check():
    # 'check' advertised next to campaign/parity in `python -m repro list`
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        assert repro_main(["list"]) == 0
    assert "check" in buf.getvalue().splitlines()
