"""Per-rule behaviour of the repro.check determinism lint.

Each rule ships three fixtures under ``tests/check_fixtures/``:
``<rule>_violations.py`` (every construct flagged), ``<rule>_suppressed.py``
(same constructs silenced with ``# repro: noqa[RULE]``), and
``<rule>_clean.py`` (the disciplined way to write the same thing).
Fixtures are checked under a virtual ``src/repro/...`` path so the
path-scoped rules (DET002 allowlist, FLT001 test exemption) behave as
they do on the real tree.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.check import all_rules, check_source

FIXTURES = Path(__file__).parent / "check_fixtures"

#: virtual location fixtures are checked "at" (inside the scanned tree,
#: outside every allowlist)
VIRTUAL = "src/repro/fixture_under_check.py"

#: how many findings the violations fixture of each rule must produce
EXPECTED_VIOLATIONS = {
    "DET001": 6,   # random.random/randint/choice/seed, np.normal, npr.rand
    "DET002": 4,   # time.time, monotonic, perf_counter, datetime.now
    "DET003": 5,   # for-set, list(set), comprehension, choice, shuffle
    "FLT001": 3,   # ==, !=, reversed ==
    "CFG001": 1,   # window_s unvalidated
    "ASY001": 4,   # time.sleep, open, create_connection, subprocess.run
    "ASY002": 2,   # bare coroutine call, bare async-method call
    "ASY003": 2,   # loop.create_task, asyncio.ensure_future
    "SCH001": 2,   # field no wire table carries, unknown attr
    "UNIT001": 5,  # blocks+s, s-blocks, kbps+bps, ms+=s, attr s+blocks
    "OBS001": 2,   # .get() miss + membership-probe miss
}

RULES = sorted(EXPECTED_VIOLATIONS)


def test_every_registered_rule_has_a_fixture_triple():
    assert set(RULES) == {r.id for r in all_rules()}


def check_fixture(name: str, path: str = VIRTUAL):
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return check_source(source, path=path)


@pytest.mark.parametrize("rule", RULES)
def test_violations_fixture_is_fully_flagged(rule):
    findings = check_fixture(f"{rule.lower()}_violations.py")
    assert len(findings) == EXPECTED_VIOLATIONS[rule]
    assert all(f.rule == rule for f in findings)
    # structured finding shape: location + actionable message
    for f in findings:
        assert f.line > 0 and f.col >= 0
        assert f.message


@pytest.mark.parametrize("rule", RULES)
def test_suppressed_fixture_is_silent(rule):
    assert check_fixture(f"{rule.lower()}_suppressed.py") == []


@pytest.mark.parametrize("rule", RULES)
def test_clean_fixture_is_silent(rule):
    assert check_fixture(f"{rule.lower()}_clean.py") == []


# --- path-scoped rules ----------------------------------------------------

def test_det002_allowlists_obs_and_telemetry_paths():
    for allowed in ("src/repro/obs/clock.py", "src/repro/telemetry/x.py"):
        assert check_fixture("det002_violations.py", path=allowed) == []


def test_flt001_exempts_test_files():
    assert check_fixture("flt001_violations.py",
                         path="tests/test_something.py") == []
    assert check_fixture("flt001_violations.py",
                         path="benchmarks/bench_x.py") == []


# --- rule-specific edges --------------------------------------------------

def test_det001_ignores_local_variables_named_random():
    src = "def f(random):\n    return random.random()\n"
    assert check_source(src, path=VIRTUAL) == []


def test_det001_flags_aliased_numpy_import():
    src = "import numpy as xp\n\ndef f():\n    return xp.random.rand()\n"
    findings = check_source(src, path=VIRTUAL)
    assert [f.rule for f in findings] == ["DET001"]


def test_det002_resolves_from_import_alias():
    src = ("from time import perf_counter as clock\n"
           "def f():\n    return clock()\n")
    findings = check_source(src, path=VIRTUAL)
    assert [f.rule for f in findings] == ["DET002"]


def test_det003_sorted_wrapping_is_clean():
    src = ("def f(xs, rng):\n"
           "    for x in sorted(set(xs)):\n"
           "        rng.choice(sorted({1, 2}))\n")
    assert check_source(src, path=VIRTUAL) == []


def test_cfg001_requires_post_init_and_validating_siblings():
    # no __post_init__: nothing to compare against
    src_no_post = ("from dataclasses import dataclass\n"
                   "@dataclass\nclass AConfig:\n    x: float = 1.0\n")
    assert check_source(src_no_post, path=VIRTUAL) == []
    # __post_init__ validates nothing: out of scope (no sibling precedent)
    src_no_sib = ("from dataclasses import dataclass\n"
                  "@dataclass\nclass BConfig:\n"
                  "    x: float = 1.0\n    y: float = 2.0\n"
                  "    def __post_init__(self):\n        pass\n")
    assert check_source(src_no_sib, path=VIRTUAL) == []
    # non-Config dataclasses are out of scope
    src_not_cfg = ("from dataclasses import dataclass\n"
                   "@dataclass\nclass Point:\n"
                   "    x: float = 1.0\n    y: float = 2.0\n"
                   "    def __post_init__(self):\n"
                   "        assert self.x > 0\n")
    assert check_source(src_not_cfg, path=VIRTUAL) == []


def test_cfg001_cross_field_checks_validate_both_operands():
    src = ("from dataclasses import dataclass\n"
           "@dataclass\nclass CConfig:\n"
           "    lo: float = 1.0\n    hi: float = 2.0\n"
           "    def __post_init__(self):\n"
           "        if self.lo > self.hi:\n"
           "            raise ValueError('lo > hi')\n")
    assert check_source(src, path=VIRTUAL) == []


def test_repro_tree_is_clean():
    """The shipped tree must stay lint-clean (acceptance criterion)."""
    from repro.check import check_paths

    src_root = Path(__file__).parent.parent / "src"
    report = check_paths([str(src_root)])
    assert report.errors == []
    assert report.findings == [], "\n".join(
        f.render() for f in report.findings)


def test_repro_tree_with_tests_is_clean():
    """The project pass over src *and* tests stays clean (CI gate)."""
    from repro.check import check_paths

    root = Path(__file__).parent.parent
    report = check_paths([str(root / "src"), str(root / "tests")])
    assert report.errors == []
    assert report.findings == [], "\n".join(
        f.render() for f in report.findings)


def test_fixture_directory_is_skipped_by_directory_expansion():
    """Expanding tests/ never picks up the deliberate-violation fixtures."""
    from repro.check.engine import iter_python_files

    files = iter_python_files([str(Path(__file__).parent)])
    assert files, "expected test files"
    assert not any("check_fixtures" in str(f) for f in files)


def test_sch001_reads_the_fields_a_wire_table_carries():
    # the field a fold reads must reach the log through some report's
    # _wire_form table: adding the entry mends the finding
    findings = check_fixture("sch001_violations.py")
    assert sorted(f.message for f in findings) == [
        "fold ChunkRateFold reads report.drops, a field no report's wire "
        "table carries",
        "fold ChunkRateFold reads report.stall_count, which no report "
        "class defines"]
    source = (FIXTURES / "sch001_violations.py").read_text(encoding="utf-8")
    mended = source.replace('("lag", "lag", ".3f"))',
                            '("lag", "lag", ".3f"), ("dr", "drops", ""))')
    assert mended != source
    assert [f.message for f in check_source(mended, path=VIRTUAL)] == [
        "fold ChunkRateFold reads report.stall_count, which no report "
        "class defines"]
