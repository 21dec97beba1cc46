"""Fixture-driven tests: every rule fires on bad code, stays silent on good.

Each rule has a ``<ruleid>_bad.py`` / ``<ruleid>_good.py`` pair under
``tests/fixtures/lint/``.  The bad file must produce at least the expected
findings *for that rule and no other*; the good file must produce no
findings at all (near-misses are part of the point).
"""

from __future__ import annotations

import pathlib
import re

import pytest

import repro
from repro.lint import LintConfig, LintEngine

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures" / "lint"

#: (rule id, fixture stem, expected symbols in the bad file).
CASES = [
    ("STER001", "ster001", {
        "socket", "urllib.request", "http.client", "ssl", "subprocess",
    }),
    ("DET001", "det001", {
        "random.choice", "random.random", "random.Random()",
    }),
    ("DET002", "det002", {
        "time.monotonic", "time.time", "time.perf_counter", "time.sleep",
        "datetime.datetime.now", "datetime.datetime.utcnow",
    }),
    ("DET003", "det003", {
        "list(set)", "join(set)", "for-in-set", "sample(set)",
    }),
    ("SAFE001", "safe001", {"collect", "index", "tag", "build"}),
    ("SAFE002", "safe002", {
        "bare-except", "except-Exception", "except-BaseException",
    }),
    ("SIM001", "sim001", {"Answer", "Header"}),
]


def fixture_engine() -> LintEngine:
    """An engine whose SIM001 record modules include the sim001 fixtures."""
    config = LintConfig(record_modules=("*sim001_*.py",))
    return LintEngine(config)


@pytest.mark.parametrize("rule_id,stem,symbols", CASES, ids=[c[0] for c in CASES])
class TestRuleFixtures:
    def test_bad_fixture_fires(self, rule_id, stem, symbols):
        findings = fixture_engine().lint_file(FIXTURES / f"{stem}_bad.py", FIXTURES)
        assert findings, f"{rule_id}: bad fixture produced no findings"
        assert {f.rule for f in findings} == {rule_id}, (
            f"{stem}_bad.py should only trip {rule_id}: {findings}"
        )
        assert {f.symbol for f in findings} == symbols
        assert all(f.line > 0 for f in findings)
        assert all(f.path == f"{stem}_bad.py" for f in findings)

    def test_good_fixture_is_silent(self, rule_id, stem, symbols):
        findings = fixture_engine().lint_file(FIXTURES / f"{stem}_good.py", FIXTURES)
        assert findings == [], f"{stem}_good.py should be clean: {findings}"


class TestEngineMechanics:
    def test_findings_sorted_and_deterministic(self):
        engine = fixture_engine()
        once = engine.lint_paths([FIXTURES], root=FIXTURES)
        twice = engine.lint_paths([FIXTURES], root=FIXTURES)
        assert once == twice
        assert once == sorted(once, key=lambda f: f.sort_key)

    def test_allowlist_suppresses(self):
        config = LintConfig(allow={"STER001": ("*ster001_bad.py",)})
        findings = LintEngine(config).lint_file(
            FIXTURES / "ster001_bad.py", FIXTURES
        )
        assert findings == []

    def test_select_restricts_rules(self):
        config = LintConfig(select=("DET002",))
        engine = LintEngine(config)
        findings = engine.lint_paths([FIXTURES], root=FIXTURES)
        rules = {f.rule for f in findings}
        assert "DET002" in rules
        # PARSE001 is exempt from --select: an unparseable file (the
        # program/parse_err fixture) cannot be checked for DET002 either.
        assert rules <= {"DET002", "PARSE001"}

    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n", encoding="utf-8")
        findings = fixture_engine().lint_file(bad, tmp_path)
        assert [f.rule for f in findings] == ["PARSE001"]

    def test_lint_source_string(self):
        findings = fixture_engine().lint_source("import socket\n", "inline.py")
        assert [f.rule for f in findings] == ["STER001"]
        assert findings[0].path == "inline.py"

    def test_rule_docs_complete(self):
        from repro.lint.engine import iter_rule_docs

        docs = list(iter_rule_docs())
        ids = [rule_id for rule_id, _, _ in docs]
        assert ids == sorted(set(ids)) or len(ids) == len(set(ids))
        for rule_id, title, rationale in docs:
            assert rule_id and title and rationale

    def test_docs_catalogue_lists_every_rule(self):
        from repro.lint.engine import iter_rule_docs

        doc = pathlib.Path(__file__).resolve().parent.parent / "docs" / "static_analysis.md"
        catalogue = doc.read_text(encoding="utf-8").split("## Rule catalogue", 1)[1]
        catalogue = catalogue.split("\n## ", 1)[0]
        rows = re.findall(r"^\| `([A-Z]+\d+)` \|", catalogue, flags=re.MULTILINE)
        assert len(rows) == len(set(rows)), f"duplicate catalogue rows: {rows}"
        assert set(rows) == {rule_id for rule_id, _, _ in iter_rule_docs()}


#: rule id -> (package, bad fixture, expected symbols, other rules the bad
#: fixture trips by design, good fixture).  The sterile-package rules are
#: path-scoped, so each rule's fixtures live under ``repro/<package>/``; the
#: OBS/SRV/WLD bad fixtures also make the calls DET001/DET002 police.
STERILE_CASES = {
    "FLT001": (
        "faults", "flt001_bad.py",
        {"random", "secrets", "uuid", "os.urandom"},
        set(), "flt001_good.py",
    ),
    "OBS001": (
        "obs", "obs001_bad.py",
        {"time", "datetime", "time.perf_counter", "datetime.now"},
        {"DET002"}, "obs001_good.py",
    ),
    "SRV001": (
        "serve", "srv001_bad.py",
        {"random", "time", "datetime", "time.time", "datetime.now"},
        {"DET001", "DET002"}, "srv001_good.py",
    ),
    "WLD001": (
        "worldbuilder", "wld001_bad.py",
        {"random", "time", "datetime", "time.time", "datetime.now"},
        {"DET001", "DET002"}, "wld001_good.py",
    ),
}

#: Spellings of host time or entropy that every sterile-package rule flags.
HOST_STATE_SPELLINGS = {
    "import time": "import time\n\nstamp = time.time()\n",
    "from time import perf_counter": "from time import perf_counter\n",
    "datetime.now": "from datetime import datetime\n\nstamp = datetime.now()\n",
    "import uuid": "import uuid\n",
    "import secrets": "import secrets\n",
    "from random import Random": "from random import Random\n",
    "import numpy.random": "import numpy.random\n",
    "from numpy import random": "from numpy import random\n",
    "os.urandom": "import os\n\nkey = os.urandom(8)\n",
    "os.getrandom": "import os\n\nkey = os.getrandom(8)\n",
}

#: The obs plane's wall-clock profiling module, exempt from OBS001 only.
PROFILING = FIXTURES / "repro" / "obs" / "profiling.py"


def rule_engine(rule_id: str) -> LintEngine:
    """An engine running one rule alone."""
    return LintEngine(LintConfig(select=(rule_id,)))


class SterileRuleCase:
    """Checks shared by the sterile-package rules; subclasses set ``RULE``.

    The per-rule classes keep the test ids the four rules had before they
    became one ``SterilePackage`` rule.
    """

    RULE: str

    def test_bad_fixture_fires(self):
        package, bad, symbols, also, _ = STERILE_CASES[self.RULE]
        findings = fixture_engine().lint_file(FIXTURES / "repro" / package / bad, FIXTURES)
        assert {f.rule for f in findings} == {self.RULE} | also, findings
        assert {f.symbol for f in findings if f.rule == self.RULE} == symbols
        assert all(f.path == f"repro/{package}/{bad}" for f in findings)

    def test_good_fixture_is_silent(self):
        package, _, _, _, good = STERILE_CASES[self.RULE]
        findings = fixture_engine().lint_file(FIXTURES / "repro" / package / good, FIXTURES)
        assert findings == [], f"{good} should be clean: {findings}"

    def check_scoped(self):
        package, bad = STERILE_CASES[self.RULE][:2]
        source = (FIXTURES / "repro" / package / bad).read_text(encoding="utf-8")
        findings = fixture_engine().lint_source(source, "repro/engine/elsewhere.py")
        assert self.RULE not in {f.rule for f in findings}

    def check_shipped_clean(self):
        package = STERILE_CASES[self.RULE][0]
        src_root = pathlib.Path(repro.__file__).resolve().parent.parent
        modules = sorted((src_root / "repro" / package).glob("*.py"))
        assert modules
        engine = rule_engine(self.RULE)
        for module in modules:
            findings = engine.lint_file(module, src_root)
            assert findings == [], f"{module.name}: {findings}"


class TestFaultPlanRule(SterileRuleCase):
    RULE = "FLT001"
    test_rule_is_scoped_to_faults_package = SterileRuleCase.check_scoped
    test_shipped_faults_package_is_clean = SterileRuleCase.check_shipped_clean


class TestObservabilityRule(SterileRuleCase):
    RULE = "OBS001"
    test_rule_is_scoped_to_obs_package = SterileRuleCase.check_scoped
    test_shipped_obs_package_is_clean = SterileRuleCase.check_shipped_clean

    def test_profiling_module_is_exempt(self):
        findings = rule_engine("OBS001").lint_file(PROFILING, FIXTURES)
        assert findings == [], f"profiling.py is the wall-clock channel: {findings}"


class TestServiceRule(SterileRuleCase):
    RULE = "SRV001"
    test_rule_is_scoped_to_serve_package = SterileRuleCase.check_scoped
    test_shipped_serve_package_is_clean = SterileRuleCase.check_shipped_clean


class TestWorldBuilderRule(SterileRuleCase):
    RULE = "WLD001"
    test_rule_is_scoped_to_worldbuilder_package = SterileRuleCase.check_scoped
    test_shipped_worldbuilder_package_is_clean = SterileRuleCase.check_shipped_clean


@pytest.mark.parametrize("spelling", sorted(HOST_STATE_SPELLINGS))
@pytest.mark.parametrize("rule_id", sorted(STERILE_CASES))
def test_sterile_rules_flag_every_host_state_spelling(rule_id, spelling):
    package = STERILE_CASES[rule_id][0]
    findings = rule_engine(rule_id).lint_source(
        HOST_STATE_SPELLINGS[spelling], f"repro/{package}/m.py"
    )
    assert findings, f"{rule_id} missed {spelling!r}"


@pytest.mark.parametrize("rule_id", ["FLT001", "SRV001", "WLD001"])
def test_profiling_module_outside_obs_is_not_exempt(rule_id):
    package = STERILE_CASES[rule_id][0]
    source = PROFILING.read_text(encoding="utf-8")
    findings = rule_engine(rule_id).lint_source(source, f"repro/{package}/profiling.py")
    assert {f.symbol for f in findings} == {"time", "time.perf_counter"}


class TestContainedFailuresRule:
    """SRV002 is path-scoped to ``repro/serve/``: a blanket handler there
    must re-raise or route the exception into the failure taxonomy.

    Its bad fixture also trips SAFE002 (by design — SRV002 is the stricter,
    service-scoped variant), so these tests select SRV002 alone.
    """

    BAD = FIXTURES / "repro" / "serve" / "srv002_bad.py"
    GOOD = FIXTURES / "repro" / "serve" / "srv002_good.py"

    @staticmethod
    def engine() -> LintEngine:
        return LintEngine(LintConfig(select=("SRV002",)))

    def test_bad_fixture_fires(self):
        findings = self.engine().lint_file(self.BAD, FIXTURES)
        assert findings, "SRV002 bad fixture produced no findings"
        assert {f.rule for f in findings} == {"SRV002"}
        assert sorted(f.symbol for f in findings) == [
            "bare-except", "except-Exception", "except-Exception",
        ]

    def test_good_fixture_is_silent(self):
        findings = self.engine().lint_file(self.GOOD, FIXTURES)
        assert findings == [], f"srv002_good.py should be clean: {findings}"

    def test_rule_is_scoped_to_serve_package(self):
        source = self.BAD.read_text(encoding="utf-8")
        findings = self.engine().lint_source(source, "repro/engine/elsewhere.py")
        assert findings == []

    def test_shipped_serve_package_is_clean(self):
        import repro.serve as serve_pkg

        package_dir = pathlib.Path(serve_pkg.__file__).resolve().parent
        engine = self.engine()
        for module in sorted(package_dir.glob("*.py")):
            findings = engine.lint_file(module, package_dir.parent.parent)
            assert findings == [], f"{module.name}: {findings}"
