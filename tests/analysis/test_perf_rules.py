"""The PF001-PF009 hot-path perf rules against their seeded fixture.

``perf_hazards.py`` plants every pattern twice: once reachable from its
fixture ``Environment.step`` (hot → error, ``[hot path]`` tag) and once
in module-level helpers no entry reaches (cold → warning).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.framework import lint_paths
from repro.analysis.perf_rules import set_hot_profile

from .test_static_rules import lines_for, lint_fixture, mark_lines

PF_RULES = [
    "PF001", "PF002", "PF003", "PF004", "PF005", "PF006", "PF007", "PF008",
    "PF009",
]


SRC = Path(__file__).parents[2] / "src"


def severities_at(findings, rule, lines):
    return {f.severity for f in findings if f.rule == rule and f.line in lines}


class TestPerfRules:
    @pytest.fixture(scope="class")
    def linted(self):
        return lint_fixture("perf_hazards.py", select=PF_RULES)

    # -- each rule fires exactly on its seeded lines -----------------------

    def test_pf001_lines(self, linted):
        source, findings = linted
        expected = set(
            mark_lines(source, "PF001-hot")
            + mark_lines(source, "PF001-reducer")
            + mark_lines(source, "PF001-cold")
        )
        assert lines_for(findings, "PF001") == expected

    def test_pf002_lines(self, linted):
        source, findings = linted
        expected = set(
            mark_lines(source, "PF002-hot") + mark_lines(source, "PF002-cold")
        )
        assert lines_for(findings, "PF002") == expected

    def test_pf003_lines(self, linted):
        source, findings = linted
        expected = set(
            mark_lines(source, "PF003-hot") + mark_lines(source, "PF003-cold")
        )
        assert lines_for(findings, "PF003") == expected

    def test_pf004_lines(self, linted):
        source, findings = linted
        expected = set(
            mark_lines(source, "PF004-hot") + mark_lines(source, "PF004-cold")
        )
        assert lines_for(findings, "PF004") == expected

    def test_pf005_hot_only(self, linted):
        source, findings = linted
        # Fires on the hot try, not on cold_retry nor on the
        # try-around-yield in _guarded_recv.
        assert lines_for(findings, "PF005") == set(
            mark_lines(source, "PF005-hot")
        )

    def test_pf006_lines(self, linted):
        source, findings = linted
        expected = set(
            mark_lines(source, "PF006-hot") + mark_lines(source, "PF006-cold")
        )
        assert lines_for(findings, "PF006") == expected

    def test_pf007_lines(self, linted):
        source, findings = linted
        expected = set(
            mark_lines(source, "PF007-hot") + mark_lines(source, "PF007-cold")
        )
        assert lines_for(findings, "PF007") == expected

    def test_pf007_tuple_entry_called_out(self, linted):
        source, findings = linted
        tuple_pushes = set(
            mark_lines(source, "PF007-hot")
            + mark_lines(source, "PF007-cold")[:1]  # the _push line
        )
        for f in findings:
            if f.rule != "PF007":
                continue
            assert ("tuple entry" in f.message) == (f.line in tuple_pushes)

    def test_pf008_lines(self, linted):
        source, findings = linted
        expected = set(
            mark_lines(source, "PF008-hot") + mark_lines(source, "PF008-cold")
        )
        # Module-level classes (Record, Environment) stay clean.
        assert lines_for(findings, "PF008") == expected

    def test_pf009_lines(self, linted):
        source, findings = linted
        expected = set(
            mark_lines(source, "PF009-hot") + mark_lines(source, "PF009-cold")
        )
        # cold_dump_once's json.dump is neither hot nor in a loop.
        assert lines_for(findings, "PF009") == expected

    # -- severity escalation on the hot path -------------------------------

    @pytest.mark.parametrize(
        "rule,hot_mark,cold_mark",
        [
            ("PF001", "PF001-hot", "PF001-cold"),
            ("PF002", "PF002-hot", "PF002-cold"),
            ("PF003", "PF003-hot", "PF003-cold"),
            ("PF004", "PF004-hot", "PF004-cold"),
            ("PF006", "PF006-hot", "PF006-cold"),
            ("PF007", "PF007-hot", "PF007-cold"),
            ("PF008", "PF008-hot", "PF008-cold"),
            ("PF009", "PF009-hot", "PF009-cold"),
        ],
    )
    def test_hot_error_cold_warning(self, linted, rule, hot_mark, cold_mark):
        source, findings = linted
        hot_lines = set(mark_lines(source, hot_mark))
        cold_lines = set(mark_lines(source, cold_mark))
        assert severities_at(findings, rule, hot_lines) == {"error"}
        assert severities_at(findings, rule, cold_lines) == {"warning"}

    def test_hot_findings_tagged(self, linted):
        _, findings = linted
        for f in findings:
            assert f.hot == (f.severity == "error")
            assert f.hot == f.message.endswith("[hot path]")

    def test_slotted_dataclass_clean(self, linted):
        source, findings = linted
        slotted = [
            i for i, line in enumerate(source.splitlines(), 1)
            if "SlottedRecord(" in line
        ]
        assert slotted
        assert not lines_for(findings, "PF004") & set(slotted)

    # -- measured profile widens the hot set -------------------------------

    def test_hot_profile_escalates_cold_function(self):
        set_hot_profile(["perf_hazards:cold_attr_loop"])
        try:
            source, findings = lint_fixture("perf_hazards.py", select=PF_RULES)
        finally:
            set_hot_profile(None)
        cold = set(mark_lines(source, "PF002-cold"))
        assert severities_at(findings, "PF002", cold) == {"error"}
        # Other cold functions stay warnings.
        assert severities_at(
            findings, "PF003", set(mark_lines(source, "PF003-cold"))
        ) == {"warning"}


def test_src_builds_no_json_encoder_per_record():
    assert lint_paths([str(SRC)], select=["PF009"]).findings == []
