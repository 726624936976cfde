"""The static rule sets against fixture modules with seeded violations."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.framework import lint_source
from repro.analysis.framework import rules_for

FIXTURES = Path(__file__).parent / "fixtures"


def mark_lines(source: str, mark: str) -> list[int]:
    """1-based line numbers carrying ``# MARK: <mark>`` comments."""
    return [
        i
        for i, line in enumerate(source.splitlines(), 1)
        if f"# MARK: {mark}" in line and line.split("# MARK:")[0].strip()
    ]


def lint_fixture(name: str, select=None):
    source = (FIXTURES / name).read_text()
    return source, lint_source(
        source, path=name, rules=rules_for(select) if select else None
    )


def lines_for(findings, rule: str) -> set[int]:
    return {f.line for f in findings if f.rule == rule}


class TestTraceRules:
    @pytest.fixture(scope="class")
    def linted(self):
        return lint_fixture("bad_trace_logging.py")

    def test_tr001_unknown_category(self, linted):
        source, findings = linted
        assert lines_for(findings, "TR001") == set(mark_lines(source, "TR001"))
        (f,) = [f for f in findings if f.rule == "TR001"]
        assert "job.qeued" in f.message
        assert f.severity == "error"

    def test_tr002_missing_key(self, linted):
        source, findings = linted
        expected = set(
            mark_lines(source, "TR002") + mark_lines(source, "TR002-nopayload")
        )
        assert lines_for(findings, "TR002") == expected

    def test_tr003_extra_key(self, linted):
        source, findings = linted
        assert lines_for(findings, "TR003") == set(mark_lines(source, "TR003"))
        (f,) = [f for f in findings if f.rule == "TR003"]
        assert "vibe" in f.message

    def test_tr004_dynamic_category(self, linted):
        source, findings = linted
        expected = set(
            mark_lines(source, "TR004")
            + mark_lines(source, "TR004-concat")
            + mark_lines(source, "TR004-wrongnoqa")
        )
        assert lines_for(findings, "TR004") == expected

    def test_branched_literal_category_is_clean(self, linted):
        source, findings = linted
        start = source.splitlines().index("    def branched_ok(self, ok):") + 1
        assert not [f for f in findings if start < f.line <= start + 14]

    def test_noqa_suppresses_only_matching_rule(self, linted):
        source, findings = linted
        suppressed = [
            i
            for i, line in enumerate(source.splitlines(), 1)
            if "noqa[TR004]" in line or "# repro: noqa" == line.split("#", 1)[-1].strip()
        ]
        for line in suppressed:
            assert not [f for f in findings if f.line == line]


class TestDeterminismRules:
    @pytest.fixture(scope="class")
    def linted(self):
        return lint_fixture("nondeterminism.py")

    def test_dt001_wall_clock(self, linted):
        source, findings = linted
        expected = set(
            mark_lines(source, "DT001")
            + mark_lines(source, "DT001-imported")
            + mark_lines(source, "DT001-datetime")
            + mark_lines(source, "DT001-aliased")
        )
        assert lines_for(findings, "DT001") == expected

    def test_dt002_global_random(self, linted):
        source, findings = linted
        expected = set(
            mark_lines(source, "DT002") + mark_lines(source, "DT002-imported")
        )
        assert lines_for(findings, "DT002") == expected

    def test_dt003_unseeded_numpy(self, linted):
        source, findings = linted
        expected = set(
            mark_lines(source, "DT003") + mark_lines(source, "DT003-global")
        )
        assert lines_for(findings, "DT003") == expected

    def test_seeded_default_rng_is_clean(self, linted):
        source, findings = linted
        seeded = [
            i
            for i, line in enumerate(source.splitlines(), 1)
            if "default_rng(42)" in line
        ]
        assert seeded and not [f for f in findings if f.line in seeded]

    def test_dt004_set_iteration(self, linted):
        source, findings = linted
        expected = set(
            mark_lines(source, "DT004")
            + mark_lines(source, "DT004-comprehension")
        )
        assert lines_for(findings, "DT004") == expected
        assert all(
            f.severity == "warning" for f in findings if f.rule == "DT004"
        )

    def test_noqa_suppresses_dt001(self, linted):
        source, findings = linted
        noqa = [
            i
            for i, line in enumerate(source.splitlines(), 1)
            if "noqa[DT001]" in line
        ]
        assert noqa and not [f for f in findings if f.line in noqa]


class TestSimkernelRules:
    @pytest.fixture(scope="class")
    def linted(self):
        return lint_fixture("simkernel_misuse.py")

    def test_sk001_non_generator_process(self, linted):
        source, findings = linted
        assert lines_for(findings, "SK001") == set(mark_lines(source, "SK001"))

    def test_sk002_run_inside_process(self, linted):
        source, findings = linted
        expected = set(
            mark_lines(source, "SK002") + mark_lines(source, "SK002-step")
        )
        assert lines_for(findings, "SK002") == expected

    def test_sk003_double_trigger(self, linted):
        source, findings = linted
        expected = set(
            mark_lines(source, "SK003") + mark_lines(source, "SK003-fail")
        )
        assert lines_for(findings, "SK003") == expected

    def test_rebound_event_not_flagged(self, linted):
        source, findings = linted
        rebind = source.splitlines().index(
            "    ev2 = env.event()  # rebound: the next succeed is a fresh event"
        ) + 1
        assert not [f for f in findings if f.line == rebind + 1]


class TestRuleSelection:
    def test_select_runs_only_named_rules(self):
        _, findings = lint_fixture("nondeterminism.py", select=["DT004"])
        assert findings and {f.rule for f in findings} == {"DT004"}

    def test_unknown_rule_id_raises(self):
        with pytest.raises(ValueError, match="unknown rule ids"):
            rules_for(["ZZ999"])

    def test_at_least_five_distinct_rules_fire_on_fixtures(self):
        fired = set()
        for name in (
            "bad_trace_logging.py",
            "nondeterminism.py",
            "simkernel_misuse.py",
        ):
            _, findings = lint_fixture(name)
            fired |= {f.rule for f in findings}
        assert len(fired) >= 5, fired


def test_repo_sources_lint_clean():
    """The shipped tree has no un-suppressed findings (acceptance gate)."""
    from repro.analysis.framework import lint_paths

    src = Path(__file__).parents[2] / "src"
    result = lint_paths([str(src)])
    assert not result.errors, result.errors
    assert not result.findings, "\n".join(f.render() for f in result.findings)
