"""Bench support for the streaming memory gate: --only and --rss-budget-mb."""

from __future__ import annotations

import json

import pytest

from repro.bench.harness import run_suite
from repro.bench.workloads import SUITES, Workload


def toy_workload(name="toy", events=1000, sim_s=5.0):
    def fn(quick):
        return {"events": events, "sim_s": sim_s, "quick": quick}

    return Workload(name=name, fn=fn, doc="toy")


@pytest.fixture
def fake_suites(monkeypatch):
    import repro.bench.cli as cli
    import repro.bench.harness as harness

    fake = {
        "kernel": [toy_workload("a"), toy_workload("b"), toy_workload("c")]
    }
    monkeypatch.setattr(harness, "SUITES", fake)
    monkeypatch.setattr(cli, "SUITES", fake)
    return fake


class TestOnlyFilter:
    def test_only_restricts_to_named_workloads(self, fake_suites):
        run = run_suite("kernel", only=["c", "a"])
        assert [r.name for r in run.results] == ["a", "c"]

    def test_unknown_only_name_raises_with_listing(self, fake_suites):
        with pytest.raises(KeyError, match="nope"):
            run_suite("kernel", only=["a", "nope"])

    def test_cli_only_flag(self, fake_suites, tmp_path, capsys):
        from repro.bench.cli import bench_main

        assert bench_main(
            ["--suite", "kernel", "--only", "b", "--out-dir", str(tmp_path)]
        ) == 0
        doc = json.loads((tmp_path / "BENCH_kernel.json").read_text())
        assert set(doc["results"]) == {"b"}

    def test_cli_unknown_only_exits_two(self, fake_suites, tmp_path, capsys):
        from repro.bench.cli import bench_main

        rc = bench_main(
            ["--suite", "kernel", "--only", "nope", "--out-dir", str(tmp_path)]
        )
        assert rc == 2
        assert "nope" in capsys.readouterr().err


class TestRssBudget:
    def test_budget_above_usage_passes(self, fake_suites, tmp_path, capsys):
        from repro.bench.cli import bench_main

        # Any real process RSS is far below a terabyte.
        assert bench_main([
            "--suite", "kernel", "--only", "a", "--rss-budget-mb", "1000000",
            "--out-dir", str(tmp_path),
        ]) == 0

    def test_budget_below_usage_fails(self, fake_suites, tmp_path, capsys):
        from repro.bench.cli import bench_main

        # ...and always above one megabyte.
        rc = bench_main([
            "--suite", "kernel", "--only", "a", "--rss-budget-mb", "1",
            "--out-dir", str(tmp_path),
        ])
        assert rc == 1
        assert "RSS BUDGET EXCEEDED" in capsys.readouterr().err


class TestFlagRanges:
    @pytest.mark.parametrize("flag,value", [
        ("--repeat", "0"), ("--repeat", "-3"), ("--profile-top", "0"),
        ("--rss-budget-mb", "-1"), ("--threshold", "-100"),
    ])
    def test_out_of_range_value_is_a_usage_error(
        self, fake_suites, tmp_path, capsys, flag, value
    ):
        from repro.bench.cli import bench_main

        with pytest.raises(SystemExit) as exc:
            bench_main(
                ["--suite", "kernel", flag, value, "--out-dir", str(tmp_path)]
            )
        assert exc.value.code == 2
        assert f"{flag} must be positive" in capsys.readouterr().err


class TestMacroSuiteRegistration:
    def test_jobs_1m_is_a_macro_workload(self):
        # e2ebench's mpi_wireup and chaos_campaign time Fig. 9 and the
        # campaigns; the macro suite keeps only what e2ebench does not.
        names = [wl.name for wl in SUITES["macro"]]
        assert names == ["fig06_rate", "fig06_journal", "jobs_1m"]

    def test_jobs_1m_streams_and_balances(self, monkeypatch, tmp_path):
        """A scaled-down jobs_1m pass: streaming sink, spill, accounting.

        The real quick size takes seconds; this shrinks the wave size via
        the workload's own environment knob (spill path) and asserts the
        invariants the memory gate relies on: every submitted job
        finishes and the retained window stays at the configured cap
        while the all-time record count keeps growing past it.
        """
        from repro.bench import workloads

        spill = tmp_path / "jobs.jsonl"
        monkeypatch.setenv("JETS_BENCH_SPILL", str(spill))
        monkeypatch.setattr(workloads, "_JOBS_1M_QUICK", 400)
        out = workloads._jobs_1m(quick=True)
        assert out["finished"] == out["jobs"]
        assert out["events"] > out["jobs"]
        assert out["retained"] <= out["window"]
        lines = spill.read_text().splitlines()
        assert json.loads(lines[-1])["meta"] == "perf"
        assert len(lines) - 1 == json.loads(lines[-1])["records"]
