"""Tests for the jets bench measurement harness and its A/B gate."""

from __future__ import annotations

import itertools
import json
import os
from types import SimpleNamespace

import pytest

import repro
import repro.bench.harness as harness
from repro.bench.cli import bench_main
from repro.bench.harness import (
    EVENT_GROWTH_TOLERANCE,
    BenchResult,
    SuiteRun,
    compare_runs,
    run_suite,
    run_workload,
    write_suite,
)
from repro.bench.workloads import SUITES, Workload


def toy_workload(name="toy", events=1000, sim_s=5.0, extra=None):
    def fn(quick):
        out = {"events": events, "sim_s": sim_s, "quick": quick}
        out.update(extra or {})
        return out

    return Workload(name=name, fn=fn, doc="toy")


class TestRunWorkload:
    def test_lifts_events_and_sim_s(self):
        r = run_workload(toy_workload(extra={"jobs": 7}))
        assert r.name == "toy"
        assert r.wall_s > 0
        assert r.events == 1000
        assert r.sim_s == 5.0
        assert r.events_per_s == pytest.approx(1000 / r.wall_s)
        assert r.peak_rss_kb > 0
        # Remaining keys become workload metadata.
        assert r.meta == {"quick": False, "jobs": 7}

    def test_quick_flag_reaches_workload(self):
        r = run_workload(toy_workload(), quick=True)
        assert r.meta["quick"] is True

    def test_repeats_run_the_workload_and_report_the_minimum(
        self, monkeypatch
    ):
        calls = []

        def fn(quick):
            calls.append(quick)
            return {"events": 10, "sim_s": 1.0}

        # Three rounds whose calls take 3, 1 and 2 seconds.
        ticks = iter([0.0, 3.0, 10.0, 11.0, 20.0, 22.0])
        monkeypatch.setattr(
            harness, "time", SimpleNamespace(perf_counter=lambda: next(ticks))
        )
        monkeypatch.setattr(harness, "SUITES", {"kernel": [Workload("w", fn)]})
        [r] = run_suite("kernel", repeats=3).results
        assert len(calls) == 3
        assert (r.wall_s, r.wall_median_s) == (1.0, 2.0)
        # events/s is derived from the reported (minimum) wall time.
        assert r.events_per_s == 10.0

    def test_rounds_alternate_the_order(self, monkeypatch):
        calls = []

        def named(name):
            return Workload(name, lambda quick: calls.append(name) or {})

        monkeypatch.setattr(
            harness, "SUITES", {"kernel": [named("a"), named("b")]}
        )
        run = run_suite("kernel", repeats=3)
        assert calls == ["a", "b", "b", "a", "a", "b"]
        assert [r.name for r in run.results] == ["a", "b"]

    def test_repeats_recorded_in_suite_json(self):
        run = SuiteRun(suite="kernel", quick=False, repeats=3)
        assert run.to_json()["repeats"] == 3


#: Every kept workload's deterministic output at quick size (``jobs_1m``
#: shrunk to 400 jobs): its kernel events and its meta.
FIG06 = {"records": 2560, "nodes": [64], "tasks_per_node": 4,
         "rate": 294.6, "completed": 256}
PINNED = {
    "event_churn": (6201, {"procs": 100, "rounds": 30}),
    "timeout_storm": (6300, {"procs": 150, "rounds": 40}),
    "resume_chain": (10100, {"procs": 50, "depth": 200, "checksum": 995000}),
    "far_future": (3200, {"procs": 100, "rounds": 30}),
    "interrupt_storm": (3722, {"procs": 60, "hits": 20}),
    "trace_query": (None, {"records": 2400, "queries": 20,
                           "checksum": 144000}),
    "aggregator_churn": (None, {"workers": 150, "cycles": 2000,
                                "placed": 3500}),
    "gauge_integral": (None, {"samples": 1000, "integrals": 600,
                              "checksum": 111649.0}),
    "fig06_rate": (11855, FIG06),
    "fig06_journal": (11855, {**FIG06, "journal_bytes": 109112}),
    "jobs_1m": (12766, {"records": 2880, "jobs": 400, "batch": 2000,
                        "window": 8192, "retained": 2880, "finished": 400}),
}


class TestSuiteRegistry:
    def test_known_suites(self):
        assert set(SUITES) == {"kernel", "macro"}
        for workloads in SUITES.values():
            assert workloads  # non-empty, in declaration order

    def test_unknown_suite_raises(self):
        with pytest.raises(KeyError):
            run_suite("nope")

    @pytest.mark.parametrize(
        "suite,name", [(s, wl.name) for s in SUITES for wl in SUITES[s]]
    )
    def test_quick_outputs_are_pinned(self, suite, name, monkeypatch):
        from repro.bench import workloads
        from repro.core import tasklist, worker

        monkeypatch.delenv("JETS_BENCH_SPILL", raising=False)
        monkeypatch.setattr(workloads, "_JOBS_1M_QUICK", 400)
        # Job and worker ids are process-wide; the journal spells them out.
        monkeypatch.setattr(tasklist, "_spec_seq", itertools.count())
        monkeypatch.setattr(worker, "_worker_seq", itertools.count())
        [r] = run_suite(suite, quick=True, only=[name]).results
        assert (r.events, r.meta) == PINNED[name]


class TestWriteAndLoad:
    def _run(self, walls):
        run = SuiteRun(suite="kernel", quick=False)
        for name, wall in walls.items():
            run.results.append(
                BenchResult(name=name, wall_s=wall, events=100, sim_s=1.0)
            )
        return run

    def test_round_trip(self, tmp_path):
        run = self._run({"a": 0.5, "b": 1.0})
        path = tmp_path / "BENCH_kernel.json"
        doc = write_suite(run, str(path))
        assert doc["schema"] == 1
        assert doc["suite"] == "kernel"
        assert set(doc["results"]) == {"a", "b"}
        assert doc == json.loads(path.read_text())
        first = BenchResult.from_json("a", doc["results"]["a"])
        assert first == run.results[0]

    def test_baseline_and_speedup_sections(self, tmp_path):
        run = self._run({"a": 0.5, "b": 1.0})
        baseline = {
            "schema": 1,
            "suite": "kernel",
            "results": {"a": {"wall_s": 1.0}, "b": {"wall_s": 0.5}},
        }
        doc = write_suite(
            run, str(tmp_path / "out.json"), baseline, "old.json"
        )
        assert doc["baseline"]["source"] == "old.json"
        assert doc["baseline"]["wall_s"] == {"a": 1.0, "b": 0.5}
        assert doc["speedup"] == {"a": 2.0, "b": 0.5}


class TestCompareRuns:
    def _run(self, name="w", wall=1.0, events=1000, meta=None):
        run = SuiteRun(suite="kernel", quick=False)
        run.results.append(
            BenchResult(
                name=name, wall_s=wall, events=events, meta=meta or {}
            )
        )
        return run

    def _baseline(self, name="w", wall=1.0, events=1000, meta=None):
        entry = {"wall_s": wall, "events": events}
        if meta:
            entry["meta"] = meta
        return {"schema": 1, "suite": "kernel", "results": {name: entry}}

    def test_within_threshold_is_ok(self):
        cmp = compare_runs(
            self._run(wall=1.2), self._baseline(wall=1.0), threshold_pct=25.0
        )
        assert cmp.ok
        assert cmp.walls["w"] == (1.0, 1.2, pytest.approx(1.0 / 1.2))

    def test_wall_regression_flagged(self):
        cmp = compare_runs(
            self._run(wall=1.5), self._baseline(wall=1.0), threshold_pct=25.0
        )
        assert not cmp.ok
        assert "wall" in cmp.regressions[0]

    def test_event_growth_flagged_even_when_wall_is_fine(self):
        grown = int(1000 * EVENT_GROWTH_TOLERANCE) + 10
        cmp = compare_runs(
            self._run(wall=0.5, events=grown), self._baseline(wall=1.0)
        )
        assert not cmp.ok
        assert "events" in cmp.regressions[0]

    def test_meta_mismatch_skips_not_compares(self):
        cmp = compare_runs(
            self._run(wall=9.9, meta={"n": 10}),
            self._baseline(wall=1.0, meta={"n": 1000}),
        )
        assert cmp.ok
        assert cmp.skipped and "parameters differ" in cmp.skipped[0]

    def test_workload_missing_from_baseline_skipped(self):
        cmp = compare_runs(
            self._run(name="new_thing"), self._baseline(name="other")
        )
        assert cmp.ok
        assert "not in baseline" in cmp.skipped[0]


#: A base tree's ``jets bench``: it keeps its arguments and writes the
#: given BENCH_kernel.json.
STUB = """import json, os, sys
open({argv!r}, "w").write(json.dumps(sys.argv[1:]))
out = sys.argv[sys.argv.index("--out-dir") + 1]
open(os.path.join(out, "BENCH_kernel.json"), "w").write({doc!r})
"""


def ab_fake_base(tmp_path, wall_s, events=6201, meta=None):
    """A/B quick ``event_churn`` against a stub base that reports it with
    the given wall, events and meta (by default this tree's outputs)."""
    core = tmp_path / "base" / "repro" / "core"
    core.mkdir(parents=True)
    (core.parent / "__init__.py").write_text("")
    (core / "__init__.py").write_text("")
    entry = {"wall_s": wall_s, "events": events, "peak_rss_kb": 1,
             "meta": meta or {"procs": 100, "rounds": 30}}
    doc = json.dumps({"results": {"event_churn": entry}})
    (core / "cli.py").write_text(
        STUB.format(argv=str(tmp_path / "argv"), doc=doc)
    )
    return bench_main([
        "--suite", "kernel", "--quick", "--only", "event_churn",
        "--against", str(tmp_path / "base"), "--out-dir", str(tmp_path),
    ])


class TestBenchCli:
    def test_missing_baseline_exits_two(self, tmp_path, capsys):
        assert bench_main(["--against", str(tmp_path / "nope")]) == 2
        # A directory that exists but holds no repro package.
        assert bench_main(["--against", str(tmp_path)]) == 2
        assert "holds no repro package" in capsys.readouterr().err

    def test_bad_out_dir_exits_two(self, tmp_path, capsys):
        assert bench_main(
            ["--out-dir", str(tmp_path / "missing")]
        ) == 2

    def test_suite_run_writes_json_and_gates(self, tmp_path, capsys):
        """A/A on this tree (the walls of a millisecond run are noise)."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        assert bench_main([
            "--suite", "kernel", "--quick", "--only", "gauge_integral",
            "--repeat", "2", "--against", src, "--out-dir", str(tmp_path),
            "--threshold", "10000",
        ]) == 0
        out = capsys.readouterr().out
        assert "round 1/2: base " in out and "round 2/2: this " in out
        doc = json.loads((tmp_path / "BENCH_kernel.json").read_text())
        assert doc["repeats"] == 2
        assert doc["baseline"]["source"] == src
        for part in doc["results"], doc["baseline"]["wall_s"], doc["speedup"]:
            assert set(part) == {"gauge_integral"}

    def test_regression_exit_code(self, tmp_path, capsys):
        assert ab_fake_base(tmp_path, wall_s=1e-6) == 1
        assert "REGRESSION: event_churn: wall" in capsys.readouterr().err
        # The base child gets only flags that every base tree accepts.
        argv = json.loads((tmp_path / "argv").read_text())
        assert argv[:6] + argv[7:] == [
            "bench", "--suite", "kernel", "--repeat", "1", "--out-dir",
            "--quick", "--only", "event_churn",
        ]

    @pytest.mark.parametrize("wall_s,events,meta,code,note", [
        (100.0, 1000, None, 1, "kernel events 6201 vs baseline 1000"),
        (1e-6, 6201, {"procs": 1}, 0, "event_churn: parameters differ"),
    ])
    def test_grown_events_fail_and_differing_meta_is_skipped(
        self, tmp_path, capsys, wall_s, events, meta, code, note
    ):
        assert ab_fake_base(tmp_path, wall_s, events, meta) == code
        assert note in "".join(capsys.readouterr())
