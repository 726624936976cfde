"""The ``jets bench --profile`` pass: stable ids, JSON layout, CLI."""

from __future__ import annotations

import inspect
import json

import pytest

from repro.bench.harness import (
    function_id,
    profile_suite,
    profile_workload,
    write_profile,
)
from repro.bench.workloads import Workload


def sim_workload(name="sim", steps=200):
    """A real (tiny) kernel run, so profiled frames hit repro code."""

    def fn(quick):
        from repro.simkernel.core import Environment

        env = Environment()

        def proc():
            for _ in range(steps):
                yield env.timeout(1)

        env.process(proc())
        env.run()
        return {}

    return Workload(name=name, fn=fn, doc="profile fixture")


class TestFunctionIds:
    def test_method_qualname_recovered(self):
        from repro.simkernel.core import Environment

        path = inspect.getsourcefile(Environment.step)
        line = Environment.step.__code__.co_firstlineno
        assert (
            function_id(path, line, "step")
            == "repro.simkernel.core:Environment.step"
        )

    def test_unknown_line_falls_back_to_bare_name(self):
        from repro.simkernel import core

        path = inspect.getsourcefile(core)
        assert function_id(path, 10**9, "mystery") == (
            "repro.simkernel.core:mystery"
        )


class TestProfileWorkload:
    def test_project_frames_ranked_by_cumtime(self):
        entries = profile_workload(sim_workload(), top=10)
        assert entries
        assert len(entries) <= 10
        ids = [e["id"] for e in entries]
        assert all(i.startswith("repro.") for i in ids)
        assert "repro.simkernel.core:Environment.run" in ids
        cums = [e["cumtime"] for e in entries]
        assert cums == sorted(cums, reverse=True)
        for e in entries:
            assert set(e) == {"id", "ncalls", "tottime", "cumtime"}

    def test_top_truncates(self):
        assert len(profile_workload(sim_workload(), top=3)) == 3


class TestWriteProfile:
    def test_round_trips_through_load_profile(self, tmp_path):
        from repro.analysis.callgraph import load_profile

        workloads = profile_suite_dict = {
            "sim": profile_workload(sim_workload(), top=5)
        }
        path = tmp_path / "BENCH_profile.json"
        doc = write_profile(profile_suite_dict, str(path), quick=True, top=5)
        assert doc["kind"] == "profile"
        ids, loaded = load_profile(str(path))
        assert "repro.simkernel.core:Environment.run" in ids
        assert loaded["workloads"].keys() == workloads.keys()

    def test_profile_suite_unknown_raises(self):
        with pytest.raises(KeyError):
            profile_suite("nope")


class TestBenchCliProfile:
    def test_writes_bench_profile_json(self, tmp_path, monkeypatch, capsys):
        import repro.bench.cli as cli
        import repro.bench.harness as harness

        fake = {"kernel": [sim_workload("a"), sim_workload("b", steps=50)]}
        monkeypatch.setattr(harness, "SUITES", fake)
        monkeypatch.setattr(cli, "SUITES", fake)
        assert cli.bench_main([
            "--suite", "kernel", "--out-dir", str(tmp_path),
            "--profile", "--profile-top", "5",
        ]) == 0
        path = tmp_path / "BENCH_profile.json"
        doc = json.loads(path.read_text())
        assert set(doc["workloads"]) == {"a", "b"}
        assert all(len(v) <= 5 for v in doc["workloads"].values())
        # The timed results file carries no profiling contamination:
        # it is written before the profile pass and holds only timing.
        timed = json.loads((tmp_path / "BENCH_kernel.json").read_text())
        assert "workloads" not in timed
        assert set(timed["results"]) == {"a", "b"}

    def test_no_profile_flag_writes_nothing(self, tmp_path, monkeypatch):
        import repro.bench.cli as cli
        import repro.bench.harness as harness

        fake = {"kernel": [sim_workload("a", steps=20)]}
        monkeypatch.setattr(harness, "SUITES", fake)
        monkeypatch.setattr(cli, "SUITES", fake)
        assert cli.bench_main([
            "--suite", "kernel", "--out-dir", str(tmp_path),
        ]) == 0
        assert not (tmp_path / "BENCH_profile.json").exists()
