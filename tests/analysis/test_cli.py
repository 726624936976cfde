"""Exit-code contract of ``jets lint`` / ``jets lint-trace``."""

from __future__ import annotations

import json

import pytest

from repro.analysis.cli import lint_main, lint_trace_main
from repro.apps.synthetic import BarrierSleepBarrier
from repro.cluster.machine import generic_cluster
from repro.core.jets import Simulation
from repro.core.tasklist import JobSpec, TaskList
from repro.obs import session as obs_session

CLEAN = "x = 1\n"
DIRTY = "import time\n\ndef f():\n    return time.time()\n"


class TestLint:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text(CLEAN)
        assert lint_main([str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one_and_render(self, tmp_path, capsys):
        path = tmp_path / "dirty.py"
        path.write_text(DIRTY)
        assert lint_main([str(path)]) == 1
        out = capsys.readouterr().out
        assert f"{path}:4:12: DT001" in out

    def test_min_severity_gates_exit_code(self, tmp_path, capsys):
        path = tmp_path / "warn.py"
        path.write_text("for x in {1, 2}:\n    print(x)\n")
        assert lint_main([str(path)]) == 1  # DT004 is a warning
        assert lint_main([str(path), "--min-severity", "error"]) == 0

    def test_syntax_error_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n")
        assert lint_main([str(path)]) == 2
        assert "syntax error" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text(CLEAN)
        assert lint_main([str(path), "--select", "NOPE1"]) == 2

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("TR001", "TR004", "DT001", "SK001"):
            assert rule_id in out


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    """A real recorded run (JSONL) from a tiny MPI batch."""
    path = tmp_path_factory.mktemp("traces") / "run.jsonl"
    jobs = [JobSpec(program=BarrierSleepBarrier(0.2), nodes=2, ppn=1)]
    with obs_session(trace_out=str(path)):
        sim = Simulation(generic_cluster(nodes=2, cores_per_node=2), seed=0)
        report = sim.run_standalone(TaskList(jobs))
        assert report.jobs_completed == 1
    return path


class TestLintTrace:
    def test_real_run_is_valid(self, trace_file, capsys):
        assert lint_trace_main([str(trace_file)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_corrupted_run_exits_one(self, trace_file, tmp_path, capsys):
        corrupted = tmp_path / "corrupted.jsonl"
        lines = trace_file.read_text().splitlines()
        # .get: the dump ends with a {"meta": "perf"} trailer line.
        kept = [
            l for l in lines if json.loads(l).get("cat") != "job.grouped"
        ]
        assert len(kept) < len(lines)
        corrupted.write_text("\n".join(kept) + "\n")
        assert lint_trace_main([str(corrupted)]) == 1
        assert "TV004" in capsys.readouterr().out

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert lint_trace_main([str(tmp_path / "nope.jsonl")]) == 2

    def test_empty_file_exits_two(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert lint_trace_main([str(empty)]) == 2

    def test_max_issues_truncates(self, trace_file, tmp_path, capsys):
        corrupted = tmp_path / "very_corrupted.jsonl"
        lines = trace_file.read_text().splitlines()
        kept = [
            l for l in lines
            if json.loads(l).get("cat") not in ("job.grouped", "worker.start")
        ]
        corrupted.write_text("\n".join(kept) + "\n")
        assert lint_trace_main([str(corrupted), "--max-issues", "1"]) == 1
        out = capsys.readouterr().out
        assert "more issues" in out

    def test_corrupt_line_is_named_by_file_and_line(
        self, trace_file, tmp_path, capsys
    ):
        from repro.core.cli import main

        corrupted = tmp_path / "torn.jsonl"
        lines = trace_file.read_text().splitlines()
        lines[4] = lines[4][:15]  # line 5 cut mid-record
        corrupted.write_text("\n".join(lines) + "\n")
        assert lint_trace_main([str(corrupted)]) == 2
        assert f"bad trace file: {corrupted}:5:" in capsys.readouterr().err
        assert main(["report", str(corrupted)]) == 2
        assert f"bad trace file: {corrupted}:5:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        [
            '{"t":0.0,"cat":5,"data":{"x":1}}',
            '{"cat":"job.submitted","data":{"job":1}}',
            "[1,2]",
        ],
        ids=["cat-not-string", "no-time", "not-an-object"],
    )
    def test_malformed_record_is_named_by_file_and_line(
        self, trace_file, tmp_path, capsys, line
    ):
        from repro.core.cli import main

        bad = tmp_path / "bad.jsonl"
        lines = trace_file.read_text().splitlines()
        lines[2] = line
        bad.write_text("\n".join(lines) + "\n")
        assert lint_trace_main([str(bad)]) == 2
        assert f"bad trace file: {bad}:3:" in capsys.readouterr().err
        assert main(["report", str(bad)]) == 2
        assert f"bad trace file: {bad}:3:" in capsys.readouterr().err

    def test_unhashable_entity_id_is_tv005(self, tmp_path, capsys):
        bad = tmp_path / "list-id.jsonl"
        bad.write_text(
            '{"t":0.0,"cat":"job.submitted","data":'
            '{"job":[1],"mpi":false,"nodes":1,"ppn":1}}\n'
        )
        assert lint_trace_main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "TV005" in out and "[1]" in out


def test_jets_cli_dispatches_lint(tmp_path, capsys):
    from repro.core.cli import main

    path = tmp_path / "clean.py"
    path.write_text(CLEAN)
    assert main(["lint", str(path)]) == 0


KERNEL_SRC = (
    "class Environment:\n"
    "    def step(self):\n"
    "        self._dispatch()\n"
    "    def _dispatch(self):\n"
    "        handle()\n"
    "def handle():\n"
    "    pass\n"
    "def cold():\n"
    "    pass\n"
)


class TestHotpath:
    @pytest.fixture()
    def kernel_dir(self, tmp_path):
        (tmp_path / "kernel.py").write_text(KERNEL_SRC)
        return tmp_path

    def test_dump_lists_hot_set(self, kernel_dir, capsys):
        from repro.analysis.cli import hotpath_main

        assert hotpath_main(["--path", str(kernel_dir)]) == 0
        out = capsys.readouterr().out
        assert "kernel:Environment.step" in out
        assert "entry:Environment.step" in out
        assert "kernel:handle" in out
        assert "kernel:cold" not in out

    def test_explain_hot_function(self, kernel_dir, capsys):
        from repro.analysis.cli import hotpath_main

        assert hotpath_main(["handle", "--path", str(kernel_dir)]) == 0
        out = capsys.readouterr().out
        assert "HOT" in out and "Environment.step" in out

    def test_cold_function_exits_one(self, kernel_dir, capsys):
        from repro.analysis.cli import hotpath_main

        assert hotpath_main(["cold", "--path", str(kernel_dir)]) == 1
        assert "NOT on the hot path" in capsys.readouterr().out

    def test_unknown_function_exits_two(self, kernel_dir, capsys):
        from repro.analysis.cli import hotpath_main

        assert hotpath_main(["nope", "--path", str(kernel_dir)]) == 2
        assert "no function matches" in capsys.readouterr().err

    def test_json_dump_shape(self, kernel_dir, capsys):
        from repro.analysis.cli import hotpath_main

        assert hotpath_main(
            ["--path", str(kernel_dir), "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "kernel:Environment.step" in doc["hot"]
        assert doc["roots"]["kernel:Environment.step"].startswith("entry:")

    def test_profile_widens_hot_set(self, kernel_dir, tmp_path, capsys):
        from repro.analysis.cli import hotpath_main

        profile = tmp_path / "BENCH_profile.json"
        profile.write_text(json.dumps({
            "workloads": {"wl": [{"id": "kernel:cold", "cumtime": 1.0}]}
        }))
        assert hotpath_main([
            "cold", "--path", str(kernel_dir),
            "--hot-profile", str(profile),
        ]) == 0
        assert "profile" in capsys.readouterr().out

    def test_repo_hot_set_contains_kernel_entries(self, capsys):
        """The acceptance contract: the real src/ hot set holds the
        kernel loop, the store dispatch, and the dispatcher handlers."""
        from pathlib import Path

        import repro

        from repro.analysis.cli import hotpath_main

        src = str(Path(repro.__file__).parent)
        assert hotpath_main(["--path", src]) == 0
        out = capsys.readouterr().out
        for needle in (
            "repro.simkernel.core:Environment.step",
            "repro.simkernel.resources:Store._dispatch",
            "repro.core.dispatcher:JetsDispatcher._handle_worker",
            "repro.core.dispatcher:JetsDispatcher._scheduler_loop",
        ):
            assert needle in out

    def test_jets_cli_dispatches_hotpath(self, kernel_dir, capsys):
        from repro.core.cli import main

        assert main(["hotpath", "--path", str(kernel_dir)]) == 0
        assert "hot path" in capsys.readouterr().out


class TestLintHotProfile:
    def test_bad_profile_exits_two(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text(CLEAN)
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}")
        assert lint_main(
            [str(target), "--hot-profile", str(bogus)]
        ) == 2
        assert "hot-profile" in capsys.readouterr().err

    def test_json_findings_carry_hot_path_field(self, tmp_path, capsys):
        path = tmp_path / "dirty.py"
        path.write_text(DIRTY)
        assert lint_main([str(path), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["findings"]
        assert all("hot_path" in f for f in doc["findings"])

    def test_profile_escalates_and_resets(self, tmp_path, capsys):
        from repro.analysis.perf_rules import hot_profile

        target = tmp_path / "cold.py"
        target.write_text(
            "def cold_loop(ctx):\n"
            "    for _ in range(3):\n"
            "        ctx.stats.counters.add(1)\n"
            "        ctx.stats.counters.add(2)\n"
        )
        profile = tmp_path / "BENCH_profile.json"
        profile.write_text(json.dumps({
            "workloads": {"wl": [{"id": "cold:cold_loop"}]}
        }))
        assert lint_main([
            str(target), "--select", "PF002", "--format", "json",
            "--hot-profile", str(profile),
        ]) == 1
        doc = json.loads(capsys.readouterr().out)
        (finding,) = doc["findings"]
        assert finding["severity"] == "error"
        assert finding["hot_path"] is True
        assert hot_profile() is None  # reset after the run
