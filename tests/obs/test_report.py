"""Tests for run reports and the CLI observability surface."""

import json
import os

import pytest

from repro.core.cli import main
from repro.core.jets import JetsConfig, Simulation
from repro.core.tasklist import TaskList
from repro.cluster.machine import generic_cluster
from repro.obs.report import RunReport, render_report
from repro.obs.session import active, session
from repro.obs.spans import build_spans


@pytest.fixture
def taskfile(tmp_path):
    path = tmp_path / "tasks.txt"
    path.write_text(
        "MPI: 2 mpi-bench 0.5\n"
        "MPI: 2 mpi-bench 0.5\n"
        "SERIAL: sleep 0.2\n"
    )
    return str(path)


def run_sim():
    sim = Simulation(generic_cluster(nodes=4, cores_per_node=2), JetsConfig())
    tasks = TaskList.from_text("MPI: 2 mpi-bench 0.5\nSERIAL: sleep 0.2\n")
    return sim.run_standalone(tasks)


class TestRunReport:
    def test_counts_match_batch_report(self):
        batch = run_sim()
        rep = RunReport.from_trace(
            batch.platform.trace,
            registry=batch.platform.metrics,
            allocation_nodes=batch.allocation_nodes,
        )
        assert rep.jobs_total == batch.jobs_total
        assert rep.jobs_completed == batch.jobs_completed
        assert rep.jobs_failed == batch.jobs_failed

    def test_span_utilization_matches_live_ledger(self):
        batch = run_sim()
        rep = RunReport.from_trace(
            batch.platform.trace, allocation_nodes=batch.allocation_nodes
        )
        assert rep.utilization == pytest.approx(batch.utilization)

    def test_render_mentions_stages_and_counters(self):
        batch = run_sim()
        text = render_report(
            batch.platform.trace,
            registry=batch.platform.metrics,
            title="unit",
        )
        assert "== run report: unit" in text
        assert "queue_wait" in text
        assert "wireup" in text
        assert "p95" in text
        assert "dispatcher.ops" in text


class TestObsSessionCapture:
    def test_platforms_attach_to_innermost_session(self):
        with session() as outer:
            with session() as inner:
                assert active() is inner
                run_sim()
            assert active() is outer
        assert len(inner.runs) == 1
        assert outer.runs == []

    def test_flush_writes_all_artifacts(self, tmp_path, capsys):
        jsonl = str(tmp_path / "run.jsonl")
        with session(trace_out=jsonl, report=True):
            run_sim()
        out = capsys.readouterr().out
        assert "== run report:" in out
        assert os.path.exists(jsonl)
        chrome = str(tmp_path / "run.trace.json")
        assert os.path.exists(chrome)
        assert json.load(open(chrome))["traceEvents"]

    def test_no_flush_on_exception(self, tmp_path):
        jsonl = str(tmp_path / "boom.jsonl")
        with pytest.raises(RuntimeError):
            with session(trace_out=jsonl):
                run_sim()
                raise RuntimeError("boom")
        assert not os.path.exists(jsonl)


class TestCliObservability:
    def test_trace_out_produces_artifacts(self, taskfile, tmp_path, capsys):
        jsonl = str(tmp_path / "run.jsonl")
        code = main(
            [
                taskfile,
                "--machine", "generic",
                "--nodes", "4",
                "--trace-out", jsonl,
                "--report",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "== run report:" in out
        assert "3/3 jobs" in out  # batch summary still printed
        assert os.path.exists(jsonl)
        assert os.path.exists(str(tmp_path / "run.trace.json"))

    def test_report_subcommand_round_trip(self, taskfile, tmp_path, capsys):
        jsonl = str(tmp_path / "run.jsonl")
        assert main(
            [taskfile, "--machine", "generic", "--nodes", "4",
             "--trace-out", jsonl]
        ) == 0
        capsys.readouterr()
        code = main(["report", jsonl])
        assert code == 0
        out = capsys.readouterr().out
        assert "== run report:" in out
        assert "3 submitted, 3 completed" in out

    def test_report_subcommand_missing_file(self, capsys):
        code = main(["report", "/does/not/exist.jsonl"])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_report_subcommand_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = main(["report", str(empty)])
        assert code == 1
        assert "no trace records" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "record",
        [
            {"t": 0.0, "cat": "job.submitted", "data": 5},
            {
                "t": 0.0,
                "cat": "job.submitted",
                "data": {"job": [1], "mpi": False, "nodes": 1, "ppn": 1},
            },
            {"t": 0.0, "cat": "worker.start", "data": {"worker": {"a": 1}}},
        ],
        ids=["data-not-object", "list-job-id", "object-worker-id"],
    )
    def test_report_skips_malformed_lifecycle_record(
        self, record, tmp_path, capsys
    ):
        from repro.analysis.cli import lint_trace_main

        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(record) + "\n")
        assert main(["report", str(bad)]) == 0
        out, err = capsys.readouterr()
        assert "jobs: 0 submitted" in out
        assert "skipped 1 malformed record(s);" in err
        assert lint_trace_main([str(bad)]) == 1
        assert "TV005" in capsys.readouterr().out


class TestFaultBreakdowns:
    def _faulty_trace(self):
        from repro.core.jets import FaultSpec

        sim = Simulation(
            generic_cluster(nodes=6, cores_per_node=1),
            JetsConfig(worker_slots=1),
        )
        tasks = TaskList.from_text("SERIAL: sleep 1.0\n" * 40)
        report = sim.run_standalone(
            tasks, faults=FaultSpec(interval=3.0), until=60.0
        )
        return report.platform.trace

    def test_report_breaks_down_faults_and_resubmit_causes(self):
        trace = self._faulty_trace()
        rep = RunReport.from_trace(trace)
        assert rep.fault_kinds.get("kill", 0) == rep.faults > 0
        assert rep.resubmissions > 0
        assert sum(rep.resubmit_causes.values()) == rep.resubmissions
        text = rep.render()
        assert "faults by kind: kill=" in text
        assert "resubmits by cause:" in text

    def test_resubmit_cause_classifier(self):
        from repro.obs.report import resubmit_cause

        assert resubmit_cause({"reason": "deadline"}) == "deadline"
        assert resubmit_cause({"reason": "wireup_abort"}) == "wireup_abort"
        assert (
            resubmit_cause({"error": "worker 3 heartbeat timeout"})
            == "heartbeat"
        )
        assert (
            resubmit_cause({"error": "connection to worker lost"})
            == "connection"
        )
        assert resubmit_cause({"error": "exited with status 143"}) == (
            "task_error"
        )
        assert resubmit_cause({"error": "mystery"}) == "other"
        assert resubmit_cause(None) == "other"


class TestPerformanceSection:
    def test_live_trace_fills_perf_fields(self):
        report = run_sim()
        rr = RunReport.from_trace(report.platform.trace)
        assert rr.events_processed == report.platform.env.events_processed
        assert rr.events_processed > 0
        assert rr.trace_records == len(report.platform.trace.records)
        assert rr.sim_seconds == pytest.approx(report.platform.env.now)
        assert rr.wall_seconds is None  # only live sessions measure wall
        text = rr.render()
        assert "performance:" in text
        assert "kernel events" in text

    def test_wall_line_renders_rates(self):
        report = run_sim()
        text = render_report(
            report.platform.trace,
            perf={
                "events": 1000, "records": 10, "sim_s": 2.0, "wall_s": 0.5,
            },
        )
        assert "wall 0.500 s" in text
        assert "sim/wall 4.0x" in text
        assert "events/s" in text

    def test_reloaded_dump_keeps_perf_via_trailer(self, taskfile, tmp_path,
                                                  capsys):
        out = tmp_path / "run.jsonl"
        assert main([
            "--machine", "generic", "--nodes", "4",
            "--trace-out", str(out), str(taskfile),
        ]) == 0
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "performance:" in text
        assert "kernel events" in text
        # The trailer is deterministic: no wall-clock in a reloaded report.
        assert "sim/wall" not in text

    def test_session_report_includes_wall(self, capsys):
        with session(report=True):
            run_sim()
        text = capsys.readouterr().out
        assert "performance:" in text
        assert "wall" in text
        assert "sim/wall" in text


class TestRecoverySection:
    def _platform_with_resume_records(self):
        from repro.cluster.platform import Platform

        platform = Platform(generic_cluster(nodes=2, cores_per_node=2))
        trace = platform.trace
        trace.log(
            "resume.begin",
            {
                "journal": "run.journal",
                "segment": 1,
                "crash_time": 4.25,
                "outstanding": 3,
            },
        )
        trace.log("resume.skip", {"job": "t0", "outcome": "done"})
        trace.log("resume.skip", {"job": "t1", "outcome": "done"})
        trace.log("resume.skip", {"job": "t2", "outcome": "failed"})
        trace.log("resume.resubmit", {"job": "t3", "attempt": 1})
        return platform

    def test_report_counts_resume_records(self):
        platform = self._platform_with_resume_records()
        rep = RunReport.from_trace(platform.trace)
        assert rep.resumes == 1
        assert rep.resume_skipped_done == 2
        assert rep.resume_skipped_failed == 1
        assert rep.resume_resubmitted == 1
        assert rep.crash_time == pytest.approx(4.25)

    def test_render_shows_recovery_line(self):
        platform = self._platform_with_resume_records()
        text = RunReport.from_trace(platform.trace).render(title="unit")
        assert "recovery: 1 resume(s)" in text
        assert "crash at t=4.250" in text
        assert "2 skipped done" in text
        assert "1 skipped failed" in text
        assert "1 resubmitted" in text

    def test_unresumed_run_has_no_recovery_section(self):
        batch = run_sim()
        text = render_report(batch.platform.trace, title="unit")
        assert "recovery:" not in text
