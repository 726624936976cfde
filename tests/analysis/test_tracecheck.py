"""Runtime trace validation: schema + lifecycle replay (TV001-TV005)."""

from __future__ import annotations

import pytest

from repro.analysis.tracecheck import validate_records
from repro.apps.synthetic import BarrierSleepBarrier, SleepProgram
from repro.cluster.machine import generic_cluster
from repro.core.jets import Simulation
from repro.core.tasklist import JobSpec, TaskList
from repro.simkernel.monitor import TraceRecord


def rec(t, cat, data=None):
    return TraceRecord(t, cat, data)


def codes(issues):
    return [i.code for i in issues]


class TestSchemaChecks:
    def test_unknown_category_is_tv001(self):
        issues = validate_records([rec(0.0, "job.qeued", {"job": "j"})])
        assert codes(issues) == ["TV001"]

    def test_missing_payload_key_is_tv002(self):
        issues = validate_records([rec(0.0, "fault.kill", {})])
        assert codes(issues) == ["TV002"]
        assert "worker" in issues[0].message

    def test_undeclared_payload_key_is_tv002(self):
        issues = validate_records(
            [rec(0.0, "fault.kill", {"worker": 1, "vibe": "bad"})]
        )
        assert codes(issues) == ["TV002"]
        assert "vibe" in issues[0].message

    def test_counter_prefix_family_accepted(self):
        issues = validate_records(
            [rec(0.0, "counter.tasks", {"counter": "tasks", "value": 3})]
        )
        assert issues == []

    def test_non_monotonic_time_is_tv003(self):
        issues = validate_records(
            [
                rec(1.0, "fault.kill", {"worker": 1}),
                rec(0.5, "fault.kill", {"worker": 2}),
            ]
        )
        assert codes(issues) == ["TV003"]


class TestLifecycleChecks:
    DONE = {
        "job": "job0",
        "attempt": 1,
        "nodes": 1,
        "ppn": 1,
        "duration_hint": 1.0,
        "nominal": 1.0,
    }

    def job(self, event, t, **extra):
        data = {"job": "job0", **extra}
        return rec(t, f"job.{event}", data)

    def test_legal_job_lifecycle_is_clean(self):
        issues = validate_records(
            [
                self.job("submitted", 0.0, mpi=True, nodes=1, ppn=1),
                self.job("queued", 0.1, attempt=1),
                self.job("grouped", 0.2, attempt=1, workers=[0]),
                self.job("mpiexec_spawned", 0.3, attempt=1),
                self.job("pmi_wireup", 0.4),
                self.job("app_running", 0.5),
                rec(1.5, "job.done", self.DONE),
            ]
        )
        assert issues == []

    def test_illegal_transition_is_tv004(self):
        # A corrupted trace: the job runs before it was ever grouped.
        issues = validate_records(
            [
                self.job("submitted", 0.0),
                self.job("queued", 0.1),
                self.job("app_running", 0.5),
                rec(1.5, "job.done", self.DONE),
            ],
            check_schema=False,
        )
        # The bogus jump is flagged, and the entity stays in its last
        # legal state, so the later records cascade as TV004 too.
        assert issues and set(codes(issues)) == {"TV004"}
        assert "queued -> app_running" in issues[0].message

    def test_done_without_any_history_is_tv004(self):
        issues = validate_records(
            [rec(1.0, "job.done", self.DONE)], check_schema=False
        )
        assert codes(issues) == ["TV004"]
        assert "<entry>" in issues[0].message

    def test_missing_id_key_is_tv005(self):
        issues = validate_records(
            [rec(0.0, "worker.start", {"node": 3})], check_schema=False
        )
        assert codes(issues) == ["TV005"]

    def test_resubmission_cycle_is_legal(self):
        issues = validate_records(
            [
                self.job("submitted", 0.0, mpi=True, nodes=1, ppn=1),
                self.job("queued", 0.1, attempt=1),
                self.job("grouped", 0.2, attempt=1, workers=[0]),
                self.job("mpiexec_spawned", 0.3, attempt=1),
                self.job("retry", 0.4, attempt=1, error="worker died"),
                self.job("queued", 0.5, attempt=2),
            ]
        )
        assert issues == []

    def serial_attempt(self, worker):
        return [
            self.job("submitted", 0.0, mpi=False, nodes=1, ppn=1),
            self.job("queued", 0.1, attempt=0),
            self.job("grouped", 0.2, attempt=0, workers=[worker]),
            self.job("app_running", 0.3, worker=worker, serial=True),
        ]

    def test_duplicate_app_running_from_live_worker_is_tv004(self):
        issues = validate_records(
            self.serial_attempt(6)
            + [self.job("app_running", 0.4, worker=6, serial=True)]
        )
        assert codes(issues) == ["TV004"]
        assert "app_running -> app_running" in issues[0].message

    def test_lost_worker_records_belong_to_a_zombie(self):
        # The dispatcher gives up on partitioned worker 6 and reruns the
        # job on worker 8; worker 6 is still alive and later starts its
        # stale attempt.  Once it registers again, its records count.
        def worker(t, event, **extra):
            return rec(t, f"worker.{event}", {"worker": 6, **extra})

        rerun = [
            worker(0.5, "lost", reason="heartbeat timeout"),
            self.job("retry", 0.5, attempt=1, error="worker 6 lost"),
            self.job("queued", 0.6, attempt=1),
            self.job("grouped", 0.7, attempt=1, workers=[8]),
            self.job("app_running", 0.8, worker=8, serial=True),
        ]
        stale = self.job("app_running", 0.9, worker=6, serial=True)
        records = (
            [worker(0.0, "registered", node=4)]
            + self.serial_attempt(6) + rerun + [stale]
        )
        assert validate_records(records) == []
        back = [worker(1.0, "stop"), worker(1.0, "registered", node=4)]
        again = self.job("app_running", 1.1, worker=6, serial=True)
        issues = validate_records(records + back + [again])
        assert codes(issues) == ["TV004"]

    def test_flags_disable_their_checks(self):
        bad = [
            rec(0.0, "no.such.category", {"x": 1}),
            rec(1.0, "job.done", self.DONE),
        ]
        assert codes(validate_records(bad, check_lifecycle=False)) == ["TV001"]
        schema_off = validate_records(bad, check_schema=False)
        assert codes(schema_off) == ["TV004"]


class TestRealRuns:
    @pytest.fixture(scope="class")
    def mixed_run(self):
        jobs = [
            JobSpec(program=BarrierSleepBarrier(0.5), nodes=2, ppn=1, mpi=True),
            JobSpec(program=SleepProgram(0.3), nodes=1, mpi=False),
            JobSpec(program=BarrierSleepBarrier(0.2), nodes=1, ppn=2, mpi=True),
        ]
        sim = Simulation(generic_cluster(nodes=4, cores_per_node=2), seed=1)
        report = sim.run_standalone(TaskList(jobs))
        assert report.jobs_completed == 3
        return list(report.platform.trace.records)

    def test_real_run_validates_clean(self, mixed_run):
        assert validate_records(mixed_run) == []

    def test_corrupting_a_real_run_is_flagged(self, mixed_run):
        # Drop every job.grouped record: each MPI job now appears to jump
        # queued -> mpiexec_spawned.
        corrupted = [r for r in mixed_run if r.category != "job.grouped"]
        issues = validate_records(corrupted)
        assert issues and all(c == "TV004" for c in codes(issues))
        assert any("queued -> mpiexec_spawned" in i.message for i in issues)

    def test_fault_run_validates_clean(self):
        """Killed workers/proxies still leave a legal lifecycle: mpiexec
        closes unreported proxies with a status-143 ``proxy.exited`` and
        resubmitted attempts reincarnate them."""
        from repro.core.jets import FaultSpec

        jobs = [
            JobSpec(program=BarrierSleepBarrier(2.0), nodes=2, ppn=1),
            JobSpec(program=BarrierSleepBarrier(1.0), nodes=2, ppn=1),
        ]
        sim = Simulation(generic_cluster(nodes=4, cores_per_node=2), seed=3)
        report = sim.run_standalone(
            TaskList(jobs), faults=FaultSpec(interval=1.5), until=60.0
        )
        records = list(report.platform.trace.records)
        assert any(r.category == "fault.kill" for r in records)
        assert validate_records(records) == []
