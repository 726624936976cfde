"""Tests for the crash-consistent write-ahead run journal."""

import json
import os

import pytest

import repro.core.journal as journal_mod
from repro.apps.synthetic import SleepProgram
from repro.cluster.machine import generic_cluster
from repro.core.jets import Simulation
from repro.core.journal import DEFAULT_BATCH_RECORDS, RunJournal
from repro.core.tasklist import JobSpec, TaskList

from ..simkernel.test_encoder import reference_line


class _Clock:
    """Stand-in environment: just the ``now`` the journal reads."""

    def __init__(self, now=0.0):
        self.now = now


def read_lines(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestAppendAndFlush:
    def test_records_buffer_until_batch_boundary(self, tmp_path):
        path = tmp_path / "run.journal"
        jn = RunJournal(str(path), env=_Clock(), batch_records=4)
        for i in range(3):
            jn.append("journal.job_done", {"job": f"t{i}", "attempt": 0})
        assert path.read_text() == ""  # still buffered
        jn.append("journal.job_done", {"job": "t3", "attempt": 0})
        assert len(read_lines(path)) == 4  # batch boundary forced a flush
        jn.close()

    def test_close_flushes_tail(self, tmp_path):
        path = tmp_path / "run.journal"
        jn = RunJournal(str(path), env=_Clock(), batch_records=100)
        jn.append("journal.job_done", {"job": "a", "attempt": 0})
        jn.close()
        assert len(read_lines(path)) == 1
        assert jn.closed

    def test_abandon_drops_unflushed_tail(self, tmp_path):
        path = tmp_path / "run.journal"
        jn = RunJournal(str(path), env=_Clock(), batch_records=2)
        jn.append("journal.job_done", {"job": "a", "attempt": 0})
        jn.append("journal.job_done", {"job": "b", "attempt": 0})  # flushed
        jn.append("journal.job_done", {"job": "c", "attempt": 0})  # buffered
        jn.abandon()
        names = [rec["data"]["job"] for rec in read_lines(path)]
        assert names == ["a", "b"]  # the tail died with the process

    def test_append_after_close_raises(self, tmp_path):
        jn = RunJournal(str(tmp_path / "run.journal"), env=_Clock())
        jn.close()
        with pytest.raises(RuntimeError):
            jn.append("journal.job_done", {"job": "a", "attempt": 0})
        with pytest.raises(RuntimeError):
            jn.job_done("a", 0)

    def test_segments_append_to_same_file(self, tmp_path):
        path = tmp_path / "run.journal"
        jn0 = RunJournal(str(path), env=_Clock(), segment=0)
        jn0.job_done("a", 0)
        jn0.close()
        jn1 = RunJournal(str(path), env=_Clock(), segment=1, append=True)
        jn1.job_done("b", 0)
        jn1.close()
        recs = read_lines(path)
        assert [r["run"] for r in recs] == [0, 1]

    def test_unbound_journal_stamps_time_zero(self, tmp_path):
        jn = RunJournal(str(tmp_path / "run.journal"))
        jn.job_done("a", 0)
        jn.close()
        assert read_lines(tmp_path / "run.journal")[0]["t"] == 0.0

    def test_default_batch_keeps_tail_thin(self):
        assert 1 <= DEFAULT_BATCH_RECORDS <= 8192

    def test_flush_without_new_records_does_not_sync(self, tmp_path, monkeypatch):
        syncs = []
        monkeypatch.setattr(journal_mod, "_fdatasync", syncs.append)
        jn = RunJournal(str(tmp_path / "run.journal"), env=_Clock())
        jn.flush()  # first sync persists the (empty) file
        jn.flush()
        jn.job_done("a", 0)
        jn.flush()
        jn.close()
        assert len(syncs) == jn.flushes == 2

    def test_journaled_run_syncs_once_per_durable_point(
        self, tmp_path, monkeypatch
    ):
        # Header, submission batch and run_end each sync once; close()
        # after run_end has nothing new to persist.
        sizes = []
        real = journal_mod._fdatasync

        def counting(fd):
            sizes.append(os.fstat(fd).st_size)
            real(fd)

        monkeypatch.setattr(journal_mod, "_fdatasync", counting)
        path = tmp_path / "run.journal"
        jn = RunJournal(str(path))
        tasks = TaskList(
            [
                JobSpec(program=SleepProgram(0.2), nodes=1, mpi=False)
                for _ in range(20)
            ]
        )
        Simulation(
            generic_cluster(nodes=2, cores_per_node=2), seed=0
        ).run_standalone(tasks, journal=jn)
        assert jn.closed
        assert len(sizes) == jn.flushes == 3
        assert sizes == sorted(set(sizes))  # every sync persisted new bytes
        assert sizes[-1] == path.stat().st_size


class TestFastPathEquivalence:
    """The typed helpers must write exactly the reference archival line
    of each record — journals stay ``jets lint-trace`` inputs only if
    they do."""

    def test_job_records_match_reference(self, tmp_path):
        path = tmp_path / "run.journal"
        clock = _Clock(17.25)
        jn = RunJournal(str(path), env=clock, segment=3)
        tasks = TaskList.from_lines(
            ["SERIAL: sleep 0.5", "MPI: 2 mpi-bench 0.4"]
        )
        expected = []

        def ref(cat, data):
            expected.append(reference_line(clock.now, cat, data, run=3))

        for job in tasks:
            jn.job_submitted(job)
            ref(
                "journal.job_submitted",
                {
                    "job": job.job_id,
                    "mpi": job.mpi,
                    "nodes": job.nodes,
                    "ppn": job.ppn,
                    "command": job.command,
                    "max_attempts": job.max_attempts,
                    "attempts": job.attempts,
                    "duration_hint": job.duration_hint,
                    "priority": job.priority,
                },
            )
        jn.job_launched("t1", 0)
        ref("journal.job_launched", {"job": "t1", "attempt": 0})
        jn.job_done("t1", 0)
        ref("journal.job_done", {"job": "t1", "attempt": 0})
        jn.job_failed("t2", 1, error="exit 1")
        ref(
            "journal.job_failed",
            {"job": "t2", "attempt": 1, "error": "exit 1"},
        )
        jn.job_failed("t3", 0)
        ref("journal.job_failed", {"job": "t3", "attempt": 0})
        jn.worker_registered(7, 7)
        ref("journal.worker_registered", {"worker": 7, "node": 7})
        jn.worker_registered("w3", 3)
        ref("journal.worker_registered", {"worker": "w3", "node": 3})
        jn.worker_lost(7, "shutdown")
        ref("journal.worker_lost", {"worker": 7, "reason": "shutdown"})
        jn.worker_lost("w3")
        ref("journal.worker_lost", {"worker": "w3"})
        jn.close()

        got = path.read_text().splitlines(keepends=True)
        assert got == expected

    def test_non_plain_strings_fall_back_and_still_parse(self, tmp_path):
        path = tmp_path / "run.journal"
        jn = RunJournal(str(path), env=_Clock())
        tricky = 'quote " backslash \\ unicode é newline-free'
        jn.job_done('we"ird\\id', 1)
        jn.job_failed("t0", 0, error=tricky)
        jn.worker_lost("w0", reason=tricky)
        jn.close()
        recs = read_lines(path)
        assert recs[0]["data"]["job"] == 'we"ird\\id'
        assert recs[1]["data"]["error"] == tricky
        assert recs[2]["data"]["reason"] == tricky


class TestTypedHelpers:
    def test_run_begin_and_end_flush_immediately(self, tmp_path):
        path = tmp_path / "run.journal"
        jn = RunJournal(str(path), env=_Clock(), batch_records=1000)
        jn.run_begin(machine="generic", nodes=4, seed=7, jobs=10)
        assert len(read_lines(path)) == 1  # durable before any job runs
        jn.run_end(ok=True, completed=10, failed=0)
        assert len(read_lines(path)) == 2
        jn.close()
        begin, end = read_lines(path)
        assert begin["cat"] == "journal.run_begin"
        assert begin["data"]["seed"] == 7
        assert end["data"] == {"ok": True, "completed": 10, "failed": 0}

    def test_retry_carries_error_and_reason(self, tmp_path):
        path = tmp_path / "run.journal"
        jn = RunJournal(str(path), env=_Clock())
        jn.job_retry("t0", 1, error="worker lost", reason="worker_lost")
        jn.job_retry("t1", 2)
        jn.close()
        recs = read_lines(path)
        assert recs[0]["data"] == {
            "job": "t0",
            "attempt": 1,
            "error": "worker lost",
            "reason": "worker_lost",
        }
        assert recs[1]["data"] == {"job": "t1", "attempt": 2}


class TestTornTailTruncation:
    def test_append_mode_noop_on_clean_file(self, tmp_path):
        path = tmp_path / "run.journal"
        jn = RunJournal(str(path), env=_Clock())
        jn.job_done("a", 0)
        jn.close()
        before = path.read_bytes()
        jn2 = RunJournal(str(path), env=_Clock(), segment=1, append=True)
        jn2.close()
        assert path.read_bytes() == before
