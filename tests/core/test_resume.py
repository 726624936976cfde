"""Tests for journal replay, torn-tail tolerance, and crash-equivalence."""

import json
from dataclasses import replace

import pytest

from repro.analysis.campaign import derive_seed
from repro.core.journal import RunJournal
from repro.core.resume import (
    JournalError,
    ResumeCampaignConfig,
    crash_equivalence_campaign,
    load_ledger,
    read_journal,
    replay,
    respec,
    resume_run,
)
from repro.core.tasklist import TaskList


class _Clock:
    def __init__(self, now=0.0):
        self.now = now


def write_small_journal(path, *, end=False):
    """A 2-job journal: t0 done, t1 in flight (optionally run_end)."""
    clock = _Clock()
    jn = RunJournal(str(path), env=clock)
    jn.run_begin(machine="generic", nodes=2, seed=0, jobs=2,
                 cores_per_node=2)
    tasks = TaskList.from_lines(["SERIAL: sleep 0.5", "MPI: 2 mpi-bench 0.4"])
    tasks.jobs[0].job_id = "t0"
    tasks.jobs[1].job_id = "t1"
    for job in tasks:
        jn.job_submitted(job)
    clock.now = 1.0
    jn.job_launched("t0", 0)
    jn.job_launched("t1", 0)
    clock.now = 2.0
    jn.job_done("t0", 0)
    if end:
        jn.run_end(ok=True, completed=2, failed=0)
    jn.close()


class TestTornTail:
    def test_every_truncation_offset_inside_final_record(self, tmp_path):
        """Cut the journal at *every* byte inside its last record: the
        reader must never raise, must recover all earlier records, and
        the ledger a resume acts on must be the one its own append
        leaves behind."""
        path = tmp_path / "run.journal"
        write_small_journal(path)
        raw = path.read_bytes()
        body = raw.rstrip(b"\n")
        last_start = body.rfind(b"\n") + 1
        full_entries, dropped, end = read_journal(str(path))
        assert (dropped, end) == (0, len(raw))
        n = len(full_entries)
        assert n >= 5
        torn = tmp_path / "torn.journal"
        for cut in range(last_start + 1, len(raw)):
            torn.write_bytes(raw[:cut])
            entries, dropped, end = read_journal(str(torn))
            # Even a final record that lacks only its newline is a write
            # the crash cut short.
            assert (len(entries), dropped, end) == (n - 1, 1, last_start)
            before = load_ledger(str(torn))
            resume_run(str(torn))
            entries = read_journal(str(torn))[0]
            after = replay([e for e in entries if e[0] == 0])
            assert after == replace(before, dropped_tail=0, end=0)

    def test_resume_appends_after_last_whole_line(self, tmp_path):
        path = tmp_path / "run.journal"
        write_small_journal(path)
        raw = path.read_bytes()
        torn_at = raw.rstrip(b"\n").rfind(b"\n") + 1 + 4
        path.write_bytes(raw[:torn_at])  # torn mid-final-record
        resume_run(str(path))
        kept = raw[: raw.rfind(b"\n", 0, torn_at) + 1]
        after = path.read_bytes()
        assert after.startswith(kept)
        # Every appended line parses as segment 1: the fragment was
        # dropped, not welded onto the next segment's first record.
        appended = after[len(kept):].splitlines()
        assert [json.loads(line)["run"] for line in appended] == [1] * len(
            appended
        )

    def test_single_torn_line_reads_as_empty(self, tmp_path):
        path = tmp_path / "run.journal"
        path.write_bytes(b'{"t":0.0,"cat":"journal.run_beg')  # no newline
        assert read_journal(str(path)) == ([], 1, 0)
        # With no header there is nothing to resume, and the file is
        # refused before anything is appended.
        with pytest.raises(JournalError, match="no run header"):
            resume_run(str(path))
        assert path.read_bytes() == b'{"t":0.0,"cat":"journal.run_beg'

    def test_replay_of_torn_journal_keeps_job_outstanding(self, tmp_path):
        path = tmp_path / "run.journal"
        write_small_journal(path)
        raw = path.read_bytes()
        body = raw.rstrip(b"\n")
        # Cut mid-way through the final record (the t0 job_done).
        cut = body.rfind(b"\n") + 1 + 5
        torn = tmp_path / "torn.journal"
        torn.write_bytes(raw[:cut])
        ledger = load_ledger(str(torn))
        assert ledger.dropped_tail == 1
        # Without its done record, t0 is conservatively outstanding.
        assert {j.job_id for j in ledger.outstanding()} == {"t0", "t1"}

    def test_interior_corruption_is_fatal(self, tmp_path):
        path = tmp_path / "run.journal"
        write_small_journal(path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1][: len(lines[1]) // 2] + b"\n"  # torn mid-file
        path.write_bytes(b"".join(lines))
        with pytest.raises(JournalError, match="corrupt journal record"):
            read_journal(str(path))

    def test_non_record_line_is_fatal(self, tmp_path):
        path = tmp_path / "run.journal"
        path.write_text('{"noise": true}\n{"t": 1.0, "cat": "x"}\n')
        with pytest.raises(JournalError, match="not a trace record"):
            read_journal(str(path))


class TestReplay:
    def test_settled_vs_outstanding(self, tmp_path):
        path = tmp_path / "run.journal"
        write_small_journal(path)
        ledger = load_ledger(str(path))
        assert not ledger.clean
        assert [j.job_id for j in ledger.settled()] == ["t0"]
        assert [j.job_id for j in ledger.outstanding()] == ["t1"]
        assert ledger.jobs["t0"].status == "done"
        assert ledger.jobs["t1"].status == "launched"

    def test_run_end_marks_clean(self, tmp_path):
        path = tmp_path / "run.journal"
        write_small_journal(path, end=True)
        assert load_ledger(str(path)).clean

    def test_replay_is_idempotent_over_duplicates(self, tmp_path):
        path = tmp_path / "run.journal"
        write_small_journal(path)
        entries, dropped, _ = read_journal(str(path))
        once = replay(entries, dropped)
        twice = replay(list(entries) + list(entries), dropped)
        assert {j: (v.status, v.attempts) for j, v in once.jobs.items()} == {
            j: (v.status, v.attempts) for j, v in twice.jobs.items()
        }
        # A late duplicate job_submitted never resurrects a settled job.
        assert twice.jobs["t0"].status == "done"

    def test_attempts_ratchet_never_regress(self, tmp_path):
        path = tmp_path / "run.journal"
        clock = _Clock()
        jn = RunJournal(str(path), env=clock)
        jn.run_begin(machine="generic", nodes=1, seed=0)
        tasks = TaskList.from_lines(["SERIAL: sleep 0.5"])
        tasks.jobs[0].job_id = "j"
        jn.job_submitted(tasks.jobs[0])
        jn.job_launched("j", 0)
        jn.job_retry("j", 1, error="worker lost")
        jn.job_launched("j", 1)
        jn.job_launched("j", 0)  # stale duplicate must not regress
        jn.close()
        ledger = load_ledger(str(path))
        assert ledger.jobs["j"].attempts == 1
        assert ledger.jobs["j"].status == "launched"

    def test_event_for_unknown_job_is_fatal(self):
        from repro.simkernel.monitor import TraceRecord

        rec = TraceRecord(1.0, "journal.job_done", {"job": "ghost",
                                                    "attempt": 0})
        with pytest.raises(JournalError, match="unknown job"):
            replay([(0, rec)])


class TestRespec:
    def test_respec_preserves_identity_and_attempts(self, tmp_path):
        path = tmp_path / "run.journal"
        write_small_journal(path)
        ledger = load_ledger(str(path))
        entry = ledger.jobs["t1"]
        entry.attempts = 2
        spec = respec(entry)
        assert spec.job_id == "t1"
        assert spec.mpi and spec.nodes == 2
        # A crash is not charged as an attempt: the retry budget carries.
        assert spec.attempts == 2

    def test_segment_seed_differs_per_segment(self):
        # Resume segment s >= 1 runs at derive_seed(header seed, s).
        assert derive_seed(7, 1) != 7
        assert derive_seed(7, 1) != derive_seed(7, 2)
        assert derive_seed(7, 1) == derive_seed(7, 1)
        assert derive_seed(0, 1) != 0  # never the FIFO baseline


class TestResumeRun:
    def test_clean_journal_is_a_noop(self, tmp_path):
        path = tmp_path / "run.journal"
        write_small_journal(path, end=True)
        report = resume_run(str(path))
        assert report.clean
        assert report.ok
        assert report.resubmitted == 0
        assert "nothing to resume" in report.summary()

    def test_missing_run_begin_is_fatal(self, tmp_path):
        path = tmp_path / "run.journal"
        jn = RunJournal(str(path), env=_Clock())
        tasks = TaskList.from_lines(["SERIAL: sleep 0.5"])
        jn.job_submitted(tasks.jobs[0])
        jn.close()
        with pytest.raises(JournalError):
            resume_run(str(path))


class TestCrashEquivalence:
    def test_small_campaign_all_points_equivalent(self, tmp_path):
        # A fast slice of the acceptance campaign (CI runs the full
        # 200-job / 20-point sweep via `jets resume --verify`).
        config = ResumeCampaignConfig(
            jobs=30, crash_points=5, seed=3,
            journal_dir=str(tmp_path),
        )
        report = crash_equivalence_campaign(config)
        assert report.ok, [(p.index, p.problems) for p in report.failures]
        assert len(report.results) == 5
        assert any(p.crashed for p in report.results)
        # Some crash point has settled jobs on disk, so its resume skips
        # them: the skip path runs, not only the resubmit path.
        assert any(
            p.crashed and p.resubmitted < config.jobs for p in report.results
        )
        for point in report.results:
            if not point.crashed:
                continue
            # Each crashed journal drained clean after resume.
            journal = tmp_path / f"crash{point.index:03d}.journal"
            ledger = load_ledger(str(journal))
            assert ledger.clean
            assert ledger.segments == 2
            assert not ledger.outstanding()


class TestResumeTwice:
    def test_torn_journal_resumes_twice_and_stays_parseable(self, tmp_path):
        path = tmp_path / "run.journal"
        write_small_journal(path, end=True)
        raw = path.read_bytes()
        cut = raw.rstrip(b"\n").rfind(b"\n") + 1 + 7  # tear the run_end
        path.write_bytes(raw[:cut])
        first = resume_run(str(path))
        assert not first.clean
        # The torn fragment must not corrupt the appended segment:
        # every line still parses and a second resume is a clean no-op.
        entries, dropped, _ = read_journal(str(path))
        assert dropped == 0
        second = resume_run(str(path))
        assert second.clean
