"""Crash-consistent write-ahead run journal.

The dispatcher appends one JSONL record for every durable state
transition — job submitted/launched/done/failed/retried, worker
registered/lost, run begin/end — *before* acting on it, so a fresh
process can rebuild the run's accounting after the dispatcher dies
(:mod:`.resume`).  Each segment encodes its records with one
:func:`repro.simkernel.monitor.record_encoder`, the archival trace
encoder, so a journal is a valid ``jets lint-trace`` input: each
journal *segment* (the original run is segment 0; every resume appends
the next) is tagged as its own run, keeping per-run time monotonicity
intact across resume boundaries.

Durability model (classic WAL):

* Appends are batched; every ``batch_records`` lines the buffer is
  written, flushed and ``os.fsync``'d.  A crash loses at most the
  unflushed tail — and only settled-state records can sit there, so
  replay conservatively re-runs the affected jobs.
* The run header (:meth:`RunJournal.run_begin`) and the submission
  batch (the dispatcher flushes after ``submit_many``) are forced to
  disk immediately: a job the journal never heard of could not be
  resubmitted on resume, so submissions must be durable before the
  run can crash out from under them.
* :meth:`RunJournal.abandon` models dispatcher death: the in-RAM tail
  is dropped, nothing more reaches the file.  The chaos engine's
  ``dispatcher_crash`` fault uses it to cut journals at seeded points.
* ``append=True`` writes after whatever the file holds; a resume first
  cuts a torn tail off (:func:`.resume.resume_run`), so each segment
  starts on a line of its own.
"""

from __future__ import annotations

import os
from typing import Any, Optional

from ..simkernel.monitor import record_encoder

__all__ = ["RunJournal"]

#: Durability syscall: fdatasync on platforms that have it, fsync elsewhere.
_fdatasync = getattr(os, "fdatasync", os.fsync)


#: Records buffered between fsync batches.  Large enough that journal
#: I/O stays off the hot path (<5% wall on fig06_rate), small enough
#: that a crash forfeits only a tail of settled-state records — losing
#: the tail is safe (resume conservatively re-runs the affected jobs);
#: it only costs replay work, so the batch leans toward throughput.
DEFAULT_BATCH_RECORDS = 1024


class RunJournal:
    """Append-only, fsync-batched JSONL journal for one run (+ resumes).

    The journal is constructed before the simulation environment exists
    (the CLI parses ``--journal`` first), so timestamps bind lazily via
    :meth:`bind`; records appended unbound are stamped at time 0.
    """

    def __init__(
        self,
        path: str,
        env=None,
        segment: int = 0,
        batch_records: int = DEFAULT_BATCH_RECORDS,
        append: bool = False,
    ):
        self.path = path
        self.segment = segment
        self.batch_records = max(1, int(batch_records))
        self._env = env
        self._buf: list[str] = []
        self._fh = open(path, "a" if append else "w", encoding="utf-8")
        self._encode = record_encoder(segment)
        self.records = 0
        self.flushes = 0
        self.closed = False

    def bind(self, env) -> None:
        """Adopt the simulation clock for record timestamps."""
        self._env = env

    # -- raw append/flush --------------------------------------------------

    def append(self, category: str, data: Optional[dict] = None) -> None:
        """Buffer one record; flush + fsync at every batch boundary."""
        if self.closed:
            raise RuntimeError(f"journal {self.path} is closed")
        env = self._env
        buf = self._buf
        buf.append(
            self._encode(env.now if env is not None else 0.0, category, data)
        )
        self.records += 1
        if len(buf) >= self.batch_records:
            self.flush()

    def flush(self) -> None:
        """Force buffered records to stable storage (write + fdatasync).

        ``fdatasync`` rather than ``fsync``: an append-only log needs the
        data and the size-extending metadata durable, which fdatasync
        guarantees; skipping the rest of the inode flush measurably cuts
        the per-batch cost on the fig06 hot path.  A flush with nothing
        buffered since the last sync is a no-op.
        """
        if self.closed:
            return
        if self._buf:
            self._fh.write("".join(self._buf))
            self._buf.clear()
        elif self.flushes:
            return
        self._fh.flush()
        _fdatasync(self._fh.fileno())
        self.flushes += 1

    def close(self) -> None:
        """Flush everything and close the file."""
        if self.closed:
            return
        self.flush()
        self._fh.close()
        self.closed = True

    def abandon(self) -> None:
        """Simulate dispatcher death: drop the unflushed tail, stop.

        Whatever the last fsync batch persisted is all a resume will
        ever see — exactly the torn state a real crash leaves behind.
        """
        if self.closed:
            return
        self._buf.clear()
        self._fh.close()
        self.closed = True

    # -- typed record helpers ----------------------------------------------

    def run_begin(
        self,
        machine: str,
        nodes: int,
        seed: int,
        jobs: Optional[int] = None,
        policy: Optional[str] = None,
        grouping: Optional[str] = None,
        slots: Optional[int] = None,
        cores_per_node: Optional[int] = None,
        stage: Optional[bool] = None,
        resume: bool = False,
    ) -> None:
        """Durable run header; flushed immediately."""
        data: dict[str, Any] = {
            "machine": machine, "nodes": nodes, "seed": seed,
        }
        if jobs is not None:
            data["jobs"] = jobs
        if policy is not None:
            data["policy"] = policy
        if grouping is not None:
            data["grouping"] = grouping
        if slots is not None:
            data["slots"] = slots
        if cores_per_node is not None:
            data["cores_per_node"] = cores_per_node
        if stage is not None:
            data["stage"] = stage
        if resume:
            data["resume"] = True
        self.append("journal.run_begin", data)
        self.flush()

    def run_end(self, ok: bool, completed: int, failed: int) -> None:
        """Clean shutdown marker; flushed immediately."""
        self.append(
            "journal.run_end",
            {"ok": ok, "completed": completed, "failed": failed},
        )
        self.flush()

    def job_submitted(self, job) -> None:
        self.append(
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

    def job_launched(self, job_id: str, attempt: int) -> None:
        self.append("journal.job_launched", {"job": job_id, "attempt": attempt})

    def job_retry(
        self, job_id: str, attempt: int, error: str = "",
        reason: Optional[str] = None,
    ) -> None:
        data: dict[str, Any] = {"job": job_id, "attempt": attempt}
        if error:
            data["error"] = error
        if reason is not None:
            data["reason"] = reason
        self.append("journal.job_retry", data)

    def job_done(self, job_id: str, attempt: int) -> None:
        self.append("journal.job_done", {"job": job_id, "attempt": attempt})

    def job_failed(self, job_id: str, attempt: int, error: str = "") -> None:
        data: dict[str, Any] = {"job": job_id, "attempt": attempt}
        if error:
            data["error"] = error
        self.append("journal.job_failed", data)

    def worker_registered(self, worker_id, node_id) -> None:
        self.append(
            "journal.worker_registered",
            {"worker": worker_id, "node": node_id},
        )

    def worker_lost(self, worker_id, reason: str = "") -> None:
        data: dict[str, Any] = {"worker": worker_id}
        if reason:
            data["reason"] = reason
        self.append("journal.worker_lost", data)
