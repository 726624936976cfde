"""Resume engine: restart a crashed run from its write-ahead journal.

``jets resume RUN.journal`` rebuilds dispatcher + tasklist state from
the journal a dead dispatcher left behind (:mod:`.journal`):

1. :func:`read_journal` loads the records through the one JSONL reader
   (:func:`repro.obs.export.iter_jsonl`): a crash mid-``write`` leaves
   a final line without its newline, which is discarded and counted
   (never fatal).  Any other unparsable line, and any record the record
   judge rejects, is fatal: skipping a record would fabricate
   accounting, losing a job or running it twice.
2. :func:`replay` folds the records into a :class:`JournalLedger` —
   per-job status (pending / launched / done / failed) and attempt
   counters, keyed by ``JobSpec.job_id``.  Replay is idempotent: records
   repeat across segments (a resubmitted job is journaled again) and
   fold to the same ledger.
3. :func:`resume_run` starts a fresh dispatcher on the machine the
   journal header describes, *skips* settled jobs, *resubmits* in-flight
   ones with their attempt counters preserved (the crash itself is not
   charged as an attempt), and appends the new segment to the same
   journal.  Typed ``resume.*`` trace records (registered in
   :mod:`repro.analysis.schema`) make resumed runs first-class citizens
   of ``jets lint-trace`` and ``jets report``.

``jets resume --verify`` runs the crash-equivalence campaign: one
uninterrupted baseline, then the same seeded workload crashed (via the
chaos engine's ``dispatcher_crash`` fault) at N distinct points and
resumed; the resumed final accounting must match the baseline per
``job_id`` — same outcomes, attempts equal modulo legitimately retried
resubmissions.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..analysis import campaign
from ..cluster.machine import (
    breadboard, eureka, generic_cluster, intrepid, surveyor,
)
from ..mpi.hydra import PROXY_IMAGE
from ..simkernel.monitor import TraceRecord
from .chaos import ChaosEngine, FaultClause, FaultPlan
from .dispatcher import JetsServiceConfig
from .jets import service_config_for
from .journal import RunJournal
from .staging import StagingManager
from .tasklist import JobSpec, ProgramRegistry, TaskList

__all__ = [
    "JournalError",
    "JournalJob",
    "JournalLedger",
    "read_journal",
    "replay",
    "load_ledger",
    "respec",
    "ResumeReport",
    "resume_run",
    "ResumeCampaignConfig",
    "crash_equivalence_campaign",
    "resume_main",
]


class JournalError(ValueError):
    """Unusable journal: corrupt interior, missing header, bad job spec."""


#: Journal statuses a job can hold; ``pending``/``launched`` are the
#: in-flight states a resume resubmits.
_SETTLED = ("done", "failed")


@dataclass(slots=True)
class JournalJob:
    """One job's durable state folded from the journal."""

    job_id: str
    mpi: bool = True
    nodes: int = 1
    ppn: int = 1
    command: str = ""
    max_attempts: int = 3
    duration_hint: float = 0.0
    priority: int = 0
    attempts: int = 0
    status: str = "pending"
    error: str = ""

    @property
    def settled(self) -> bool:
        return self.status in _SETTLED


@dataclass
class JournalLedger:
    """Everything :func:`replay` recovers from a journal."""

    #: ``journal.run_begin`` header of the *original* segment.
    meta: dict = field(default_factory=dict)
    #: job_id -> state, in journal submission order.
    jobs: dict[str, JournalJob] = field(default_factory=dict)
    #: Segments present; the next resume appends segment ``segments``.
    segments: int = 0
    #: True iff the last segment reached its ``journal.run_end``.
    clean: bool = False
    #: Sim-time of the last journaled record (the crash point bound).
    crash_time: float = 0.0
    records: int = 0
    #: Torn-tail lines discarded by the reader.
    dropped_tail: int = 0
    #: Byte offset just past the last whole line: the next segment is
    #: appended here, cutting off the torn tail the replay never saw.
    end: int = 0
    workers_registered: int = 0
    workers_lost: int = 0

    def outstanding(self) -> list[JournalJob]:
        """Jobs in flight at the crash, in submission order."""
        return [j for j in self.jobs.values() if not j.settled]

    def settled(self) -> list[JournalJob]:
        return [j for j in self.jobs.values() if j.settled]


def read_journal(path: str) -> tuple[list[tuple[int, TraceRecord]], int, int]:
    """Load ``(segment, record)`` pairs, the torn-tail line count (0 or
    1) and the byte offset where the last whole line ends.

    A dispatcher crash can cut the journal's final write short: bytes
    after the last newline are that unfinished record, and are dropped.
    A line that breaks the line contract, or a record the record judge
    (:func:`repro.analysis.schema.record_problems`) rejects, raises
    :class:`JournalError` naming the file and the line.
    """
    from ..analysis.schema import record_problems
    from ..obs.export import iter_jsonl, line_error

    entries: list[tuple[int, TraceRecord]] = []
    problems = None
    with open(path, "rb") as fh:
        try:
            for segment, rec in iter_jsonl(fh):
                problems = record_problems(rec.category, rec.data)
                if problems:
                    break
                entries.append((segment, rec))
        except ValueError as exc:
            raise JournalError(f"corrupt journal record: {exc}") from None
        if problems:
            code, message = problems[0]
            raise JournalError(line_error(
                fh, f"refusing a malformed record ({code}: {message})"
            ))
        end = fh.tell()
        dropped = 1 if fh.read(1) else 0
    return entries, dropped, end


def replay(
    entries: Sequence[tuple[int, TraceRecord]], dropped_tail: int = 0
) -> JournalLedger:
    """Fold journal records into a ledger (idempotent, order-stable).

    Rules: a repeated ``job_submitted`` never resets state (resubmission
    across segments); ``launched``/``retry`` only ratchet the attempt
    counter upward; ``done``/``failed`` settle the job; a ``run_end``
    marks the run clean, any later ``run_begin`` (a resume segment)
    reopens it.
    """
    ledger = JournalLedger(dropped_tail=dropped_tail)
    for segment, rec in entries:
        ledger.records += 1
        ledger.segments = max(ledger.segments, segment + 1)
        ledger.crash_time = rec.time
        data = rec.data or {}
        cat = rec.category
        if cat == "journal.run_begin":
            if not ledger.meta:
                ledger.meta = dict(data)
            ledger.clean = False
        elif cat == "journal.run_end":
            ledger.clean = True
        elif cat == "journal.job_submitted":
            job_id = str(data["job"])
            if job_id not in ledger.jobs:
                ledger.jobs[job_id] = JournalJob(
                    job_id=job_id,
                    mpi=bool(data.get("mpi", True)),
                    nodes=int(data.get("nodes", 1)),
                    ppn=int(data.get("ppn", 1)),
                    command=str(data.get("command", "")),
                    max_attempts=int(data.get("max_attempts", 3)),
                    duration_hint=float(data.get("duration_hint", 0.0)),
                    priority=int(data.get("priority", 0)),
                    attempts=int(data.get("attempts", 0)),
                )
        elif cat in (
            "journal.job_launched", "journal.job_retry",
            "journal.job_done", "journal.job_failed",
        ):
            job = ledger.jobs.get(str(data["job"]))
            if job is None:
                raise JournalError(
                    f"journal records {cat} for unknown job {data['job']!r}"
                )
            job.attempts = max(job.attempts, int(data.get("attempt", 0)))
            if cat == "journal.job_launched":
                if not job.settled:
                    job.status = "launched"
            elif cat == "journal.job_done":
                job.status = "done"
            elif cat == "journal.job_failed":
                job.status = "failed"
                job.error = str(data.get("error", ""))
        elif cat == "journal.worker_registered":
            ledger.workers_registered += 1
        elif cat == "journal.worker_lost":
            ledger.workers_lost += 1
        # Foreign-but-registered categories are ignored: a journal is a
        # lint-trace-compatible record stream, not a closed vocabulary.
    return ledger


def load_ledger(path: str) -> JournalLedger:
    """Read + replay in one step."""
    entries, dropped, end = read_journal(path)
    ledger = replay(entries, dropped_tail=dropped)
    ledger.end = end
    return ledger


def respec(
    entry: JournalJob, registry: Optional[ProgramRegistry] = None
) -> JobSpec:
    """Rebuild a submittable :class:`JobSpec` from its journal entry.

    The attempt counter carries over — the crash is charged to the
    dispatcher, not the job — so a job mid-retry keeps its remaining
    budget rather than restarting from attempt 0.
    """
    if registry is None:
        from ..apps.synthetic import default_registry

        registry = default_registry()
    words = entry.command.split()
    if entry.mpi and words:
        words = words[1:]  # MPI command lines lead with the node count
    if not words:
        raise JournalError(
            f"job {entry.job_id!r} journaled no command; cannot respec"
        )
    factory = registry.get(words[0])
    if factory is None:
        raise JournalError(
            f"job {entry.job_id!r}: unknown command {words[0]!r} "
            f"(registered: {sorted(registry)})"
        )
    return JobSpec(
        program=factory(words[1:]),
        nodes=entry.nodes,
        ppn=entry.ppn,
        mpi=entry.mpi,
        priority=entry.priority,
        command=entry.command,
        job_id=entry.job_id,
        max_attempts=entry.max_attempts,
        attempts=entry.attempts,
    )


def _machine_for(meta: dict):
    """Rebuild the machine the journal header describes."""
    name = str(meta.get("machine", "generic"))
    nodes = int(meta.get("nodes", 8))
    if name == "generic":
        return generic_cluster(
            nodes=nodes, cores_per_node=int(meta.get("cores_per_node", 4))
        )
    builders = {
        "surveyor-bgp": surveyor,
        "intrepid-bgp": intrepid,
        "breadboard-x86": breadboard,
        "eureka-x86": eureka,
    }
    builder = builders.get(name)
    if builder is None:
        raise JournalError(f"journal header names unknown machine {name!r}")
    return builder().scaled(nodes)


@dataclass
class ResumeReport:
    """Outcome of one ``jets resume``."""

    journal: str
    segment: int
    crash_time: float
    clean: bool
    skipped_done: int
    skipped_failed: int
    resubmitted_ids: tuple[str, ...] = ()
    jobs_ok: int = 0
    jobs_failed: int = 0
    drained: bool = True
    problems: list[str] = field(default_factory=list)

    @property
    def resubmitted(self) -> int:
        return len(self.resubmitted_ids)

    @property
    def ok(self) -> bool:
        return self.drained and not self.problems

    def summary(self) -> str:
        if self.clean:
            return (
                f"{self.journal}: run already complete "
                f"({self.skipped_done} done, {self.skipped_failed} failed); "
                "nothing to resume"
            )
        return (
            f"{self.journal}: resumed segment {self.segment} from crash at "
            f"t={self.crash_time:.3f}s — skipped {self.skipped_done} done + "
            f"{self.skipped_failed} failed, resubmitted {self.resubmitted}; "
            f"segment finished {self.jobs_ok} ok, {self.jobs_failed} failed"
            + ("" if self.drained else " (DID NOT DRAIN)")
        )


def resume_run(path: str, until: float = 600.0) -> ResumeReport:
    """Resume the run journaled at ``path``; appends a new segment.

    A fresh dispatcher + pilots are brought up on the machine the
    journal header describes (a crashed dispatcher takes its allocation
    with it, so the resume runs in a new allocation and restages from
    scratch when the original run staged).  Settled jobs are skipped,
    in-flight ones resubmitted with attempts preserved.  Segment ``s``
    runs at seed ``derive_seed(header seed, s)``
    (:mod:`repro.analysis.campaign`).
    """
    ledger = load_ledger(path)
    if not ledger.meta:
        raise JournalError(f"{path}: journal has no run header")
    report = ResumeReport(
        journal=path,
        segment=ledger.segments,
        crash_time=ledger.crash_time,
        clean=ledger.clean,
        skipped_done=sum(1 for j in ledger.settled() if j.status == "done"),
        skipped_failed=sum(1 for j in ledger.settled() if j.status == "failed"),
    )
    if ledger.clean:
        return report

    # Values of the right kind can still be out of range (a zero node
    # count, a serial job on two nodes): refuse them before the journal
    # is touched.
    try:
        machine = _machine_for(ledger.meta)
        specs = [respec(entry) for entry in ledger.outstanding()]
    except ValueError as exc:
        raise JournalError(f"{path}: {exc}") from None
    base_seed = int(ledger.meta.get("seed", 0))
    run = campaign.Run(machine, campaign.derive_seed(base_seed, ledger.segments))
    service = service_config_for(
        machine,
        policy=str(ledger.meta.get("policy", "fifo")),
        grouping=str(ledger.meta.get("grouping", "fifo")),
    )
    # The new segment starts where the replayed records end, so a torn
    # tail is cut off, never welded onto the segment's first record.
    os.truncate(path, ledger.end)
    journal = RunJournal(
        path, env=run.env, segment=ledger.segments, append=True
    )
    slots = ledger.meta.get("slots")
    journal.run_begin(
        machine=machine.name,
        nodes=machine.nodes,
        seed=base_seed,
        jobs=len(specs),
        policy=service.policy,
        grouping=service.grouping,
        slots=slots,
        cores_per_node=machine.cores_per_node,
        stage=bool(ledger.meta.get("stage", True)),
        resume=True,
    )
    staging = None
    if ledger.meta.get("stage", True):
        images = {PROXY_IMAGE.name: PROXY_IMAGE}
        for spec in specs:
            img = spec.program.image
            images.setdefault(img.name, img)
        staging = StagingManager(run.env, images.values())
    dispatcher = run.start(
        service, journal=journal, slots=slots, staging=staging
    )

    trace = run.platform.trace
    trace.log(
        "resume.begin",
        {
            "journal": os.path.basename(path),
            "segment": ledger.segments,
            "crash_time": ledger.crash_time,
            "outstanding": len(specs),
        },
    )
    for job in ledger.settled():
        trace.log("resume.skip", {"job": job.job_id, "outcome": job.status})
    for spec in specs:
        trace.log(
            "resume.resubmit", {"job": spec.job_id, "attempt": spec.attempts}
        )
    dispatcher.submit_many(specs)

    report.resubmitted_ids = tuple(spec.job_id for spec in specs)
    report.drained = run.drain(until)
    report.jobs_ok = sum(1 for c in dispatcher.completed if c.ok)
    report.jobs_failed = len(dispatcher.completed) - report.jobs_ok
    dispatcher.end_journal()
    report.problems = run.judge(report.drained, until)
    return report


# -- crash-equivalence campaign -------------------------------------------------


@dataclass(frozen=True)
class ResumeCampaignConfig:
    """Bounds of one ``jets resume --verify`` campaign."""

    jobs: int = 200
    #: Every Nth job is MPI (0 disables the MPI mix).
    mpi_every: int = 5
    mpi_nodes: int = 2
    nodes: int = 8
    cores_per_node: int = 2
    crash_points: int = 20
    seed: int = 0
    until: float = 3000.0
    journal_dir: Optional[str] = None


@dataclass(slots=True)
class CampaignPoint:
    """One crash point's verdict."""

    index: int
    crash_at: float
    crashed: bool
    resubmitted: int
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class CrashCampaignReport(campaign.CampaignReport):
    """Outcome of a whole crash-equivalence campaign, one point a result."""

    journal_dir: str = ""
    baseline_drain: float = 0.0


#: Records per fsync batch in the campaign's journals.  The dispatcher
#: forces the submission batch to disk, and at campaign sizes the launch
#: and done records after it would never fill a default 1,024-record
#: batch before the crash: every point would resubmit every job and the
#: skip path would never run.
CAMPAIGN_BATCH_RECORDS = 8


def _campaign_lines(config: ResumeCampaignConfig) -> list[str]:
    """Deterministic task mix for the campaign workload."""
    lines = []
    for i in range(config.jobs):
        if config.mpi_every and i % config.mpi_every == config.mpi_every - 1:
            lines.append(
                f"MPI: {config.mpi_nodes} mpi-bench {0.4 + 0.1 * (i % 3):.1f}"
            )
        else:
            lines.append(f"SERIAL: sleep {0.2 + 0.1 * (i % 4):.1f}")
    return lines


def _campaign_run(
    config: ResumeCampaignConfig,
    journal_path: str,
    crash_at: Optional[float] = None,
) -> tuple[Optional[dict], float]:
    """One campaign run; returns ``(accounting, t_stop)``.

    ``accounting`` maps job_id -> (ok, attempts); it is ``None`` when the
    seeded ``dispatcher_crash`` fired first (the journal is abandoned
    mid-write, exactly as a dead process leaves it).  ``t_stop`` is when
    the batch drained, or the crash or the watchdog stopped it.
    """
    tasks = TaskList.from_lines(_campaign_lines(config))
    # The default job_id sequence is process-global, so re-parsing the
    # same lines yields fresh ids every time; the equivalence comparison
    # keys on ids, so pin them to the (stable) submission index.
    for i, job in enumerate(tasks.jobs):
        job.job_id = f"t{i:04d}"

    run = campaign.Run(
        generic_cluster(
            nodes=config.nodes, cores_per_node=config.cores_per_node
        ),
        config.seed,
        judged=False,
    )
    journal = RunJournal(
        journal_path, env=run.env, batch_records=CAMPAIGN_BATCH_RECORDS
    )
    journal.run_begin(
        machine="generic",
        nodes=config.nodes,
        seed=config.seed,
        jobs=len(tasks),
        policy="fifo",
        grouping="fifo",
        cores_per_node=config.cores_per_node,
        stage=False,
    )
    dispatcher = run.start(JetsServiceConfig(), journal=journal)
    engine = ChaosEngine(run.platform, lambda: run.agents)
    if crash_at is not None:
        engine.start(
            FaultPlan(
                clauses=(
                    FaultClause(
                        kind="dispatcher_crash",
                        mode="scheduled",
                        times=(crash_at,),
                    ),
                ),
                name=f"crash@{crash_at:.3f}",
            )
        )
    dispatcher.submit_many(tasks)

    drained = run.drain(config.until, faults=(engine,), crash=engine.crashed)
    accounting = None
    if engine.crashed.triggered and not drained:
        journal.abandon()  # dispatcher death: the unflushed tail is lost
    else:
        dispatcher.end_journal()
        accounting = {
            c.job.job_id: (c.ok, c.job.attempts) for c in dispatcher.completed
        }
    run.env.close()
    return accounting, run.stopped_at


def _check_equivalence(
    baseline: dict,
    final: dict[str, tuple[bool, int]],
    resubmitted: Sequence[str],
    problems: list[str],
) -> None:
    """Resumed accounting == baseline modulo retried resubmissions."""
    resubmitted_set = set(resubmitted)
    if set(final) != set(baseline):
        missing = sorted(set(baseline) - set(final))[:5]
        extra = sorted(set(final) - set(baseline))[:5]
        problems.append(
            f"job set differs: missing={missing} extra={extra}"
        )
        return
    for job_id, (ok, attempts) in sorted(baseline.items()):
        f_ok, f_attempts = final[job_id]
        if f_ok != ok:
            problems.append(
                f"{job_id}: outcome {f_ok} != baseline {ok}"
            )
        if f_attempts < attempts:
            problems.append(
                f"{job_id}: attempts {f_attempts} < baseline {attempts}"
            )
        if job_id not in resubmitted_set and f_attempts != attempts:
            problems.append(
                f"{job_id}: not resubmitted but attempts "
                f"{f_attempts} != baseline {attempts}"
            )


def crash_equivalence_campaign(
    config: ResumeCampaignConfig, progress=None
) -> CrashCampaignReport:
    """Crash at N seeded points, resume each, compare against baseline."""
    journal_dir = config.journal_dir or tempfile.mkdtemp(prefix="jets-resume-")
    os.makedirs(journal_dir, exist_ok=True)

    baseline_path = os.path.join(journal_dir, "baseline.journal")
    baseline, t_drain = _campaign_run(config, baseline_path)
    assert baseline is not None  # no crash clause, so no crash

    def crash_point(k: int) -> CampaignPoint:
        crash_at = t_drain * (k + 1) / (config.crash_points + 1)
        path = os.path.join(journal_dir, f"crash{k:03d}.journal")
        accounting, _ = _campaign_run(config, path, crash_at)
        point = CampaignPoint(
            index=k, crash_at=crash_at, crashed=accounting is None,
            resubmitted=0,
        )
        if not point.crashed:
            # Drained before the seeded crash landed (possible right at
            # the drain edge): the run is the baseline, compare directly.
            _check_equivalence(baseline, accounting, (), point.problems)
            return point
        resume_report = resume_run(path, until=config.until)
        point.resubmitted = resume_report.resubmitted
        point.problems.extend(resume_report.problems)
        ledger = load_ledger(path)
        if not ledger.clean:
            point.problems.append("journal not clean after resume")
        final: dict[str, tuple[bool, int]] = {}
        for job in ledger.jobs.values():
            if not job.settled:
                point.problems.append(
                    f"{job.job_id}: unsettled after resume ({job.status})"
                )
                continue
            final[job.job_id] = (job.status == "done", job.attempts)
        _check_equivalence(
            baseline, final, resume_report.resubmitted_ids, point.problems
        )
        return point

    report = CrashCampaignReport(
        config, journal_dir=journal_dir, baseline_drain=t_drain
    )
    return campaign.run_campaign(report, config.crash_points, crash_point, progress)


# -- CLI ------------------------------------------------------------------------


def build_resume_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jets resume",
        description=(
            "Resume a crashed run from its write-ahead journal "
            "(--journal PATH on the original run), or verify crash-"
            "equivalence with a seeded dispatcher_crash campaign "
            "(--verify)."
        ),
    )
    parser.add_argument(
        "journal", nargs="?", default=None,
        help="journal file written by a crashed 'jets --journal' run",
    )
    parser.add_argument(
        "--until", type=float, default=600.0,
        help="drain watchdog for the resumed segment, sim-seconds",
    )
    parser.add_argument(
        "--verify", action="store_true",
        help="run the crash-equivalence campaign instead of resuming: "
             "baseline, then crash at --crash-points seeded points and "
             "resume each; resumed accounting must match the baseline",
    )
    parser.add_argument(
        "--jobs", type=int, default=200,
        help="campaign workload size (default 200)",
    )
    parser.add_argument(
        "--crash-points", type=int, default=20,
        help="distinct seeded crash points (default 20)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="campaign base seed"
    )
    parser.add_argument(
        "--nodes", type=int, default=8,
        help="campaign allocation size in nodes (default 8)",
    )
    parser.add_argument(
        "--journal-dir", default=None,
        help="directory for campaign journals (default: fresh tempdir)",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="print one line per crash point / full resume detail",
    )
    return parser


def resume_main(argv: Optional[Sequence[str]] = None) -> int:
    """``jets resume`` — exit 0 on success, 1 on failure, 2 on usage."""
    parser = build_resume_parser()
    args = parser.parse_args(argv)
    # Each must be positive: less ends in a traceback (a machine of no
    # nodes, an empty task list, a negative watchdog) or in a campaign
    # of no crash points that passes.
    for flag in ("--until", "--jobs", "--crash-points", "--nodes"):
        if not getattr(args, flag[2:].replace("-", "_")) > 0:
            parser.error(f"{flag} must be positive")

    if args.verify:
        config = ResumeCampaignConfig(
            jobs=args.jobs,
            crash_points=args.crash_points,
            seed=args.seed,
            nodes=args.nodes,
            journal_dir=args.journal_dir,
        )

        def progress(point: CampaignPoint) -> None:
            kind = "crashed" if point.crashed else "drained first"
            campaign.print_result(
                point,
                f"point {point.index:3d} t={point.crash_at:8.3f} "
                f"{kind}, resubmitted={point.resubmitted}",
                args.verbose,
            )

        report = crash_equivalence_campaign(config, progress)
        failed = len(report.failures)
        crashes = sum(1 for p in report.results if p.crashed)
        print(
            f"jets resume --verify: {len(report.results)} crash points "
            f"({crashes} crashed+resumed) over a {config.jobs}-job run "
            f"draining at t={report.baseline_drain:.1f}s — "
            + ("all equivalent" if report.ok else f"{failed} FAILED")
        )
        if not report.ok:
            print(f"journals kept in {report.journal_dir}", file=sys.stderr)
        return 0 if report.ok else 1

    if args.journal is None:
        print("jets resume: a journal path (or --verify) is required",
              file=sys.stderr)
        return 2
    try:
        report = resume_run(args.journal, until=args.until)
    except OSError as exc:
        print(f"jets resume: cannot read {args.journal}: {exc}",
              file=sys.stderr)
        return 2
    except JournalError as exc:
        print(f"jets resume: {exc}", file=sys.stderr)
        return 2
    print(report.summary())
    for problem in report.problems:
        print(f"jets resume: {problem}", file=sys.stderr)
    return 0 if report.ok and report.jobs_failed == 0 else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(resume_main())
