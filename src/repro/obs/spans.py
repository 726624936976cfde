"""Lifecycle spans reconstructed from typed trace transitions.

The instrumented components (dispatcher, worker agent, aggregator, Hydra
controller, fault injector) emit *typed state transitions* as trace
records — ``job.<state>``, ``worker.<state>``, ``proxy.<state>`` — that
mirror the start/stop instrumentation the paper's evaluation is built on
(Section 6.1.5).  This module assembles those flat records into spans:

* :class:`JobSpan` — one per submitted job, holding one
  :class:`AttemptSpan` per (re)submission cycle.  Job attempts walk the
  state machine ``queued → grouped → mpiexec_spawned → pmi_wireup →
  app_running → done | failed | resubmitted`` (serial jobs skip the
  mpiexec/wireup states).
* :class:`ProxySpan` — per-proxy (per-node rank group) children of an MPI
  attempt: ``registered → wired → exited``.
* :class:`WorkerSpan` — one per pilot worker: ``started → registered →
  idle ⇄ busy → (heartbeat_missed →) lost | stopped``.

The builder is a single fold over the records, so it works equally as a
live subscriber of a :class:`~repro.simkernel.Trace`, over a trace that
kept every record, and over records re-read from a JSONL export
(:func:`repro.obs.export.read_jsonl`).

The state vocabularies and transition graphs are declared once in
:mod:`repro.analysis.lifecycle` (this module re-exports the state
tuples); ``jets lint-trace`` replays recorded runs against those same
machines, so the span builder and the validator cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from ..analysis.lifecycle import (
    JOB_STATES,
    PROXY_STATES,
    WORKER_STATES,
)
from ..simkernel import TraceRecord

__all__ = [
    "JOB_STATES",
    "WORKER_STATES",
    "PROXY_STATES",
    "Transition",
    "ProxySpan",
    "AttemptSpan",
    "JobSpan",
    "WorkerSpan",
    "RunSpans",
    "SpanBuilder",
    "build_spans",
]


@dataclass(frozen=True)
class Transition:
    """One typed state change: (time, state, payload)."""

    time: float
    state: str
    data: Any = None


@dataclass
class ProxySpan:
    """One Hydra proxy's life inside an MPI job attempt."""

    job_id: str
    proxy_id: int
    node: Optional[int] = None
    t_launched: Optional[float] = None
    t_registered: Optional[float] = None
    t_wired: Optional[float] = None
    t_exited: Optional[float] = None
    status: Optional[int] = None

    @property
    def wireup_time(self) -> Optional[float]:
        """Register → KVS-commit latency for this proxy."""
        if self.t_registered is None or self.t_wired is None:
            return None
        return self.t_wired - self.t_registered


@dataclass
class AttemptSpan:
    """One submission cycle of a job (fresh span per resubmission)."""

    job_id: str
    index: int
    transitions: list[Transition] = field(default_factory=list)
    proxies: list[ProxySpan] = field(default_factory=list)

    def add(self, time: float, state: str, data: Any = None) -> None:
        self.transitions.append(Transition(time, state, data))

    def time_of(self, state: str) -> Optional[float]:
        """Time of the first transition into ``state`` (None if never)."""
        for tr in self.transitions:
            if tr.state == state:
                return tr.time
        return None

    @property
    def t_queued(self) -> Optional[float]:
        return self.time_of("queued")

    @property
    def t_grouped(self) -> Optional[float]:
        return self.time_of("grouped")

    @property
    def t_mpiexec(self) -> Optional[float]:
        return self.time_of("mpiexec_spawned")

    @property
    def t_wireup(self) -> Optional[float]:
        return self.time_of("pmi_wireup")

    @property
    def t_app_running(self) -> Optional[float]:
        return self.time_of("app_running")

    @property
    def outcome(self) -> Optional[str]:
        """Terminal state of this attempt (done/failed/resubmitted)."""
        for tr in reversed(self.transitions):
            if tr.state in ("done", "failed", "resubmitted"):
                return tr.state
        return None

    @property
    def t_end(self) -> Optional[float]:
        for tr in reversed(self.transitions):
            if tr.state in ("done", "failed", "resubmitted"):
                return tr.time
        return self.transitions[-1].time if self.transitions else None

    @property
    def queue_wait(self) -> Optional[float]:
        """Time spent queued before workers were grouped for this attempt."""
        if self.t_queued is None or self.t_grouped is None:
            return None
        return self.t_grouped - self.t_queued

    @property
    def wireup_latency(self) -> Optional[float]:
        """mpiexec spawn → application start (the paper's wire-up time)."""
        if self.t_mpiexec is None or self.t_app_running is None:
            return None
        return self.t_app_running - self.t_mpiexec


@dataclass
class JobSpan:
    """A job's full lifecycle across all attempts."""

    job_id: str
    mpi: bool = True
    nodes: int = 1
    ppn: int = 1
    t_submitted: Optional[float] = None
    t_end: Optional[float] = None
    ok: Optional[bool] = None
    error: str = ""
    #: Application-phase stamps carried by the final done/failed record.
    app_start: Optional[float] = None
    app_end: Optional[float] = None
    #: Nominal task duration (Eq. 1 numerator), stamped at completion.
    nominal: Optional[float] = None
    attempts: list[AttemptSpan] = field(default_factory=list)

    @property
    def resubmissions(self) -> int:
        """Number of resubmission cycles (attempts beyond the first)."""
        return max(0, len(self.attempts) - 1)

    @property
    def final_attempt(self) -> Optional[AttemptSpan]:
        return self.attempts[-1] if self.attempts else None

    def open_attempt(self) -> AttemptSpan:
        """The in-flight attempt, opening the first one if needed."""
        if not self.attempts or self.attempts[-1].outcome is not None:
            self.attempts.append(AttemptSpan(self.job_id, len(self.attempts)))
        return self.attempts[-1]


@dataclass
class WorkerSpan:
    """A pilot worker's full lifecycle."""

    worker_id: int
    node: Optional[int] = None
    t_start: Optional[float] = None
    t_registered: Optional[float] = None
    t_stop: Optional[float] = None
    transitions: list[Transition] = field(default_factory=list)

    def add(self, time: float, state: str, data: Any = None) -> None:
        self.transitions.append(Transition(time, state, data))

    @property
    def outcome(self) -> str:
        """``lost`` if the worker died (kill/heartbeat), else ``stopped``."""
        states = {tr.state for tr in self.transitions}
        if "lost" in states or "killed" in states:
            return "lost"
        return "stopped"

    def state_segments(self, until: Optional[float] = None) -> list[tuple[float, float, str]]:
        """(start, end, state) slices of this worker's busy/idle timeline."""
        segs: list[tuple[float, float, str]] = []
        interesting = [
            tr for tr in self.transitions
            if tr.state in ("registered", "idle", "busy", "stopped", "lost", "killed")
        ]
        end_time = self.t_stop if self.t_stop is not None else until
        for i, tr in enumerate(interesting):
            t1 = interesting[i + 1].time if i + 1 < len(interesting) else end_time
            if t1 is None or tr.state in ("stopped", "lost", "killed"):
                continue
            if t1 > tr.time:
                segs.append((tr.time, t1, tr.state))
        return segs

    def busy_time(self, until: Optional[float] = None) -> float:
        """Total time spent in the ``busy`` state."""
        return sum(
            e - s for s, e, st in self.state_segments(until) if st == "busy"
        )


@dataclass
class RunSpans:
    """Everything one run's trace decomposes into."""

    jobs: dict[str, JobSpan] = field(default_factory=dict)
    workers: dict[int, WorkerSpan] = field(default_factory=dict)
    faults: list[float] = field(default_factory=list)
    #: Every injected fault as ``(time, kind)`` — kind is the ``fault.*``
    #: category suffix (``kill``, ``straggler``, ``net_drop``, ...).
    #: ``faults`` keeps only the kill times (Fig. 10 semantics).
    fault_events: list[tuple[float, str]] = field(default_factory=list)
    #: Resume checkpoints folded from ``resume.begin`` — ``(time,
    #: segment)`` per resume of a journaled run.
    resumes: list[tuple[float, int]] = field(default_factory=list)
    #: job_id -> settled outcome for jobs skipped at resume (already
    #: done/failed in the journal the resume replayed).
    resume_skipped: dict[str, str] = field(default_factory=dict)
    #: Job ids resubmitted at resume (journaled in-flight at the crash).
    resume_resubmitted: list[str] = field(default_factory=list)
    #: Crash point the last resume reported (sim-time of the torn run's
    #: final journaled record).
    crash_time: Optional[float] = None
    #: ``counter.*`` mirror records as ``name -> [(time, value)]``.
    counters: dict[str, list[tuple[float, float]]] = field(
        default_factory=dict
    )
    #: Run metadata from the ``run.allocation`` record, when present.
    allocation_nodes: Optional[int] = None
    cores_per_node: Optional[int] = None
    #: Serial-task slots each pilot advertised (for core-share accounting).
    worker_slots: Optional[int] = None
    machine: str = ""
    t_first: Optional[float] = None
    t_last: Optional[float] = None

    def job_list(self) -> list[JobSpan]:
        return list(self.jobs.values())

    def worker_list(self) -> list[WorkerSpan]:
        return list(self.workers.values())

    @property
    def span(self) -> float:
        """Wall-time from first to last trace record."""
        if self.t_first is None or self.t_last is None:
            return 0.0
        return self.t_last - self.t_first


def _job_span(run: RunSpans, job_id: str) -> JobSpan:
    span = run.jobs.get(job_id)
    if span is None:
        span = JobSpan(job_id)
        run.jobs[job_id] = span
    return span


def _worker_span(run: RunSpans, worker_id: int) -> WorkerSpan:
    span = run.workers.get(worker_id)
    if span is None:
        span = WorkerSpan(worker_id)
        run.workers[worker_id] = span
    return span


class SpanBuilder:
    """Incremental span assembly: fold records one at a time.

    Subscribe :meth:`fold` to a :class:`~repro.simkernel.Trace` (or call
    it per record while tailing a JSONL file) and read :attr:`run` at
    any point — the folded spans are always consistent with the records
    seen so far.  State is proportional to the number of *entities*
    (jobs, workers) and counter ticks, not records, so million-record
    runs fold in bounded extra memory while wire chatter streams past.

    The fold trusts its records' payload kinds: a live run's records
    are the simulator's own (the campaign oracles check them), and a
    record read from a file is folded only once the record judge
    (:func:`repro.analysis.schema.record_problems`) has passed it.
    """

    def __init__(self):
        self.run = RunSpans()

    def fold(self, rec: TraceRecord) -> None:
        """Fold one record into the spans (subscriber entry point)."""
        run = self.run
        if run.t_first is None:
            run.t_first = rec.time
        run.t_last = rec.time
        cat, data = rec.category, rec.data or {}
        if cat.startswith("job."):
            _apply_job(run, rec.time, cat[4:], data)
        elif cat.startswith("worker."):
            _apply_worker(run, rec.time, cat[7:], data)
        elif cat.startswith("proxy."):
            _apply_proxy(run, rec.time, cat[6:], data)
        elif cat.startswith("counter."):
            # The mirror record of a traced Counter (its Perfetto track).
            name = data.get("counter") or cat[8:]
            run.counters.setdefault(name, []).append(
                (rec.time, float(data.get("value", 0.0)))
            )
        elif cat.startswith("fault."):
            kind = cat[6:]
            if kind != "heal":  # heal records close faults, not open them
                run.fault_events.append((rec.time, kind))
            if kind == "kill":
                run.faults.append(rec.time)
        elif cat.startswith("resume."):
            _apply_resume(run, rec.time, cat[7:], data)
        elif cat == "run.allocation":
            run.allocation_nodes = data.get("nodes")
            run.cores_per_node = data.get("cores_per_node")
            run.worker_slots = data.get("slots")
            run.machine = data.get("machine", "")

    def result(self) -> RunSpans:
        """The spans folded so far."""
        return self.run


def build_spans(source: Iterable[TraceRecord]) -> RunSpans:
    """Assemble lifecycle spans from any record iterable — a trace that
    kept every record, or records re-read from a JSONL dump."""
    builder = SpanBuilder()
    fold = builder.fold
    for rec in source:
        fold(rec)
    return builder.run


def _apply_job(run: RunSpans, t: float, state: str, data: dict) -> None:
    job_id = data.get("job")
    if job_id is None:
        return
    span = _job_span(run, job_id)
    if state == "submitted":
        span.t_submitted = t
        span.mpi = data.get("mpi", span.mpi)
        span.nodes = data.get("nodes", span.nodes)
        span.ppn = data.get("ppn", span.ppn)
        return
    if state == "dispatch":
        # Legacy category kept for seed compatibility; the typed
        # ``grouped`` transition carries the same moment.
        return
    if state == "retry":
        # The dispatcher's requeue record closes the current attempt as
        # ``resubmitted``; the following ``queued`` opens a fresh one.
        span.open_attempt().add(t, "resubmitted", data)
        return
    if state in ("done", "failed"):
        # A permanent failure logs retry (resubmitted) and failed at the
        # same instant with no fresh queued in between — the terminal
        # transition belongs to that same attempt, not a new one.
        last = span.attempts[-1] if span.attempts else None
        if (
            state == "failed"
            and last is not None
            and last.outcome == "resubmitted"
            and last.t_end == t
        ):
            attempt = last
        else:
            attempt = span.open_attempt()
        attempt.add(t, state, data)
        span.t_end = t
        span.ok = state == "done"
        span.error = data.get("error", "") or ""
        span.app_start = data.get("app_start")
        span.app_end = data.get("app_end")
        span.nominal = data.get("nominal")
        # Jobs can fail synchronously at submit (oversized): their only
        # transition is the terminal one.
        return
    if state in ("queued", "grouped", "mpiexec_spawned", "pmi_wireup", "app_running"):
        span.open_attempt().add(t, state, data)


def _apply_resume(run: RunSpans, t: float, state: str, data: dict) -> None:
    if state == "begin":
        run.resumes.append((t, data.get("segment", 0)))
        if data.get("crash_time") is not None:
            run.crash_time = data.get("crash_time")
    elif state == "skip":
        job_id = data.get("job")
        if job_id is not None:
            run.resume_skipped[job_id] = str(data.get("outcome", ""))
    elif state == "resubmit":
        job_id = data.get("job")
        if job_id is not None:
            run.resume_resubmitted.append(job_id)


def _apply_worker(run: RunSpans, t: float, state: str, data: dict) -> None:
    worker_id = data.get("worker")
    if worker_id is None:
        return
    span = _worker_span(run, worker_id)
    if state == "start":
        span.t_start = t
        span.node = data.get("node", span.node)
        span.add(t, "started", data)
    elif state == "registered":
        span.t_registered = t
        span.node = data.get("node", span.node)
        span.add(t, "registered", data)
    elif state == "stop":
        span.t_stop = t
        span.add(t, "stopped", data)
    elif state in ("idle", "busy", "heartbeat_missed", "lost", "killed"):
        span.add(t, state, data)
    # per-slot "ready" chatter is intentionally ignored: the aggregator's
    # typed idle/busy transitions carry the worker-level state.


def _apply_proxy(run: RunSpans, t: float, state: str, data: dict) -> None:
    job_id = data.get("job")
    proxy_id = data.get("proxy")
    if job_id is None or proxy_id is None:
        return
    attempt = _job_span(run, job_id).open_attempt()
    proxy: Optional[ProxySpan] = None
    for p in attempt.proxies:
        if p.proxy_id == proxy_id:
            proxy = p
            break
    if proxy is None:
        proxy = ProxySpan(job_id, proxy_id, node=data.get("node"))
        attempt.proxies.append(proxy)
    if data.get("node") is not None:
        proxy.node = data["node"]
    if state == "launched":
        proxy.t_launched = t
    elif state == "registered":
        proxy.t_registered = t
    elif state == "wired":
        proxy.t_wired = t
    elif state == "exited":
        proxy.t_exited = t
        proxy.status = data.get("status")
