"""Run-summary reports rendered from lifecycle spans.

Computes the quantities the paper reports — task throughput (Fig. 6),
Eq. (1) utilization (Fig. 9/12), fault/resubmit counts (Fig. 10) — plus
per-stage latency quantiles (queue-wait, wire-up) from the span layer,
and renders them as a plain-text block.  Works on a live trace or on a
JSONL dump reloaded by ``jets report``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from ..simkernel import TraceRecord
from .metrics import Histogram, Registry
from .spans import RunSpans, build_spans

__all__ = ["RunReport", "render_report", "resubmit_cause"]

_STAGES = ("queue_wait", "wireup", "app")

#: Render/aggregation order for resubmit causes (known causes first).
_CAUSES = (
    "heartbeat", "deadline", "wireup_abort", "connection", "task_error",
    "other",
)


def resubmit_cause(data: Optional[dict]) -> str:
    """Classify a ``job.retry`` payload into a resubmit cause.

    Prefers the typed ``reason`` key (present when the dispatcher knows
    why: ``heartbeat``, ``deadline``, ``wireup_abort``); otherwise falls
    back to error-text heuristics so traces recorded before the key
    existed still break down sensibly.
    """
    data = data or {}
    reason = data.get("reason")
    if reason:
        return str(reason)
    error = str(data.get("error", "")).lower()
    if "heartbeat" in error:
        return "heartbeat"
    if "deadline" in error or "hung" in error:
        return "deadline"
    if "wire-up" in error or "wireup" in error or "watchdog" in error:
        return "wireup_abort"
    if "connection" in error or "unreachable" in error or "closed" in error:
        return "connection"
    if "status" in error:
        return "task_error"
    return "other"


@dataclass
class RunReport:
    """Derived metrics of one run, ready to render."""

    machine: str = ""
    allocation_nodes: Optional[int] = None
    jobs_total: int = 0
    jobs_completed: int = 0
    jobs_failed: int = 0
    resubmissions: int = 0
    #: resubmit cause -> count (see :func:`resubmit_cause`).
    resubmit_causes: dict[str, int] = field(default_factory=dict)
    faults: int = 0
    #: injected-fault kind -> count (``fault.*`` category suffixes).
    fault_kinds: dict[str, int] = field(default_factory=dict)
    workers_seen: int = 0
    workers_lost: int = 0
    #: Crash-recovery (``resume.*``) breakdown of a resumed run.
    resumes: int = 0
    resume_skipped_done: int = 0
    resume_skipped_failed: int = 0
    resume_resubmitted: int = 0
    crash_time: Optional[float] = None
    span: float = 0.0
    throughput: float = 0.0
    utilization: Optional[float] = None
    worker_busy_fraction: Optional[float] = None
    #: stage name -> Histogram.summary() dict
    stages: dict[str, dict] = field(default_factory=dict)
    #: Registry snapshot (live runs only; absent when rebuilt from JSONL).
    instruments: dict[str, dict] = field(default_factory=dict)
    #: Performance: kernel events the run's environment processed.
    events_processed: Optional[int] = None
    #: Performance: total trace records the run logged.
    trace_records: Optional[int] = None
    #: Performance: simulated seconds the environment advanced.
    sim_seconds: Optional[float] = None
    #: Performance: wall seconds (live sessions only — never from JSONL,
    #: whose perf trailer is deterministic by construction).
    wall_seconds: Optional[float] = None

    @classmethod
    def from_spans(
        cls,
        spans: RunSpans,
        registry: Optional[Registry] = None,
        allocation_nodes: Optional[int] = None,
        perf: Optional[dict] = None,
    ) -> "RunReport":
        """Compute every summary quantity from a run's spans."""
        jobs = spans.job_list()
        completed = [j for j in jobs if j.ok]
        failed = [j for j in jobs if j.ok is False]

        causes: dict[str, int] = {}
        for job in jobs:
            for attempt in job.attempts:
                for tr in attempt.transitions:
                    if tr.state == "resubmitted":
                        cause = resubmit_cause(tr.data)
                        causes[cause] = causes.get(cause, 0) + 1
        kinds: dict[str, int] = {}
        for _t, kind in spans.fault_events:
            kinds[kind] = kinds.get(kind, 0) + 1

        stage_hists = {name: Histogram(name) for name in _STAGES}
        for job in jobs:
            for attempt in job.attempts:
                qw = attempt.queue_wait
                if qw is not None:
                    stage_hists["queue_wait"].observe(qw)
                wl = attempt.wireup_latency
                if wl is not None:
                    stage_hists["wireup"].observe(wl)
                if (
                    attempt.t_app_running is not None
                    and attempt.t_end is not None
                    and attempt.outcome == "done"
                ):
                    stage_hists["app"].observe(
                        attempt.t_end - attempt.t_app_running
                    )

        # Job span: first dispatch to last completion — the same window
        # the stand-alone report's ledger charges (long tails included).
        starts = [
            a.t_grouped
            for j in completed
            for a in j.attempts[:1]
            if a.t_grouped is not None
        ]
        ends = [j.t_end for j in completed if j.t_end is not None]
        active_span = (max(ends) - min(starts)) if starts and ends else 0.0

        alloc = allocation_nodes or spans.allocation_nodes
        utilization: Optional[float] = None
        if alloc and active_span > 0:
            # Lazy import: metrics.timeline pulls obs.spans in at import
            # time, so the reverse edge must not run at module load.
            from ..metrics.utilization import UtilizationLedger

            ledger = UtilizationLedger.from_spans(spans, alloc)
            utilization = ledger.utilization()

        workers = spans.worker_list()
        busy_fraction: Optional[float] = None
        if workers:
            total = 0.0
            busy = 0.0
            for w in workers:
                for s, e, state in w.state_segments(until=spans.t_last):
                    total += e - s
                    if state == "busy":
                        busy += e - s
            busy_fraction = (busy / total) if total > 0 else None

        return cls(
            machine=spans.machine,
            allocation_nodes=alloc,
            jobs_total=len(jobs),
            jobs_completed=len(completed),
            jobs_failed=len(failed),
            resubmissions=sum(j.resubmissions for j in jobs),
            resubmit_causes=causes,
            faults=len(spans.faults),
            fault_kinds=kinds,
            workers_seen=len(workers),
            workers_lost=sum(1 for w in workers if w.outcome == "lost"),
            resumes=len(spans.resumes),
            resume_skipped_done=sum(
                1 for o in spans.resume_skipped.values() if o == "done"
            ),
            resume_skipped_failed=sum(
                1 for o in spans.resume_skipped.values() if o == "failed"
            ),
            resume_resubmitted=len(spans.resume_resubmitted),
            crash_time=spans.crash_time,
            span=active_span,
            throughput=(len(completed) / active_span) if active_span > 0 else 0.0,
            utilization=utilization,
            worker_busy_fraction=busy_fraction,
            stages={
                name: h.summary()
                for name, h in stage_hists.items()
                if h.count
            },
            instruments=registry.snapshot() if registry is not None else {},
            events_processed=(perf or {}).get("events"),
            trace_records=(perf or {}).get("records"),
            sim_seconds=(perf or {}).get("sim_s"),
            wall_seconds=(perf or {}).get("wall_s"),
        )

    @classmethod
    def from_trace(
        cls,
        source: Iterable[TraceRecord],
        registry: Optional[Registry] = None,
        allocation_nodes: Optional[int] = None,
        perf: Optional[dict] = None,
    ) -> "RunReport":
        """Build the report straight from trace records.

        A live :class:`~repro.simkernel.Trace` fills the performance
        fields from its own :meth:`~repro.simkernel.Trace.perf`;
        reloaded record lists rely on the caller passing ``perf`` (e.g.
        from a JSONL perf trailer).
        """
        if perf is None and hasattr(source, "perf"):
            perf = source.perf()
        return cls.from_spans(
            build_spans(source), registry, allocation_nodes, perf=perf
        )

    def render(self, title: str = "") -> str:
        """Plain-text run summary."""
        head = title or (self.machine or "run")
        alloc = (
            f" on {self.allocation_nodes} nodes"
            if self.allocation_nodes
            else ""
        )
        lines = [
            f"== run report: {head}{alloc} ==",
            (
                f"jobs: {self.jobs_total} submitted, "
                f"{self.jobs_completed} completed, "
                f"{self.jobs_failed} failed, "
                f"{self.resubmissions} resubmissions"
            ),
            (
                f"workers: {self.workers_seen} seen, "
                f"{self.workers_lost} lost, "
                f"{self.faults} faults injected"
            ),
        ]
        if self.fault_kinds:
            lines.append(
                "faults by kind: "
                + ", ".join(
                    f"{k}={v}" for k, v in sorted(self.fault_kinds.items())
                )
            )
        if self.resumes:
            crash = (
                f", crash at t={self.crash_time:.3f} s"
                if self.crash_time is not None
                else ""
            )
            lines.append(
                f"recovery: {self.resumes} resume(s){crash} — "
                f"{self.resume_skipped_done} skipped done, "
                f"{self.resume_skipped_failed} skipped failed, "
                f"{self.resume_resubmitted} resubmitted"
            )
        if self.resubmit_causes:
            ordered = [c for c in _CAUSES if c in self.resubmit_causes]
            ordered += sorted(
                c for c in self.resubmit_causes if c not in _CAUSES
            )
            lines.append(
                "resubmits by cause: "
                + ", ".join(f"{c}={self.resubmit_causes[c]}" for c in ordered)
            )
        lines += [
            (
                f"span: {self.span:.3f} s, "
                f"throughput: {self.throughput:.2f} jobs/s"
            ),
        ]
        if self.utilization is not None:
            lines.append(f"utilization (Eq. 1): {self.utilization:.1%}")
        if self.worker_busy_fraction is not None:
            lines.append(
                f"worker busy fraction: {self.worker_busy_fraction:.1%}"
            )
        if self.stages:
            lines.append(
                "stage latencies (s):"
                f"{'':<6}{'p50':>10}{'p95':>10}{'p99':>10}"
                f"{'mean':>10}{'max':>10}{'n':>7}"
            )
            for name in _STAGES:
                s = self.stages.get(name)
                if not s:
                    continue
                lines.append(
                    f"  {name:<15}"
                    f"{s['p50']:>10.4f}{s['p95']:>10.4f}{s['p99']:>10.4f}"
                    f"{s['mean']:>10.4f}{s['max']:>10.4f}{s['count']:>7d}"
                )
        counters = {
            k: v for k, v in self.instruments.items() if v["type"] == "counter"
        }
        if counters:
            lines.append(
                "counters: "
                + ", ".join(f"{k}={v['value']}" for k, v in sorted(counters.items()))
            )
        occ = self.instruments.get("dispatcher.occupancy")
        if occ is not None:
            lines.append(
                f"dispatcher service-loop occupancy: {occ['mean']:.1%} mean"
            )
        if (
            self.events_processed is not None
            or self.trace_records is not None
            or self.sim_seconds is not None
        ):
            parts = []
            if self.events_processed is not None:
                parts.append(f"{self.events_processed} kernel events")
            if self.trace_records is not None:
                parts.append(f"{self.trace_records} trace records")
            if self.sim_seconds is not None:
                parts.append(f"sim {self.sim_seconds:.3f} s")
            lines.append("performance: " + ", ".join(parts))
            if self.wall_seconds is not None and self.wall_seconds > 0:
                ratio = (
                    f", sim/wall {self.sim_seconds / self.wall_seconds:.1f}x"
                    if self.sim_seconds is not None
                    else ""
                )
                rate = (
                    f", {self.events_processed / self.wall_seconds:,.0f} events/s"
                    if self.events_processed is not None
                    else ""
                )
                lines.append(
                    f"  wall {self.wall_seconds:.3f} s{ratio}{rate}"
                )
        return "\n".join(lines)


def render_report(
    source: Union[Iterable[TraceRecord], RunSpans],
    registry: Optional[Registry] = None,
    title: str = "",
    allocation_nodes: Optional[int] = None,
    perf: Optional[dict] = None,
) -> str:
    """One-call convenience: spans/trace in, text report out."""
    if isinstance(source, RunSpans):
        return RunReport.from_spans(
            source, registry, allocation_nodes, perf=perf
        ).render(title)
    return RunReport.from_trace(
        source, registry, allocation_nodes, perf=perf
    ).render(title)
