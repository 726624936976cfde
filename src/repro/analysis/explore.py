"""Bounded schedule exploration for the JETS control plane (``jets explore``).

A miniature systematic-concurrency-testing pass: the same small
dispatcher/worker/mpiexec configuration is executed many times under the
simkernel, each run with a differently seeded
:class:`~repro.simkernel.SeededOrder` permuting the ready-queue order of
simultaneous events — every such permutation is a schedule the real,
asynchronous system could exhibit — and half the schedules additionally
inject a worker kill at a schedule-derived time (the registered-but-not-
ready window, mid-``run_proxy`` wire-up, mid-application, ...).

After every schedule three oracles must hold:

1. the run **drains** (every job completes or permanently fails — no
   lost wakeup or stuck queue under any interleaving),
2. the recorded trace passes the ``lint-trace`` validators (schema +
   lifecycle machines, :mod:`.tracecheck`),
3. the wire traffic captured by a network tap satisfies the per-channel
   protocol session machines and credit/commit rules
   (:func:`.protocol.validate_sessions`).

Schedule 0 (with the default base seed) is the FIFO baseline ordering, so
the explorer always re-validates the historical schedule too; it runs on
the calendar engine, so it also cross-checks the two scheduler engines.
Every schedule is built, drained and judged by :mod:`.campaign`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..core.chaos import ChaosEngine, FaultClause, FaultPlan
from ..core.dispatcher import JetsServiceConfig
from ..obs.export import CanonicalDigest
from ..simkernel import SeededOrder
from . import campaign
from .protocol import WireMessage, wire_message

__all__ = [
    "ExploreConfig",
    "ScheduleResult",
    "run_schedule",
    "explore",
    "wire_messages",
    "explore_main",
]


@dataclass(frozen=True)
class ExploreConfig(campaign.SmokeConfig):
    """Bounds of one exploration campaign on the smoke configuration."""

    schedules: int = 200
    #: Inject worker kills on odd schedules.  The sanitizer's race-
    #: confirmation loop turns this off: it compares outcome digests
    #: across schedules, and a kill is a *real* behavioural difference
    #: that would drown the reordering signal it is looking for.
    faults: bool = True


@dataclass
class ScheduleResult:
    """Outcome of one explored schedule."""

    index: int
    seed: int
    killed_worker: Optional[int]
    kill_time: Optional[float]
    drained: bool
    wire_count: int
    problems: list[str] = field(default_factory=list)
    #: Canonical outcome digest (same-timestamp order-insensitive); two
    #: schedules with equal digests were observably equivalent.
    digest: str = ""

    @property
    def ok(self) -> bool:
        return self.drained and not self.problems


def wire_messages(events) -> list[WireMessage]:
    """Adapt tapped :class:`~repro.netsim.sockets.WireEvent` records to
    protocol :class:`WireMessage` instances (unknown services dropped)."""
    out: list[WireMessage] = []
    for ev in events:
        msg = wire_message(ev)
        if msg is not None:
            out.append(msg)
    return out


def run_schedule(
    config: ExploreConfig, index: int, attach=None
) -> ScheduleResult:
    """Execute and validate one schedule of the smoke configuration.

    ``attach(env, platform)``, when given, is called after the standard
    validators are wired but before any workload starts — the hook the
    sanitizer uses to ride a
    :class:`~repro.analysis.hbmodel.HappensBeforeChecker` (or any other
    observer) along an explored schedule.  Observers must be
    observation-only; the schedule itself is fully determined by
    ``config`` and ``index``.
    """
    seed = campaign.derive_seed(config.seed, index)
    run = campaign.Run(config.machine(), seed)
    digest = CanonicalDigest()
    run.platform.trace.subscribe(digest.feed)
    if attach is not None:
        attach(run.env, run.platform)
    # Pinned worker and job ids: the default ids draw from process-wide
    # counters, which would make the outcome digest depend on how many
    # this *process* built before.
    dispatcher = run.start(
        JetsServiceConfig(heartbeat_interval=config.heartbeat), pin_ids=True
    )
    dispatcher.submit_many(campaign.smoke_jobs(config, pin_ids=True))

    # Odd schedules inject one worker loss at a schedule-derived point:
    # the draw sweeps the kill across the register/ready window, the
    # run_proxy wire-up and the application phase as schedules vary.
    killed_worker: Optional[int] = None
    kill_time: Optional[float] = None
    if config.faults and index % 2 == 1:
        agents = run.agents
        draw = SeededOrder(
            (seed * 0x9E3779B97F4A7C15 + 0x5DEECE66D) & ((1 << 63) - 1) or 1
        )
        for _warm in range(4):  # adjacent seeds need mixing before use
            draw.tiebreak(None)  # type: ignore[arg-type]
        # The window spans register/ready, wire-up and app phases of an
        # unperturbed run (which drains in ~1.6 sim-seconds).
        kill_time = 0.02 + 1.6 * draw.tiebreak(None)  # type: ignore[arg-type]
        victim = agents[int(
            draw.tiebreak(None) * len(agents)  # type: ignore[arg-type]
        ) % len(agents)]
        killed_worker = victim.worker_id
        # The kill may land after the drain; the engine stays armed
        # through the shutdown that follows, as the victim does.
        ChaosEngine(run.platform, lambda: agents).start(FaultPlan((
            FaultClause(
                kind="worker_kill", mode="scheduled", times=(kill_time,),
                nodes=(victim.node.node_id,),
            ),
        )))

    drained = run.drain(config.until)
    return ScheduleResult(
        index=index,
        seed=seed,
        killed_worker=killed_worker,
        kill_time=kill_time,
        drained=drained,
        wire_count=run.sessions.seen,
        digest=digest.hexdigest(),
        problems=run.judge(drained, config.until),
    )


def explore(config: ExploreConfig, progress=None) -> campaign.CampaignReport:
    """Run the whole campaign; ``progress`` is called per schedule."""
    return campaign.run_campaign(
        campaign.CampaignReport(config),
        config.schedules,
        lambda index: run_schedule(config, index),
        progress,
    )


def explore_main(argv: Optional[Sequence[str]] = None) -> int:
    """``jets explore`` — exit 0 if every schedule passed, 1 otherwise."""
    parsed = campaign.parse_smoke_args(
        "jets explore",
        "Systematically permute event schedules (and inject worker "
        "loss) on a small JETS configuration, validating drain, "
        "trace and wire-protocol conformance after every schedule.",
        ExploreConfig(),
        "schedule",
        {"--schedules": "number of distinct schedules to run (default 200)"},
        argv,
    )
    if parsed is None:
        return 2
    verbose, config = parsed

    def progress(result: ScheduleResult) -> None:
        kill = (
            f" kill=w{result.killed_worker}@{result.kill_time:.3f}"
            if result.killed_worker is not None
            else ""
        )
        campaign.print_result(
            result,
            f"schedule {result.index:4d} seed={result.seed}{kill} "
            f"wire={result.wire_count}",
            verbose,
        )

    report = explore(config, progress)
    failed = len(report.failures)
    kills = sum(
        1 for r in report.results if r.killed_worker is not None
    )
    print(
        f"jets explore: {len(report.results)} schedules "
        f"({kills} with injected worker loss) — "
        + ("all passed" if report.ok else f"{failed} FAILED")
    )
    return 0 if report.ok else 1
