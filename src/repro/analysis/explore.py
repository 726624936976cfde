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
the explorer always re-validates the historical schedule too.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..simkernel import Environment, SeededOrder
from .protocol import SessionValidator, WireMessage, wire_message
from .tracecheck import TraceValidator

__all__ = [
    "ExploreConfig",
    "ScheduleResult",
    "ExploreReport",
    "run_schedule",
    "explore",
    "wire_messages",
    "explore_main",
]


@dataclass(frozen=True)
class ExploreConfig:
    """Bounds of one exploration campaign.

    The default workload is the CI smoke configuration: 4 single-slot...
    workers on 2-core nodes, a serial/MPI job mix with 2-node MPI jobs,
    so any single injected worker loss always leaves enough capacity to
    drain.
    """

    workers: int = 4
    cores_per_node: int = 2
    serial_tasks: int = 4
    mpi_tasks: int = 2
    mpi_nodes: int = 2
    schedules: int = 200
    seed: int = 0
    heartbeat: float = 0.5
    until: float = 900.0
    max_attempts: int = 6
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


@dataclass
class ExploreReport:
    """Everything one exploration campaign produced."""

    config: ExploreConfig
    results: list[ScheduleResult] = field(default_factory=list)

    @property
    def failures(self) -> list[ScheduleResult]:
        return [r for r in self.results if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.failures


def wire_messages(events) -> list[WireMessage]:
    """Adapt tapped :class:`~repro.netsim.sockets.WireEvent` records to
    protocol :class:`WireMessage` instances (unknown services dropped)."""
    out: list[WireMessage] = []
    for ev in events:
        msg = wire_message(ev)
        if msg is not None:
            out.append(msg)
    return out


def _derive_seed(base: int, index: int) -> int:
    # Schedule 0 keeps the FIFO baseline (SeededOrder(0) is a constant
    # tiebreak); later schedules get well-separated xorshift streams.
    if index == 0 and base == 0:
        return 0
    return (base * 1_000_003 + index) & ((1 << 63) - 1) or 1


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
    # Imported here: the analysis layer stays importable without pulling
    # the whole middleware stack in for the static rules.
    from ..apps.synthetic import BarrierSleepBarrier, SleepProgram
    from ..cluster.machine import generic_cluster
    from ..cluster.platform import Platform
    from ..core.dispatcher import JetsDispatcher, JetsServiceConfig
    from ..core.tasklist import JobSpec
    from ..core.worker import WorkerAgent
    from ..obs.export import CanonicalDigest

    seed = _derive_seed(config.seed, index)
    # Seed 0 is the FIFO baseline: run it on the production calendar-queue
    # engine (no SchedulingOrder installed) instead of the legacy tiebreak
    # heap with a constant tiebreak.  The two engines realize the same
    # FIFO contract, so the schedule-0 digest doubles as a cross-engine
    # equivalence oracle — permuted schedules still install SeededOrder
    # and replay on the 5-tuple heap exactly as before.
    env = Environment() if seed == 0 else Environment(order=SeededOrder(seed))
    platform = Platform(
        generic_cluster(
            nodes=config.workers, cores_per_node=config.cores_per_node
        ),
        env=env,
        seed=seed,
    )
    # Oracles 2 and 3 validate *as the run streams*: the trace validator
    # subscribes to the platform trace and the session validator is the
    # network tap itself, so neither needs the full record/message list
    # retained (the trace sink may window-and-spill underneath them).
    trace_validator = TraceValidator()
    platform.trace.subscribe(trace_validator.feed)
    sessions = SessionValidator()
    platform.network.add_tap(sessions.tap)
    digest = CanonicalDigest()
    platform.trace.subscribe(digest.feed)
    if attach is not None:
        attach(env, platform)

    dispatcher = JetsDispatcher(
        platform,
        JetsServiceConfig(heartbeat_interval=config.heartbeat),
        expected_workers=config.workers,
    )
    dispatcher.start()
    agents = [
        WorkerAgent(
            platform,
            node,
            dispatcher.endpoint,
            heartbeat_interval=config.heartbeat,
            worker_id=i,
        )
        for i, node in enumerate(platform.nodes)
    ]
    for agent in agents:
        agent.start()

    # Explicit job ids: the default JobSpec ids draw from a process-wide
    # counter, which would make the outcome digest depend on how many
    # specs this *process* built before — a schedule must be a pure
    # function of (config, index) for digest comparison to mean anything.
    jobs = []
    for i in range(config.serial_tasks):
        jobs.append(
            JobSpec(
                program=SleepProgram(0.3 + 0.2 * (i % 3)),
                nodes=1,
                mpi=False,
                max_attempts=config.max_attempts,
                job_id=f"job{i}",
            )
        )
    for i in range(config.mpi_tasks):
        jobs.append(
            JobSpec(
                program=BarrierSleepBarrier(0.8),
                nodes=config.mpi_nodes,
                ppn=config.cores_per_node,
                mpi=True,
                max_attempts=config.max_attempts,
                job_id=f"job{config.serial_tasks + i}",
            )
        )
    dispatcher.submit_many(jobs)

    # Odd schedules inject one worker loss at a schedule-derived point:
    # the draw sweeps the kill across the register/ready window, the
    # run_proxy wire-up and the application phase as schedules vary.
    killed_worker: Optional[int] = None
    kill_time: Optional[float] = None
    if config.faults and index % 2 == 1:
        draw = SeededOrder(
            (seed * 0x9E3779B97F4A7C15 + 0x5DEECE66D) & ((1 << 63) - 1) or 1
        )
        for _warm in range(4):  # adjacent seeds need mixing before use
            draw.tiebreak(None)  # type: ignore[arg-type]
        # The window spans register/ready, wire-up and app phases of an
        # unperturbed run (which drains in ~1.6 sim-seconds).
        kill_time = 0.02 + 1.6 * draw.tiebreak(None)  # type: ignore[arg-type]
        victim = int(
            draw.tiebreak(None) * len(agents)  # type: ignore[arg-type]
        ) % len(agents)
        killed_worker = agents[victim].worker_id

        def killer(agent=agents[victim], at=kill_time):
            yield env.timeout(at)
            if agent.alive:
                platform.trace.log(
                    "fault.kill", {"worker": agent.worker_id}
                )
                agent.kill()

        env.process(killer(), name="explore-kill")

    watchdog = env.timeout(config.until)
    env.run(env.any_of([dispatcher.drained, watchdog]))
    drained = dispatcher.drained.triggered
    if drained:
        # Exercise the shutdown path in every schedule, then let the
        # shutdown messages and worker teardown drain.
        env.process(dispatcher.shutdown_workers(), name="explore-shutdown")
        env.run(until=env.now + 10 * config.heartbeat + 1.0)

    result = ScheduleResult(
        index=index,
        seed=seed,
        killed_worker=killed_worker,
        kill_time=kill_time,
        drained=drained,
        wire_count=sessions.seen,
        digest=digest.hexdigest(),
    )
    if not drained:
        result.problems.append(
            f"run did not drain within {config.until} sim-seconds "
            f"({dispatcher.jobs_finished}/{dispatcher.jobs_submitted} jobs)"
        )
    for issue in trace_validator.issues:
        result.problems.append(f"lint-trace: {issue.render()}")
    for problem in sessions.finish():
        result.problems.append(f"protocol: {problem}")
    env.close()
    return result


def explore(config: ExploreConfig, progress=None) -> ExploreReport:
    """Run the whole campaign; ``progress`` is called per schedule."""
    report = ExploreReport(config=config)
    for index in range(config.schedules):
        result = run_schedule(config, index)
        report.results.append(result)
        if progress is not None:
            progress(result)
    return report


def explore_main(argv: Optional[Sequence[str]] = None) -> int:
    """``jets explore`` — exit 0 if every schedule passed, 1 otherwise."""
    parser = argparse.ArgumentParser(
        prog="jets explore",
        description=(
            "Systematically permute event schedules (and inject worker "
            "loss) on a small JETS configuration, validating drain, "
            "trace and wire-protocol conformance after every schedule."
        ),
    )
    parser.add_argument(
        "--schedules", type=int, default=200,
        help="number of distinct schedules to run (default 200)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="base seed; schedule 0 of seed 0 is the FIFO baseline",
    )
    parser.add_argument(
        "--workers", type=int, default=4,
        help="worker (node) count of the smoke configuration",
    )
    parser.add_argument(
        "--serial-tasks", type=int, default=4,
        help="serial jobs in the workload mix",
    )
    parser.add_argument(
        "--mpi-tasks", type=int, default=2,
        help="MPI jobs in the workload mix",
    )
    parser.add_argument(
        "--mpi-nodes", type=int, default=2,
        help="nodes per MPI job (keep below --workers so kills drain)",
    )
    parser.add_argument(
        "--until", type=float, default=900.0,
        help="per-schedule drain watchdog, in sim-seconds",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="print one line per schedule",
    )
    args = parser.parse_args(argv)

    config = ExploreConfig(
        workers=args.workers,
        serial_tasks=args.serial_tasks,
        mpi_tasks=args.mpi_tasks,
        mpi_nodes=args.mpi_nodes,
        schedules=args.schedules,
        seed=args.seed,
        until=args.until,
    )
    if config.mpi_tasks and config.mpi_nodes >= config.workers:
        print(
            "jets explore: --mpi-nodes must stay below --workers or an "
            "injected kill can never drain",
            file=sys.stderr,
        )
        return 2

    def progress(result: ScheduleResult) -> None:
        if args.verbose or not result.ok:
            kill = (
                f" kill=w{result.killed_worker}@{result.kill_time:.3f}"
                if result.killed_worker is not None
                else ""
            )
            status = "ok" if result.ok else "FAIL"
            print(
                f"schedule {result.index:4d} seed={result.seed}{kill} "
                f"wire={result.wire_count} {status}"
            )
            for problem in result.problems[:10]:
                print(f"    {problem}")

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
