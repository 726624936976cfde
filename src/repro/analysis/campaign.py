"""One campaign harness for ``jets explore``, ``jets chaos`` and ``jets
resume --verify``: the blocks every campaign run is built, drained and
judged with (the dispatcher must keep short jobs running while pilots
die, paper Section 6.1.5, Fig. 10).

* provisioning: :func:`derive_seed` and :class:`Run`, which builds the
  platform under its seed's order with the verdict's oracles attached and
  starts the dispatcher and one pilot per node;
* dispatch: the :func:`smoke_jobs` mix and :meth:`Run.drain`;
* judging: :meth:`Run.judge`, and :func:`run_campaign` filling one
  :class:`CampaignReport`.

Each campaign keeps only its own parts: explore its digest, kill draw
and ``attach`` hook; chaos its recovery policy, keeper, staging and
fault engine; resume its ledger, journal and ``resume.*`` records.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, replace
from typing import Optional

from ..apps.synthetic import BarrierSleepBarrier, SleepProgram
from ..cluster.machine import generic_cluster
from ..cluster.platform import Platform
from ..core.dispatcher import JetsDispatcher
from ..core.tasklist import JobSpec
from ..core.worker import WorkerAgent
from ..simkernel import Environment, Event, SeededOrder
from .protocol import SessionValidator
from .tracecheck import TraceValidator

__all__ = [
    "derive_seed",
    "SmokeConfig",
    "smoke_jobs",
    "Run",
    "CampaignReport",
    "run_campaign",
    "parse_smoke_args",
    "print_result",
]


def derive_seed(base: int, index: int) -> int:
    """Seed of run ``index`` of a campaign at base seed ``base``.

    Run 0 of base seed 0 is seed 0, the FIFO baseline; every other run
    gets a well-separated nonzero xorshift stream.
    """
    if index == 0 and base == 0:
        return 0
    return (base * 1_000_003 + index) & ((1 << 63) - 1) or 1


@dataclass(frozen=True)
class SmokeConfig:
    """The small configuration explore and chaos run: 4 workers on
    2-core nodes and a serial/MPI job mix with 2-node MPI jobs, so any
    single injected worker loss leaves enough capacity to drain."""

    workers: int = 4
    cores_per_node: int = 2
    serial_tasks: int = 4
    mpi_tasks: int = 2
    mpi_nodes: int = 2
    seed: int = 0
    heartbeat: float = 0.5
    until: float = 900.0
    max_attempts: int = 6

    def machine(self):
        """One ``cores_per_node``-core node per worker."""
        return generic_cluster(
            nodes=self.workers, cores_per_node=self.cores_per_node
        )


def smoke_jobs(config: SmokeConfig, pin_ids: bool = False) -> list[JobSpec]:
    """The serial/MPI job mix of a smoke configuration.

    ``pin_ids`` names the jobs ``job0``, ``job1``, ... instead of
    drawing ids from the process-wide sequence, so the run is a pure
    function of its config and index.
    """
    jobs = []
    for i in range(config.serial_tasks + config.mpi_tasks):
        serial = i < config.serial_tasks
        jobs.append(JobSpec(
            program=(
                SleepProgram(0.3 + 0.2 * (i % 3)) if serial
                else BarrierSleepBarrier(0.8)
            ),
            nodes=1 if serial else config.mpi_nodes,
            ppn=1 if serial else config.cores_per_node,
            mpi=not serial,
            max_attempts=config.max_attempts,
            **({"job_id": f"job{i}"} if pin_ids else {}),
        ))
    return jobs


class Run:
    """One campaign run: a platform, its dispatcher and its pilots.

    Seed 0 runs FIFO, any other seed under
    :class:`~repro.simkernel.SeededOrder`, both on the one calendar
    engine, so a seed-0 run is the FIFO baseline of its campaign.
    ``judged`` attaches the streaming oracles before anything runs.
    """

    def __init__(self, machine, seed: int, judged: bool = True):
        env = Environment() if seed == 0 else Environment(order=SeededOrder(seed))
        self.env = env
        self.platform = Platform(machine, env=env, seed=seed)
        self.dispatcher: Optional[JetsDispatcher] = None
        self.agents: list[WorkerAgent] = []
        #: Sim-time at which :meth:`drain` stopped the batch.
        self.stopped_at = 0.0
        self.trace_check: Optional[TraceValidator] = None
        self.sessions: Optional[SessionValidator] = None
        if judged:
            self.trace_check = TraceValidator()
            self.platform.trace.subscribe(self.trace_check.feed)
            self.sessions = SessionValidator()
            self.platform.network.add_tap(self.sessions.tap)

    def start(
        self, service, journal=None, pin_ids: bool = False, **agent_args
    ) -> JetsDispatcher:
        """Start the dispatcher, then one pilot agent per node beating
        at the service's heartbeat.  ``pin_ids`` gives node i's agent
        worker id i instead of one from the process-wide sequence."""
        platform = self.platform
        self.dispatcher = JetsDispatcher(
            platform,
            service,
            expected_workers=len(platform.nodes),
            journal=journal,
        )
        self.dispatcher.start()
        for node in platform.nodes:
            agent = WorkerAgent(
                platform,
                node,
                self.dispatcher.endpoint,
                heartbeat_interval=service.heartbeat_interval,
                worker_id=node.node_id if pin_ids else None,
                **agent_args,
            )
            agent.start()
            self.agents.append(agent)
        return self.dispatcher

    def drain(
        self, until: float, faults=(), crash: Optional[Event] = None
    ) -> bool:
        """Run until the batch drains, ``until`` sim-seconds pass or
        ``crash`` fires; return whether it drained.

        Unless the crash came first, the ``faults`` (anything with a
        ``stop()``) stop, and a drained run shuts its workers down and
        lets that settle for ten heartbeats and a second, so every run
        exercises the shutdown path.
        """
        env, dispatcher = self.env, self.dispatcher
        stops = [dispatcher.drained, env.timeout(until)]
        if crash is not None:
            stops.append(crash)
        env.run(env.any_of(stops))
        self.stopped_at = env.now
        drained = dispatcher.drained.triggered
        if crash is not None and crash.triggered and not drained:
            return False
        for fault in faults:
            fault.stop()
        if drained:
            env.process(dispatcher.shutdown_workers(), name="campaign-shutdown")
            env.run(
                until=env.now + 10 * dispatcher.config.heartbeat_interval + 1.0
            )
        return drained

    def judge(self, drained: bool, until: float, *problems: str) -> list[str]:
        """The common verdict, then close the run: did it drain, the
        campaign's own ``problems``, then ``lint-trace`` issues and
        wire-protocol problems."""
        dispatcher = self.dispatcher
        verdict = []
        if not drained:
            verdict.append(
                f"run did not drain within {until} sim-seconds "
                f"({dispatcher.jobs_finished}/{dispatcher.jobs_submitted} jobs)"
            )
        verdict.extend(problems)
        if self.trace_check is not None:
            for issue in self.trace_check.issues:
                verdict.append(f"lint-trace: {issue.render()}")
            for problem in self.sessions.finish():
                verdict.append(f"protocol: {problem}")
        self.env.close()
        return verdict


@dataclass
class CampaignReport:
    """Every run of one campaign, in index order."""

    config: object
    results: list = field(default_factory=list)

    @property
    def failures(self) -> list:
        return [r for r in self.results if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.failures


def run_campaign(report, count: int, run_one, progress=None):
    """Append ``run_one(index)`` for each index below ``count`` to
    ``report``; ``progress`` sees each result as it lands."""
    for index in range(count):
        result = run_one(index)
        report.results.append(result)
        if progress is not None:
            progress(result)
    return report


#: The flags ``jets explore`` and ``jets chaos`` share besides ``-v``,
#: with their help; ``{unit}`` names one run.
SMOKE_FLAGS = {
    "--seed": "base seed; {unit} 0 of seed 0 is the FIFO baseline",
    "--workers": "worker (node) count of the smoke configuration",
    "--serial-tasks": "serial jobs in the workload mix",
    "--mpi-tasks": "MPI jobs in the workload mix",
    "--mpi-nodes": "nodes per MPI job (keep below --workers so kills drain)",
    "--until": "per-{unit} drain watchdog, in sim-seconds",
}

#: Flags that may be zero.  ``--seed`` may take any value, and every
#: other flag must be positive: the simulator rejects a zero-node
#: machine, job or watchdog, and a campaign of no runs would pass.
MAY_BE_ZERO = ("--serial-tasks", "--mpi-tasks", "--fault-window")


def parse_smoke_args(
    prog, description, defaults: SmokeConfig, unit, flags, argv
):
    """Parse an explore or chaos command line into ``(verbose, config)``.

    ``flags`` (flag -> help) and then :data:`SMOKE_FLAGS` each set the
    config field of their name, starting from ``defaults``.  A value out
    of range (see :data:`MAY_BE_ZERO`), or a mix of no jobs, is a usage
    error (exit 2).  Returns None, after saying why on stderr, for a
    config an injected kill could never drain.
    """
    parser = argparse.ArgumentParser(prog=prog, description=description)
    for flag, text in {**flags, **SMOKE_FLAGS}.items():
        default = getattr(defaults, flag[2:].replace("-", "_"))
        parser.add_argument(
            flag, type=type(default), default=default,
            help=text.format(unit=unit),
        )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help=f"print one line per {unit}",
    )
    args = vars(parser.parse_args(argv))
    verbose = args.pop("verbose")
    for flag in {**flags, **SMOKE_FLAGS}:
        if flag == "--seed":
            continue
        value = args[flag[2:].replace("-", "_")]
        if flag in MAY_BE_ZERO:
            if not value >= 0:
                parser.error(f"{flag} must not be negative")
        elif not value > 0:
            parser.error(f"{flag} must be positive")
    config = replace(defaults, **args)
    if config.serial_tasks + config.mpi_tasks < 1:
        parser.error("--serial-tasks and --mpi-tasks leave no job to run")
    if config.mpi_tasks and config.mpi_nodes >= config.workers:
        print(
            f"{prog}: --mpi-nodes must stay below --workers or an "
            "injected kill can never drain",
            file=sys.stderr,
        )
        return None
    return verbose, config


def print_result(result, line: str, verbose: bool) -> None:
    """Print ``line`` with the run's status and its first ten problems;
    a passing run only when ``verbose``."""
    if verbose or not result.ok:
        print(f"{line} {'ok' if result.ok else 'FAIL'}")
        for problem in result.problems[:10]:
            print(f"    {problem}")
