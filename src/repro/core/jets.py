"""Stand-alone JETS: the ``jets`` tool facade (paper Section 5.1).

:class:`Simulation` wires a full run together the way the real tool's
start-up scripts do: obtain one large batch allocation, start a pilot
worker on every node (staging the proxy/user binaries to local storage),
start the central dispatcher, feed it the user's task list, wait for the
batch to drain, and report utilization per the paper's Eq. (1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from ..cluster.batch import BatchScheduler
from ..cluster.machine import MachineSpec
from ..cluster.platform import Platform
from ..mpi.hydra import PROXY_IMAGE
from ..oslayer.process import ExecutableImage
from ..simkernel import Environment
from .dispatcher import CompletedJob, JetsDispatcher, JetsServiceConfig
from .faults import FaultInjector
from .staging import StagingManager
from .tasklist import TaskList
from .worker import WorkerAgent
from ..metrics.utilization import UtilizationLedger

__all__ = [
    "JetsConfig",
    "FaultSpec",
    "StandaloneReport",
    "Simulation",
    "service_config_for",
]


def service_config_for(machine: MachineSpec, **overrides) -> JetsServiceConfig:
    """Machine-calibrated dispatcher/Hydra configuration.

    BG/P login nodes fork slowly and the Hydra process is comparatively
    expensive per message (DESIGN.md §5); commodity x86 submit hosts are an
    order of magnitude faster.  ``overrides`` replace individual
    :class:`JetsServiceConfig` fields.
    """
    from ..mpi.hydra import HydraConfig

    if "bgp" in machine.name:
        hydra = HydraConfig(mpiexec_spawn=0.10, msg_cost=8e-3)
    else:
        hydra = HydraConfig(mpiexec_spawn=0.008, msg_cost=0.2e-3)
    params = dict(hydra=hydra)
    params.update(overrides)
    return JetsServiceConfig(**params)


@dataclass(frozen=True)
class FaultSpec:
    """Fault-injection settings for a run (Section 6.1.5).

    ``mode`` picks the inter-arrival law (``fixed`` — the paper's regular
    cadence, ``exponential``, ``jittered``); ``jitter`` is the half-width
    of the jittered mode's uniform window.  The default ``fixed`` mode
    draws nothing extra from the rng, keeping legacy traces byte-stable.
    """

    interval: float = 10.0
    start_after: float = 0.0
    mode: str = "fixed"
    jitter: float = 0.0


@dataclass(frozen=True, slots=True)
class JetsConfig:
    """End-to-end configuration of a stand-alone JETS run.

    Attributes:
        service: dispatcher configuration (service time, policy, grouping).
        worker_slots: serial-task slots each pilot advertises; None means
            one per core, matching the paper's sequential-task tests.
        stage_binaries: stage the Hydra proxy and application images to
            node-local storage at pilot start-up (Section 5 feature 2;
            disable to measure the shared-FS penalty, ablation A1).
        extra_stage_files: additional images to stage.
        walltime: allocation walltime (generous by default; experiments
            measure utilization over the active span).
    """

    service: JetsServiceConfig = field(default_factory=JetsServiceConfig)
    worker_slots: Optional[int] = None
    stage_binaries: bool = True
    extra_stage_files: tuple[ExecutableImage, ...] = ()
    walltime: float = 48 * 3600.0


@dataclass
class StandaloneReport:
    """Everything a run produced, plus derived metrics."""

    machine: str
    allocation_nodes: int
    jobs_total: int
    jobs_completed: int
    jobs_failed: int
    utilization: float
    span: float
    task_rate: float
    mean_wireup: float
    completed: list[CompletedJob]
    platform: Platform
    workers: list[WorkerAgent]
    ledger: UtilizationLedger
    faults_injected: int = 0

    def summary(self) -> str:
        """One-paragraph human-readable result."""
        return (
            f"{self.machine}: {self.jobs_completed}/{self.jobs_total} jobs "
            f"on {self.allocation_nodes} nodes in {self.span:.1f}s — "
            f"utilization {self.utilization:.1%}, "
            f"{self.task_rate:.1f} jobs/s, "
            f"mean wire-up {self.mean_wireup * 1e3:.1f} ms"
        )


class Simulation:
    """A runnable stand-alone JETS deployment on a simulated machine."""

    def __init__(
        self,
        machine: MachineSpec,
        config: Optional[JetsConfig] = None,
        seed: int = 0,
    ):
        self.machine = machine
        self.config = config or JetsConfig(service=service_config_for(machine))
        self.seed = seed

    def run_standalone(
        self,
        tasks: TaskList,
        allocation_nodes: Optional[int] = None,
        faults: Optional[FaultSpec] = None,
        until: Optional[float] = None,
        journal=None,
    ) -> StandaloneReport:
        """Execute a task list inside one allocation; returns the report.

        Args:
            tasks: the batch (Section 5.1 input).
            allocation_nodes: allocation size (default: whole machine).
            faults: optional fault injection (Section 6.1.5).
            until: optional cap on simulated time, measured from when the
                allocation is up (for fault runs that never drain because
                all workers die).
            journal: optional write-ahead
                :class:`~repro.core.journal.RunJournal`; the run's durable
                state transitions are appended so ``jets resume`` can
                restart it after a crash (DESIGN.md §15).  ``None`` (the
                default) leaves every trace byte-identical to pre-journal
                runs.
        """
        nodes = allocation_nodes or self.machine.nodes
        platform = Platform(self.machine, seed=self.seed)
        if journal is not None:
            journal.bind(platform.env)
            journal.run_begin(
                machine=self.machine.name,
                nodes=nodes,
                seed=self.seed,
                jobs=len(tasks),
                policy=self.config.service.policy,
                grouping=self.config.service.grouping,
                slots=self.config.worker_slots,
                cores_per_node=self.machine.cores_per_node,
                stage=self.config.stage_binaries,
            )
        batch = BatchScheduler(platform)
        dispatcher = JetsDispatcher(
            platform, self.config.service, expected_workers=nodes,
            journal=journal,
        )
        workers: list[WorkerAgent] = []
        injector_box: list[FaultInjector] = []
        stop = platform.env.event()

        def main() -> Generator:
            alloc = yield from batch.submit(nodes, self.config.walltime)
            platform.trace.log(
                "run.allocation",
                {
                    "machine": self.machine.name,
                    "nodes": nodes,
                    "cores_per_node": self.machine.cores_per_node,
                    "slots": self._effective_slots(),
                    "walltime": self.config.walltime,
                },
            )
            if until is not None:
                deadline = platform.env.timeout(until)
                deadline._add_callback(
                    lambda _e: stop.succeed() if not stop.triggered else None
                )
            dispatcher.start()
            staging = self._build_staging(platform.env, tasks)
            for node in alloc.nodes:
                agent = WorkerAgent(
                    platform,
                    node,
                    dispatcher_endpoint=dispatcher.endpoint,
                    service=dispatcher.service,
                    slots=self.config.worker_slots,
                    staging=staging,
                    heartbeat_interval=self.config.service.heartbeat_interval,
                )
                workers.append(agent)
                agent.start()
            if faults is not None:
                injector = FaultInjector(
                    platform,
                    workers,
                    interval=faults.interval,
                    start_after=faults.start_after,
                    mode=faults.mode,
                    jitter=faults.jitter,
                )
                injector.start()
                injector_box.append(injector)
            dispatcher.submit_many(tasks)
            yield dispatcher.drained
            yield from dispatcher.shutdown_workers()
            batch.release(alloc)

        proc = platform.env.process(main(), name="jets-main")
        if until is not None:
            platform.env.run(platform.env.any_of([proc, stop]))
        else:
            platform.env.run(proc)
        dispatcher.end_journal()
        report = self._report(
            platform, dispatcher, workers, nodes, injector_box
        )
        platform.env.close()
        return report

    # -- internals ---------------------------------------------------------------

    def _effective_slots(self) -> int:
        """Serial-task slots each pilot actually advertises (see
        :class:`~repro.core.worker.WorkerAgent`: ``None`` means node cores)."""
        return self.config.worker_slots or self.machine.cores_per_node

    def _build_staging(
        self, env: Environment, tasks: TaskList
    ) -> Optional[StagingManager]:
        if not self.config.stage_binaries:
            return None
        images: dict[str, ExecutableImage] = {PROXY_IMAGE.name: PROXY_IMAGE}
        for job in tasks:
            img = job.program.image
            images.setdefault(img.name, img)
        for img in self.config.extra_stage_files:
            images.setdefault(img.name, img)
        return StagingManager(env, images.values())

    def _report(
        self,
        platform: Platform,
        dispatcher: JetsDispatcher,
        workers: list[WorkerAgent],
        nodes: int,
        injectors: list[FaultInjector],
    ) -> StandaloneReport:
        ledger = UtilizationLedger(nodes)
        wireups: list[float] = []
        completed = [c for c in dispatcher.completed if c.ok]
        failed = [c for c in dispatcher.completed if not c.ok]
        slots = self._effective_slots()
        for c in completed:
            # Eq. (1) uses the *nominal* task duration.  Programs whose
            # nominal time depends on the process count (NAMD) expose
            # wall_time(procs); fixed-duration programs use the hint.
            prog = c.job.program
            if hasattr(prog, "wall_time"):
                duration = prog.wall_time(c.job.world_size)
            else:
                duration = c.job.duration_hint
            # MPI jobs claim whole nodes; a serial job claims one of the
            # worker's ``slots`` slots, so it is charged that node share —
            # otherwise cores_per_node concurrent serial tasks per node
            # would push Eq. (1) past 1.
            n = float(c.job.nodes) if c.job.mpi else 1.0 / slots
            ledger.add(
                duration=duration,
                n=n,
                t_start=c.t_dispatched,
                t_end=c.t_done,
            )
            if c.result is not None:
                wireups.append(c.result.wireup_time)
        span = ledger.span
        return StandaloneReport(
            machine=self.machine.name,
            allocation_nodes=nodes,
            jobs_total=dispatcher.jobs_submitted,
            jobs_completed=len(completed),
            jobs_failed=len(failed),
            utilization=ledger.utilization(),
            span=span,
            task_rate=(len(completed) / span) if span > 0 else 0.0,
            mean_wireup=(sum(wireups) / len(wireups)) if wireups else 0.0,
            completed=dispatcher.completed,
            platform=platform,
            workers=workers,
            ledger=ledger,
            faults_injected=len(injectors[0].kills) if injectors else 0,
        )
