"""The JETS pilot worker agent.

One agent runs on each compute node inside the batch allocation (started by
the provided allocation scripts, Fig. 4 step ②).  It is persistent —
"capable of executing many tasks as a pilot job" — and:

* stages the configured file list to node-local storage at start-up,
* registers with the central dispatcher and announces one ``ready`` per
  execution slot,
* executes work it is handed: Hydra proxy launches for MPI jobs, or
  direct single-process tasks (the Falkon-style mode),
* heartbeats so the dispatcher can detect silent death,
* tolerates being killed at any point (fault-injection benchmarks) by
  closing its socket, which the dispatcher observes.
"""

from __future__ import annotations

import itertools
from typing import Generator, Optional

from ..analysis import protocol as wire
from ..cluster.node import Node
from ..cluster.platform import Platform
from ..mpi.app import RankContext
from ..mpi.comm import SimComm
from ..mpi.hydra import PROXY_IMAGE, ProxyCommand, run_proxy
from ..netsim.sockets import ConnectionClosed, Socket
from ..oslayer.process import ExecutableImage
from ..simkernel import Interrupt, Process
from .staging import StagingError, StagingManager
from .tasklist import JobSpec

__all__ = ["WorkerAgent", "WORKER_IMAGE"]

#: The worker script/binary (itself staged or read from shared FS once).
WORKER_IMAGE = ExecutableImage("jets-worker", 300 << 10)

_worker_seq = itertools.count()


class WorkerAgent:
    """A pilot job on one node.

    Args:
        platform: the machine.
        node: the node this agent occupies.
        dispatcher_endpoint: where the JETS service listens.
        service: dispatcher service name.
        slots: concurrent task slots to advertise (default: node cores for
            serial work; MPI jobs always claim the whole worker).
        staging: optional staging manager run before registration.
        heartbeat_interval: seconds between heartbeats (0 disables).
        ready_delay: pause between ``register`` and the first ``ready``
            (models slow slot bring-up; lets fault tests target the
            registered-but-not-ready window).
        worker_id: explicit id; by default ids draw from a process-wide
            sequence.  Reproducibility harnesses (schedule exploration,
            the sanitizer's digest comparison) pass explicit ids so a
            run's trace is a pure function of its configuration, not of
            how many agents this process created before.
    """

    def __init__(
        self,
        platform: Platform,
        node: Node,
        dispatcher_endpoint: int,
        service: str = "jets",
        slots: Optional[int] = None,
        staging: Optional[StagingManager] = None,
        heartbeat_interval: float = 5.0,
        ready_delay: float = 0.0,
        worker_id: Optional[int] = None,
    ):
        self.platform = platform
        self.env = platform.env
        self.node = node
        self.worker_id = (
            worker_id if worker_id is not None else next(_worker_seq)
        )
        self.dispatcher_endpoint = dispatcher_endpoint
        self.service = service
        self.slots = slots if slots is not None else node.n_cores
        self.staging = staging
        self.heartbeat_interval = heartbeat_interval
        self.ready_delay = ready_delay
        self.tasks_run = 0
        #: Called once with the agent when its main loop exits (shutdown,
        #: kill, protocol error), and dropped uncalled when the environment
        #: closes — the pilot keeper
        #: (:class:`repro.core.recovery.PilotKeeper`) hooks this to
        #: respawn or quarantine.
        self.on_exit = None
        self._sock: Optional[Socket] = None
        self._children: list[Process] = []
        #: job_id -> running child process, while a task/proxy executes.
        self._running: dict[str, Process] = {}
        #: job_ids in :attr:`_running` that are MPI proxies.
        self._running_mpi: set[str] = set()
        #: job_ids whose completion report was actually sent.
        self._reported: set[str] = set()
        self._main: Optional[Process] = None
        self._alive = False

    @property
    def alive(self) -> bool:
        """True while the agent's main loop is running."""
        return self._alive

    def start(self) -> Process:
        """Launch the agent (as a non-core-claiming daemon on its node)."""
        self._main = self.env.process(
            self.node.exec_process(
                WORKER_IMAGE, self._body, count_busy=False, claim_core=False
            ),
            name=f"worker{self.worker_id}",
        )
        return self._main

    def kill(self, cause: str = "fault injection") -> None:
        """Fault injection: terminate the pilot (and its task processes)."""
        if self._main is not None and self._main.is_alive:
            self._main.interrupt(cause)

    def running_proxies(self) -> list[tuple[str, Process]]:
        """Live MPI proxy children, as ``(job_id, process)`` pairs."""
        return [
            (job_id, proc)
            for job_id, proc in self._running.items()
            if job_id in self._running_mpi and proc.is_alive
        ]

    # -- agent internals ------------------------------------------------------

    def _body(self) -> Generator:
        self._alive = True
        logged_start = False
        try:
            if self.staging is not None:
                yield from self.staging.stage_to(self.node)
            self._sock = yield from self.platform.network.connect(
                self.node.endpoint, self.dispatcher_endpoint, self.service
            )
            # Log *before* the register/ready sends: those cross the
            # simulated network, so the dispatcher-side ``registered``
            # record could otherwise precede this agent-side ``start``.
            self.platform.trace.log(
                "worker.start", {"worker": self.worker_id, "node": self.node.node_id}
            )
            logged_start = True
            yield self._sock.send(
                (wire.REGISTER, self.worker_id, self.node.node_id, self.slots),
                wire.wire_size(wire.CHANNEL_JETS, wire.REGISTER),
            )
            if self.ready_delay > 0:
                yield self.env.timeout(self.ready_delay)
            for _ in range(self.slots):
                yield self._sock.send(
                    (wire.READY, self.worker_id),
                    wire.wire_size(wire.CHANNEL_JETS, wire.READY),
                )
            if self.heartbeat_interval > 0:
                hb = self.env.process(self._heartbeat(), name="hb")
            log = self.platform.trace.log
            while True:
                msg = yield self._sock.recv()
                kind = msg.payload[0]
                if kind == wire.SHUTDOWN:
                    # In-flight work dies with the pilot: a shutdown mid
                    # MPI wire-up must not leave proxies running against a
                    # torn-down mpiexec.
                    self._abandon_children("dispatcher shutdown")
                    break
                elif kind == wire.RUN_PROXY:
                    _, cmd, program = msg.payload
                    self._spawn(
                        self._run_mpi(cmd, program), cmd.job_id, mpi=True
                    )
                elif kind == wire.RUN_TASK:
                    _, job = msg.payload
                    self._spawn(self._run_serial(job), job.job_id)
                elif kind == wire.CANCEL:
                    _, job_id, mpi_flag = msg.payload
                    yield from self._cancel(job_id, bool(mpi_flag))
                else:
                    # A malformed dispatcher message must not surface as
                    # an unhandled raise that poisons the whole sim: die
                    # cleanly, exactly like a kill.
                    log(
                        "protocol.error",
                        {
                            "channel": wire.CHANNEL_JETS,
                            "kind": str(kind),
                            "worker": self.worker_id,
                            "detail": "unknown message kind from dispatcher",
                        },
                    )
                    log(
                        "worker.killed",
                        {
                            "worker": self.worker_id,
                            "cause": "protocol error: unknown message kind",
                        },
                    )
                    self._abandon_children("protocol error")
                    break
        except (Interrupt, ConnectionClosed, StagingError) as exc:
            if not logged_start:
                # Died before connecting (staging fault, partitioned
                # handshake): the lifecycle still needs its initial
                # ``start`` before ``killed``.
                self.platform.trace.log(
                    "worker.start",
                    {"worker": self.worker_id, "node": self.node.node_id},
                )
            self.platform.trace.log(
                "worker.killed",
                {"worker": self.worker_id, "cause": str(exc)},
            )
            self._abandon_children("worker killed")
        finally:
            self._alive = False
            if self._sock is not None:
                self._sock.close()
            # One-shot, and taken on every exit: the keeper's hook refers
            # back to this agent.
            on_exit, self.on_exit = self.on_exit, None
        # Not in the finally: Environment.close() also ends a pilot parked
        # at teardown, and that must neither record nor respawn it.
        self.platform.trace.log("worker.stop", {"worker": self.worker_id})
        if on_exit is not None:
            on_exit(self)

    def _abandon_children(self, cause: str) -> None:
        for child in self._children:
            if child.is_alive:
                # Per-child isolation: one already-finished child must not
                # keep the rest of the brood alive.
                try:  # repro: noqa[PF005]
                    child.interrupt(cause)
                except Exception:
                    pass

    def _spawn(self, gen: Generator, job_id: str, mpi: bool = False) -> None:
        proc = self.env.process(gen, name=f"w{self.worker_id}-task")
        self._children.append(proc)
        self._running[job_id] = proc
        if mpi:
            self._running_mpi.add(job_id)
        if len(self._children) > 2 * self.slots:
            self._children = [c for c in self._children if c.is_alive]

    def _cancel(self, job_id: str, mpi: bool) -> Generator:
        """Handle a dispatcher ``cancel`` for ``job_id``.

        Three cases: the job is running here (interrupt it — its own
        report path then restores the slot credit), its report was
        already sent (done/cancel crossed on the wire — nothing to do),
        or the dispatch never arrived (a dropped ``run_*``): acknowledge
        directly so the credit the dispatcher charged comes back.
        """
        proc = self._running.get(job_id)
        if proc is not None and proc.is_alive:
            proc.interrupt("cancelled by dispatcher")
        elif job_id not in self._reported:
            yield from self._report(job_id, 143, whole_node=mpi)

    def _heartbeat(self) -> Generator:
        sock = self._sock
        try:
            while self._alive and sock is not None and not sock.closed:
                yield self.env.timeout(self.heartbeat_interval)
                if sock.closed:
                    break
                yield sock.send(
                    (wire.HEARTBEAT, self.worker_id),
                    wire.wire_size(wire.CHANNEL_JETS, wire.HEARTBEAT),
                )
        except (ConnectionClosed, Interrupt):
            pass

    def _run_mpi(self, cmd: ProxyCommand, program) -> Generator:
        status = 143
        interrupted = False
        try:
            try:
                status = yield from self.node.exec_process(
                    PROXY_IMAGE,
                    lambda: run_proxy(self.platform, self.node, cmd, program),
                    count_busy=False,
                    claim_core=False,
                )
            except Interrupt:
                # Cancelled/aborted between proxy fork and exit; still
                # report so the dispatcher's slot credit comes back (the
                # report is a no-op when the pilot itself died — the
                # socket is already closed then).
                interrupted = True
                status = 143
            if not interrupted:
                self.tasks_run += 1
            yield from self._report(
                cmd.job_id, status, whole_node=True,
                extra_bytes=0 if interrupted else cmd.stage_out_bytes,
            )
        except Interrupt:
            pass  # interrupted again while reporting; nothing left to do
        finally:
            self._running.pop(cmd.job_id, None)
            self._running_mpi.discard(cmd.job_id)

    def _run_serial(self, job: JobSpec) -> Generator:
        status = 0

        def body() -> Generator:
            comm = SimComm(self.env, self.platform.fabric, [self.node.endpoint])
            ctx = RankContext(
                env=self.env,
                comm=comm,
                rank=0,
                size=1,
                node=self.node,
                job_id=job.job_id,
            )
            self.platform.trace.log(
                "job.app_running",
                {
                    "job": job.job_id,
                    "worker": self.worker_id,
                    "serial": True,
                },
            )
            # Through the node's straggler scaler so an injected slowdown
            # stretches this task's compute.
            value = yield from self.node.run_scaled(job.program.run(ctx))
            return value

        try:
            try:
                value = yield from self.node.exec_process(
                    job.program.image, body
                )
            except Interrupt:
                yield from self._report(job.job_id, 143)
                return
            self.tasks_run += 1
            yield from self._report(
                job.job_id, status, value=value,
                extra_bytes=job.stage_out_bytes,
            )
        except Interrupt:
            pass  # interrupted again while reporting; nothing left to do
        finally:
            self._running.pop(job.job_id, None)

    def _report(
        self,
        job_id: str,
        status: int,
        whole_node: bool = False,
        value=None,
        extra_bytes: int = 0,
    ) -> Generator:
        """Report task completion; MPI (whole-node) tasks release all slots
        in one ``ready_all`` message, serial tasks release their one slot.
        ``extra_bytes`` is the job's output-staging payload, shipped back
        over the task connection (Coasters-style data movement)."""
        if self._sock is None or self._sock.closed:
            return
        self._reported.add(job_id)
        try:
            yield self._sock.send(
                (wire.DONE, self.worker_id, job_id, status, value),
                wire.wire_size(
                    wire.CHANNEL_JETS, wire.DONE, extra=extra_bytes
                ),
            )
            yield self._sock.send(
                (wire.READY_ALL if whole_node else wire.READY, self.worker_id),
                wire.wire_size(
                    wire.CHANNEL_JETS,
                    wire.READY_ALL if whole_node else wire.READY,
                ),
            )
        except ConnectionClosed:
            pass
