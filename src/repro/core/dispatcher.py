"""The central JETS dispatcher.

The heart of the system (Fig. 4): a single service, typically on the login
node, that accepts pilot-worker registrations, queues user jobs, assembles
ready workers into MPI-capable groups, drives one background ``mpiexec``
per MPI job, ships proxy commands to the chosen workers, checks results,
and recovers from worker failures by resubmitting jobs.

Architecture follows the paper's four principles (Section 3): simple
concurrent data structures (kernel stores/resources), separated pipeline
stages (socket handling / scheduling / mpiexec management as independent
processes), composable components (the same dispatcher serves stand-alone
JETS and the Coasters integration), and disconnection tolerance.

The dispatcher's event loop is single-threaded: every inbound message and
every outbound dispatch decision passes through a capacity-1 resource
charging ``service_time``.  This is the central bottleneck that saturates
at roughly ``1/service_time`` operations per second — producing the Fig. 6
plateau and the Fig. 9 small-task degradation past 512 nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Generator, Optional

from ..analysis import protocol as wire
from ..cluster.platform import Platform
from ..mpi.hydra import HydraConfig, JobResult, MpiexecController
from ..netsim.sockets import ConnectionClosed, Socket
from ..simkernel import Environment, Event, Resource
from .aggregator import Aggregator, WorkerView
from .policies import make_policy
from .recovery import RecoveryPolicy
from .tasklist import JobSpec

__all__ = ["JetsServiceConfig", "JetsDispatcher", "CompletedJob"]


@dataclass(frozen=True)
class JetsServiceConfig:
    """Dispatcher behaviour/cost knobs.

    Attributes:
        service_time: CPU cost of one dispatcher event-loop operation.
            A completed task costs about three operations (done + ready +
            dispatch), so 25 µs/op saturates near the ~7,000+ launches/s
            the paper measures on the BG/P login node (Fig. 6) once
            transient request storms are accounted for.
        policy: job queue policy: ``fifo`` (paper default), ``priority``,
            ``backfill``.
        grouping: worker grouping: ``fifo`` (paper default) or ``topology``.
        heartbeat_interval: expected worker heartbeat period (s).
        heartbeat_misses: missed beats before declaring a worker dead.
        submit_cpu_slots: concurrent mpiexec spawn capacity on the submit
            host ("hundreds of mpiexec processes do not place a noticeable
            load on the submit site" — so this is comfortably large).
        hydra: cost model for the mpiexec/proxy machinery.
        ctrl_msg_bytes: size of dispatcher control messages.
        recovery: end-to-end recovery policy (backoff, hung-job
            deadlines, gang cancel, credit reconciliation); the default
            is off-or-equivalent, reproducing seed behavior exactly.
    """

    service_time: float = 25e-6
    policy: str = "fifo"
    grouping: str = "fifo"
    heartbeat_interval: float = 5.0
    heartbeat_misses: int = 3
    submit_cpu_slots: int = 2
    hydra: HydraConfig = field(default_factory=HydraConfig)
    ctrl_msg_bytes: int = 512
    recovery: RecoveryPolicy = field(default_factory=RecoveryPolicy)


@dataclass
class CompletedJob:
    """Ledger entry for one finished (or permanently failed) job."""

    job: JobSpec
    ok: bool
    result: Optional[JobResult]
    t_submitted: float
    t_dispatched: float
    t_done: float
    error: str = ""


class JetsDispatcher:
    """The JETS service: queue + aggregation + mpiexec management."""

    def __init__(
        self,
        platform: Platform,
        config: Optional[JetsServiceConfig] = None,
        endpoint: Optional[int] = None,
        service: str = "jets",
        expected_workers: Optional[int] = None,
        journal=None,
    ):
        self.platform = platform
        self.env: Environment = platform.env
        self.config = config or JetsServiceConfig()
        self.endpoint = platform.login_endpoint if endpoint is None else endpoint
        self.service = service
        self.expected_workers = expected_workers
        #: Optional write-ahead :class:`~repro.core.journal.RunJournal`;
        #: ``None`` keeps every hook a no-op (golden traces unchanged).
        self.journal = journal

        self.policy = make_policy(self.config.policy)
        topo = platform.topology if self.config.grouping == "topology" else None
        self.aggregator = Aggregator(
            self.config.grouping, topo, trace=platform.trace
        )

        self._svc = Resource(self.env, 1)
        self._submit_cpu = Resource(self.env, self.config.submit_cpu_slots)
        self._wake: Event = self.env.event()
        self._controllers: dict[str, MpiexecController] = {}
        self._serial_running: dict[str, JobSpec] = {}
        #: Serial job -> the worker view its live attempt was sent to
        #: (stale completions from superseded attempts are ignored).
        self._serial_owner: dict[str, WorkerView] = {}
        #: MPI job -> worker ids whose completion report is outstanding.
        self._mpi_pending: dict[str, set[int]] = {}
        #: ``(worker_id, job_id)`` pairs with a ``cancel`` in flight; the
        #: first ``done`` from that worker for that job is the cancel ack
        #: (FIFO sockets guarantee it precedes any later real report) and
        #: must not be mistaken for a completion of a newer attempt.
        self._cancel_pending: set[tuple[int, str]] = set()
        #: Jobs already pushed to :attr:`completed` (idempotence guard —
        #: recovery can race a late completion against a deadline abort).
        self._finished_ids: set[str] = set()
        #: Set once shutdown begins: no more dispatches or requeues.
        self.shutting_down = False
        self._submit_times: dict[str, float] = {}
        self._dispatch_times: dict[str, float] = {}
        self._queued_times: dict[str, float] = {}

        metrics = platform.metrics
        self._ops = metrics.counter("dispatcher.ops")
        self._occupancy = metrics.gauge("dispatcher.occupancy")
        self._queue_wait = metrics.histogram("dispatcher.queue_wait")
        self._wireup = metrics.histogram("job.wireup")
        self._resubmits = metrics.counter("dispatcher.resubmits")

        self.completed: list[CompletedJob] = []
        self.jobs_submitted = 0
        self.jobs_finished = 0  # completed + permanently failed
        self.drained: Event = self.env.event()
        self._job_events: dict[str, Event] = {}
        self._submitting = False
        self._started = False

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Bind the service and start the accept/scheduler processes."""
        if self._started:
            raise RuntimeError("dispatcher already started")
        self._started = True
        self._listener = self.platform.network.listen(self.endpoint, self.service)
        self.env.process(self._accept_loop(), name="jets-accept")
        self.env.process(self._scheduler_loop(), name="jets-sched")
        if self.config.heartbeat_interval > 0:
            self.env.process(self._health_monitor(), name="jets-health")

    def submit(self, job: JobSpec) -> Event:
        """Enqueue one job; returns an event firing with its CompletedJob."""
        self.jobs_submitted += 1
        self._submit_times[job.job_id] = self.env.now
        self.platform.trace.log(
            "job.submitted",
            {
                "job": job.job_id,
                "mpi": job.mpi,
                "nodes": job.nodes,
                "ppn": job.ppn,
            },
        )
        if self.journal is not None:
            self.journal.job_submitted(job)
        done = self._job_events.setdefault(job.job_id, self.env.event())
        if self.expected_workers is not None and job.mpi and (
            job.nodes > self.expected_workers
        ):
            self._finish(
                job, ok=False, result=None,
                error=f"job needs {job.nodes} nodes; allocation has "
                      f"{self.expected_workers}",
            )
            return done
        self._enqueue(job)
        return done

    def submit_many(self, jobs) -> None:
        """Enqueue a batch (e.g. a whole :class:`TaskList`).

        ``drained`` is held back until the whole batch is in, so a job
        that fails synchronously (e.g. oversized) cannot fire it early.
        """
        self._submitting = True
        try:
            for job in jobs:
                self.submit(job)
        finally:
            self._submitting = False
        if self.journal is not None:
            # A job the journal never heard of cannot be resubmitted on
            # resume, so the submission batch must be durable before the
            # run can crash out from under it.
            self.journal.flush()
        self._check_drained()

    def shutdown_workers(self) -> Generator:
        """Shut the service down: abort in-flight work, stop all pilots.

        Normally run after :attr:`drained`; also safe mid-run — any MPI
        group still wiring up is torn down through the controller (so its
        Hydra session ends in a legal aborted state), queued jobs drain
        to permanent failures, and every live pilot gets ``shutdown``.
        """
        self.shutting_down = True
        for controller in list(self._controllers.values()):
            controller.abort("dispatcher shutdown")
        while True:
            job = self.policy.select(lambda _j: True)
            if job is None:
                break
            self._finish(job, ok=False, result=None, error="dispatcher shutdown")
        for view in self.aggregator.workers():
            if not view.socket.closed:
                try:
                    yield view.socket.send(
                        (wire.SHUTDOWN,),
                        wire.wire_size(
                            wire.CHANNEL_JETS,
                            wire.SHUTDOWN,
                            ctrl=self.config.ctrl_msg_bytes,
                        ),
                    )
                except ConnectionClosed:
                    pass

    def _enqueue(self, job: JobSpec) -> None:
        """Queue a job attempt (initial submission or resubmission)."""
        self._queued_times[job.job_id] = self.env.now
        self.platform.trace.log(
            "job.queued", {"job": job.job_id, "attempt": job.attempts}
        )
        self.policy.push(job)
        self._wakeup()

    # -- service-time accounting -------------------------------------------------

    def _service(self) -> Generator:
        """Charge one event-loop operation on the dispatcher thread."""
        req = self._svc.request()
        yield req
        self._ops.incr()
        self._occupancy.set(1)
        # No finally: nothing interrupts a dispatcher process, and when
        # Environment.close() ends one here the occupancy gauge must keep
        # the level the run left it at.
        yield self.env.timeout(self.config.service_time)
        self._occupancy.set(0)
        self._svc.release(req)

    # -- socket handling -----------------------------------------------------------

    def _accept_loop(self) -> Generator:
        while True:
            sock = yield self._listener.accept()
            self.env.process(self._handle_worker(sock), name="jets-conn")

    def _handle_worker(self, sock: Socket) -> Generator:
        view: Optional[WorkerView] = None
        try:
            msg = yield sock.recv()
            yield from self._service()
            kind = msg.payload[0]
            if kind != wire.REGISTER:
                self.platform.trace.log(
                    "protocol.error",
                    {
                        "channel": wire.CHANNEL_JETS,
                        "kind": str(kind),
                        "detail": "first message must be register",
                    },
                )
                sock.close()
                return
            _, worker_id, node_id, slots = msg.payload
            view = WorkerView(
                worker_id=worker_id,
                node=self.platform.node(node_id),
                socket=sock,
                slots=slots,
                last_seen=self.env.now,
            )
            view.last_credit = self.env.now
            self.aggregator.add_worker(view)
            self.platform.trace.log(
                "dispatcher.register", {"worker": worker_id, "node": node_id}
            )
            self.platform.trace.log(
                "worker.registered", {"worker": worker_id, "node": node_id}
            )
            if self.journal is not None:
                self.journal.worker_registered(worker_id, node_id)
            env = self.env
            log = self.platform.trace.log
            while True:
                msg = yield sock.recv()
                yield from self._service()
                payload = msg.payload
                kind = payload[0]
                view.last_seen = env.now
                if kind in (wire.READY, wire.READY_ALL):
                    view.last_credit = env.now
                    self.aggregator.mark_ready(
                        view.worker_id,
                        env.now,
                        all_slots=(kind == wire.READY_ALL),
                    )
                    log(
                        "worker.ready", {"worker": view.worker_id}
                    )
                    self._wakeup()
                elif kind == wire.HEARTBEAT:
                    pass
                elif kind == wire.DONE:
                    _, worker_id, job_id, status, value = payload
                    view.last_credit = env.now
                    self._on_worker_done(view, job_id, status, value)
                else:
                    # A protocol violation must not kill the event loop
                    # (every other worker would go down with it): record
                    # it, tear down just this worker, keep serving.
                    log(
                        "protocol.error",
                        {
                            "channel": wire.CHANNEL_JETS,
                            "kind": str(kind),
                            "worker": view.worker_id,
                            "detail": "unknown message kind from worker",
                        },
                    )
                    self._worker_lost(
                        view, f"protocol error: unknown message {kind!r}"
                    )
                    sock.close()
                    return
        except ConnectionClosed:
            if view is not None:
                self._worker_lost(view, "connection closed")

    # -- failure detection -----------------------------------------------------------

    def _health_monitor(self) -> Generator:
        interval = self.config.heartbeat_interval
        deadline = interval * self.config.heartbeat_misses
        rec = self.config.recovery
        log = self.platform.trace.log
        while True:
            yield self.env.timeout(interval)
            now = self.env.now
            for view in self.aggregator.workers():
                if view.alive and now - view.last_seen > deadline:
                    log(
                        "worker.heartbeat_missed",
                        {
                            "worker": view.worker_id,
                            "last_seen": view.last_seen,
                        },
                    )
                    self._worker_lost(view, "heartbeat timeout")
                    if not view.socket.closed:
                        view.socket.close()
                elif (
                    rec.credit_reconcile > 0
                    and view.alive
                    and not view.running_jobs
                    and view.free_slots < view.slots
                    and now - view.last_credit > rec.credit_reconcile
                ):
                    # Slots are charged but no job is bound and no credit
                    # has come back for a while: a ``ready`` was lost in
                    # transit.  Recycle the worker — its pilot reconnects
                    # (or the keeper respawns it) with a clean slate.
                    log(
                        "recover.reconcile", {"worker": view.worker_id}
                    )
                    self._worker_lost(
                        view, "ready-credit reconciliation timeout"
                    )
                    if not view.socket.closed:
                        view.socket.close()

    def _worker_lost(self, view: WorkerView, reason: str) -> None:
        if self.aggregator.get(view.worker_id) is None:
            return  # already removed
        self.aggregator.remove_worker(view.worker_id)
        self.platform.trace.log(
            "worker.lost", {"worker": view.worker_id, "reason": reason}
        )
        if self.journal is not None:
            self.journal.worker_lost(view.worker_id, reason)
        # Abort any MPI jobs this worker was part of (the mpiexec failure
        # path returns ok=False and the job is resubmitted); requeue serial
        # jobs that died with the worker.  Sorted: set order hangs on the
        # process hash seed, and the abort/requeue order is trace-visible.
        for job_id in sorted(view.running_jobs):
            controller = self._controllers.get(job_id)
            if controller is not None:
                controller.abort(f"worker {view.worker_id} lost: {reason}")
            serial = self._serial_running.pop(job_id, None)
            if serial is not None:
                self._serial_owner.pop(job_id, None)
                self._requeue(
                    serial,
                    f"worker {view.worker_id} lost: {reason}",
                    reason="heartbeat" if reason == "heartbeat timeout" else None,
                )

    def _on_worker_done(
        self, view: WorkerView, job_id: str, status: int, value=None
    ) -> None:
        # Serial-job completion is recorded here (MPI completion arrives via
        # the mpiexec controller); both paths release the worker binding.
        self.aggregator.release(job_id, view.worker_id)
        pending = self._mpi_pending.get(job_id)
        if pending is not None:
            pending.discard(view.worker_id)
        if (view.worker_id, job_id) in self._cancel_pending:
            # The cancel ack: the slot credit (the worker's follow-up
            # ``ready``) is all it carries.
            self._cancel_pending.discard((view.worker_id, job_id))
            return
        owner = self._serial_owner.get(job_id)
        if owner is not None and owner is not view:
            # Stale report from a superseded attempt (e.g. the original
            # worker answered a cancel after the job was re-dispatched):
            # the slot credit above is all it gets.
            return
        entry = self._serial_running.pop(job_id, None)
        if entry is not None:
            self._serial_owner.pop(job_id, None)
            job = entry
            ok = status == 0
            t0 = self._dispatch_times.get(job.job_id, self.env.now)
            result = JobResult(
                job_id=job.job_id,
                ok=ok,
                error="" if ok else f"task exited with status {status}",
                world_size=1,
                t_launch=t0,
                t_app_start=t0,
                t_app_end=self.env.now,
                t_done=self.env.now,
                rank0_value=value,
            )
            self._finish(
                job, ok=ok, result=result,
                error="" if ok else f"task exited with status {status}",
            )

    # -- scheduling ------------------------------------------------------------------

    def _wakeup(self) -> None:
        if not self._wake.triggered:
            self._wake.succeed()

    def _scheduler_loop(self) -> Generator:
        env = self.env
        can_place = self.aggregator.can_place
        while True:
            if not self._wake.triggered:
                yield self._wake
            self._wake = env.event()
            while True:
                job = self.policy.select(can_place)
                if job is None:
                    break
                yield from self._service()
                if not can_place(job):
                    # A worker was lost during the service time: put the
                    # job back and wait for the next wake-up.
                    if self.shutting_down:
                        self._finish(
                            job, ok=False, result=None,
                            error="dispatcher shutdown",
                        )
                    else:
                        self.policy.push_front(job)
                    break
                views = self.aggregator.place(job)
                self._dispatch_times.setdefault(job.job_id, env.now)
                queued_at = self._queued_times.pop(job.job_id, None)
                if queued_at is not None:
                    self._queue_wait.observe(env.now - queued_at)
                self.platform.trace.log(
                    "job.grouped",
                    {
                        "job": job.job_id,
                        "attempt": job.attempts,
                        "workers": [v.worker_id for v in views],
                    },
                )
                if self.journal is not None:
                    self.journal.job_launched(job.job_id, job.attempts)
                if job.mpi:
                    env.process(
                        self._run_mpi_job(job, views), name=f"jets-{job.job_id}"
                    )
                else:
                    env.process(
                        self._run_serial_job(job, views[0]),
                        name=f"jets-{job.job_id}",
                    )

    def _run_serial_job(self, job: JobSpec, view: WorkerView) -> Generator:
        self._serial_running[job.job_id] = job
        self._serial_owner[job.job_id] = view
        self.platform.trace.log(
            "job.dispatch",
            {"job": job.job_id, "nodes": 1, "worker": view.worker_id},
        )
        rec = self.config.recovery
        if rec.hung_job_timeout > 0:
            self.env.process(
                self._serial_watchdog(job, view, job.attempts),
                name=f"jets-wd-{job.job_id}",
            )
        try:
            # Input staging rides the task connection (Coasters-style data
            # movement): the message carries the job's stage-in payload.
            yield view.socket.send(
                (wire.RUN_TASK, job),
                wire.wire_size(
                    wire.CHANNEL_JETS,
                    wire.RUN_TASK,
                    ctrl=self.config.ctrl_msg_bytes,
                    extra=job.stage_in_bytes,
                ),
            )
        except ConnectionClosed:
            self._serial_running.pop(job.job_id, None)
            self._serial_owner.pop(job.job_id, None)
            self._requeue(job, "worker connection lost at dispatch")

    def _serial_watchdog(
        self, job: JobSpec, view: WorkerView, attempt: int
    ) -> Generator:
        """Hung-job deadline for one serial dispatch attempt.

        Fires only if *this* attempt is still the live one when the
        deadline passes: the slot credit is reclaimed, the (possibly
        still running, possibly never-delivered) task is cancelled at
        the worker, and the job is resubmitted.
        """
        rec = self.config.recovery
        deadline = rec.hung_job_timeout + max(0.0, job.duration_hint or 0.0)
        yield self.env.timeout(deadline)
        if self.shutting_down:
            return
        if self._serial_running.get(job.job_id) is not job:
            return
        if job.attempts != attempt or self._serial_owner.get(job.job_id) is not view:
            return
        self.platform.trace.log(
            "recover.hung",
            {"job": job.job_id, "attempt": attempt, "phase": "serial"},
        )
        self._serial_running.pop(job.job_id, None)
        self._serial_owner.pop(job.job_id, None)
        self.aggregator.release(job.job_id, view.worker_id)
        if self.aggregator.get(view.worker_id) is view and not view.socket.closed:
            try:
                yield from self._service()
                yield view.socket.send(
                    (wire.CANCEL, job.job_id, False),
                    wire.wire_size(
                        wire.CHANNEL_JETS,
                        wire.CANCEL,
                        ctrl=self.config.ctrl_msg_bytes,
                    ),
                )
                self._cancel_pending.add((view.worker_id, job.job_id))
            except ConnectionClosed:
                pass
        self._requeue(
            job,
            f"serial task hung on worker {view.worker_id}",
            reason="deadline",
        )

    def _run_mpi_job(self, job: JobSpec, views: list[WorkerView]) -> Generator:
        cfg = self.config
        hosts = []
        rank = 0
        for view in views:
            ranks = tuple(range(rank, rank + job.ppn))
            rank += job.ppn
            hosts.append((view.node, ranks))
        attempt_id = f"{job.job_id}a{job.attempts}"
        out_share = job.stage_out_bytes // max(1, len(views))
        controller = MpiexecController(
            self.platform,
            job_id=job.job_id,
            hosts=hosts,
            program=job.program,
            config=cfg.hydra,
            submit_cpu=self._submit_cpu,
            endpoint=self.endpoint,
        )
        self._controllers[job.job_id] = controller
        self._mpi_pending[job.job_id] = {v.worker_id for v in views}
        self.platform.trace.log(
            "job.dispatch",
            {
                "job": job.job_id,
                "attempt": attempt_id,
                "nodes": job.nodes,
                "workers": [v.worker_id for v in views],
                "node_ids": [v.node.node_id for v in views],
            },
        )
        if cfg.recovery.hung_job_timeout > 0:
            self.env.process(
                self._mpi_watchdog(job, controller, job.attempts),
                name=f"jets-wd-{job.job_id}",
            )
        try:
            cmds = yield from controller.launch()
            self.platform.trace.log(
                "job.mpiexec_spawned",
                {"job": job.job_id, "attempt": job.attempts},
            )
            # Input staging is split across the group's task connections
            # (each worker receives its share of the job's input data).
            stage_share = job.stage_in_bytes // max(1, len(views))
            for view, cmd in zip(views, cmds):
                yield from self._service()
                try:
                    cmd = replace(cmd, stage_out_bytes=out_share)
                    yield view.socket.send(
                        (wire.RUN_PROXY, cmd, job.program),
                        wire.wire_size(
                            wire.CHANNEL_JETS,
                            wire.RUN_PROXY,
                            ctrl=cfg.ctrl_msg_bytes,
                            extra=stage_share,
                        ),
                    )
                    self.platform.trace.log(
                        "proxy.launched",
                        {
                            "job": job.job_id,
                            "proxy": cmd.proxy_id,
                            "worker": view.worker_id,
                            "node": view.node.node_id,
                        },
                    )
                except ConnectionClosed:
                    controller.abort(
                        f"worker {view.worker_id} unreachable at dispatch"
                    )
            result: JobResult = yield controller.done
        finally:
            self._controllers.pop(job.job_id, None)
        pending = self._mpi_pending.pop(job.job_id, set())
        for view in views:
            self.aggregator.release(job.job_id, view.worker_id)
        if result.ok:
            self._wireup.observe(result.wireup_time)
            self._finish(job, ok=True, result=result)
        else:
            if cfg.recovery.gang_cancel and pending:
                yield from self._gang_cancel(job, views, pending)
            if not controller.app_started:
                reason = "wireup_abort"
            elif "hung-job deadline" in result.error:
                reason = "deadline"
            else:
                reason = None
            self._requeue(job, result.error, result, reason=reason)

    def _gang_cancel(
        self, job: JobSpec, views: list[WorkerView], pending: set[int]
    ) -> Generator:
        """Tear down the surviving members of a failed MPI group.

        Workers whose proxy report is still outstanding get ``cancel``;
        their ack (done + ready_all) returns the whole-node slot credit,
        so a half-wired group is reclaimed instead of waiting out its
        own secondary failures.
        """
        cancelled: list[int] = []
        for view in views:
            if view.worker_id not in pending:
                continue
            if self.aggregator.get(view.worker_id) is not view:
                continue  # already written off; nothing to reclaim
            if view.socket.closed:
                continue
            try:
                yield from self._service()
                yield view.socket.send(
                    (wire.CANCEL, job.job_id, True),
                    wire.wire_size(
                        wire.CHANNEL_JETS,
                        wire.CANCEL,
                        ctrl=self.config.ctrl_msg_bytes,
                    ),
                )
                self._cancel_pending.add((view.worker_id, job.job_id))
                cancelled.append(view.worker_id)
            except ConnectionClosed:
                pass
        if cancelled:
            self.platform.trace.log(
                "recover.gang_teardown",
                {
                    "job": job.job_id,
                    "attempt": job.attempts,
                    "workers": cancelled,
                },
            )

    def _mpi_watchdog(
        self, job: JobSpec, controller: MpiexecController, attempt: int
    ) -> Generator:
        """Hung-job deadline for one MPI dispatch attempt.

        Complements the controller's own ``launch_timeout`` (which only
        covers PMI wire-up): this one also covers the application phase,
        so a lost ``commit``/result message cannot strand the group.
        """
        rec = self.config.recovery
        deadline = rec.hung_job_timeout + max(0.0, job.duration_hint or 0.0)
        yield self.env.timeout(deadline)
        if self.shutting_down:
            return
        if self._controllers.get(job.job_id) is not controller:
            return
        if job.attempts != attempt:
            return
        phase = "app" if controller.app_started else "wireup"
        self.platform.trace.log(
            "recover.hung",
            {"job": job.job_id, "attempt": attempt, "phase": phase},
        )
        controller.abort(f"hung-job deadline exceeded in {phase} phase")

    def _requeue(
        self,
        job: JobSpec,
        error: str,
        result: Optional[JobResult] = None,
        reason: Optional[str] = None,
    ) -> None:
        """Charge one attempt and resubmit (or permanently fail) ``job``.

        ``reason`` labels the retry cause for the report's resubmit
        breakdown (``heartbeat``, ``deadline``, ``wireup_abort``, ...);
        it is omitted from the payload when the caller has no better
        label than the error text.
        """
        job.attempts += 1
        payload = {"job": job.job_id, "attempt": job.attempts, "error": error}
        if reason is not None:
            payload["reason"] = reason
        self.platform.trace.log("job.retry", payload)
        if self.journal is not None:
            self.journal.job_retry(job.job_id, job.attempts, error, reason)
        self._resubmits.incr()
        if self.shutting_down or job.attempts >= job.max_attempts:
            self._finish(job, ok=False, result=result, error=error)
            return
        delay = self.config.recovery.backoff_for(job.attempts)
        if delay > 0:
            self.platform.trace.log(
                "recover.backoff",
                {"job": job.job_id, "attempt": job.attempts, "delay": delay},
            )
            self.env.process(
                self._delayed_enqueue(job, delay),
                name=f"jets-backoff-{job.job_id}",
            )
        else:
            self._enqueue(job)

    def _delayed_enqueue(self, job: JobSpec, delay: float) -> Generator:
        yield self.env.timeout(delay)
        if self.shutting_down:
            self._finish(
                job, ok=False, result=None,
                error="dispatcher shutdown during backoff",
            )
            return
        self._enqueue(job)

    def _finish(
        self,
        job: JobSpec,
        ok: bool,
        result: Optional[JobResult],
        error: str = "",
    ) -> None:
        if job.job_id in self._finished_ids:
            return  # a recovery path already settled this job
        self._finished_ids.add(job.job_id)
        self.jobs_finished += 1
        now = self.env.now
        self._queued_times.pop(job.job_id, None)
        self.completed.append(
            CompletedJob(
                job=job,
                ok=ok,
                result=result,
                t_submitted=self._submit_times.get(job.job_id, 0.0),
                t_dispatched=self._dispatch_times.get(job.job_id, now),
                t_done=now,
                error=error,
            )
        )
        # Nominal duration per Eq. (1): programs whose wall time depends
        # on the process count (NAMD) expose wall_time(procs).
        prog = job.program
        if hasattr(prog, "wall_time"):
            nominal = prog.wall_time(job.world_size)
        else:
            nominal = job.duration_hint
        self.platform.trace.log(
            "job.done" if ok else "job.failed",
            {
                "job": job.job_id,
                "attempt": job.attempts,
                "nodes": job.nodes,
                "ppn": job.ppn,
                "duration_hint": job.duration_hint,
                "nominal": nominal,
                "error": error,
                "app_start": result.t_app_start if result else None,
                "app_end": result.t_app_end if result else None,
            },
        )
        if self.journal is not None:
            if ok:
                self.journal.job_done(job.job_id, job.attempts)
            else:
                self.journal.job_failed(job.job_id, job.attempts, error)
        done = self._job_events.get(job.job_id)
        if done is not None and not done.triggered:
            done.succeed(self.completed[-1])
        self._check_drained()

    def _check_drained(self) -> None:
        if (
            not self._submitting
            and self.jobs_finished >= self.jobs_submitted
            and len(self.policy) == 0
            and not self.drained.triggered
        ):
            self.drained.succeed()
