"""Hydra process-manager model: ``mpiexec`` + proxies, ``launcher=manual``.

This is the machinery the paper modified MPICH2 to expose (contributions 1
and 2, Section 1.2): instead of bootstrapping proxies itself via ssh,
``mpiexec`` started with ``launcher=manual`` *reports proxy commands on its
output* and waits; an external scheduler — JETS — ships those commands to
pilot workers, which exec the Hydra proxy; proxies connect back to
``mpiexec``, perform the PMI wire-up for their user processes, and the MPI
job starts (Fig. 4 steps ③–⑥).

Protocol implemented here, over simulated sockets:

1. ``MpiexecController.launch()`` — pay the mpiexec fork cost on the
   submit host, bind a listener, emit one :class:`ProxyCommand` per host.
2. Each proxy connects and sends ``register``.
3. When all proxies are registered, mpiexec sends ``start``.
4. The proxy forks the user ranks (core-claiming processes on its node);
   each rank's PMI put is forwarded upstream as a ``pmi_put`` message.
5. When all ranks have put, mpiexec commits the KVS and sends ``commit``
   (carrying the wired-up :class:`~repro.mpi.comm.SimComm`) to every
   proxy; ranks start executing the application body.
6. Ranks finish; each proxy sends ``exit`` with its status; when all have
   exited, the controller's ``done`` event fires with a :class:`JobResult`.

Any premature connection close, bad exit status, or watchdog expiry fails
the job: remaining proxies receive ``abort``, in-flight ranks are
interrupted, and ``done`` fires with ``ok=False`` — JETS requeues the job
(Section 5.1: "The mpiexec output is checked for errors").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from ..analysis import protocol as wire
from ..cluster.node import Node
from ..cluster.platform import Platform
from ..netsim.sockets import ConnectionClosed, Socket
from ..oslayer.process import ExecutableImage
from ..simkernel import Environment, Event, Interrupt, Resource, Store
from .app import MpiProgram, RankContext
from .comm import MpiAbort, SimComm
from .pmi import PmiKvs

__all__ = [
    "HydraConfig",
    "ProxyCommand",
    "JobResult",
    "MpiexecController",
    "run_proxy",
    "PROXY_IMAGE",
]

#: The Hydra proxy binary (pilot-cached by JETS staging, Section 5 item 2).
PROXY_IMAGE = ExecutableImage("hydra_pmi_proxy", 800 << 10)


@dataclass(frozen=True)
class HydraConfig:
    """Cost/behaviour knobs of the Hydra machinery.

    Attributes:
        mpiexec_spawn: fork+startup cost of one mpiexec on the submit host.
        msg_cost: mpiexec-side CPU cost of handling one protocol message
            (the Hydra process is single-threaded, so a 64-proxy job pays
            this serially per register/put/exit — one reason large jobs
            are "individually slower to start", Section 6.1.4).
        ctrl_msg_bytes: size of control-plane messages (register/start/...).
        pmi_msg_bytes: size of one PMI put message.
        kvs_bytes_per_rank: commit-message payload per rank.
        output_check: cost of scanning mpiexec output for errors at exit.
        launch_timeout: watchdog — fail the job if wire-up stalls this long.
    """

    mpiexec_spawn: float = 0.020
    msg_cost: float = 0.0005
    ctrl_msg_bytes: int = 512
    pmi_msg_bytes: int = 256
    kvs_bytes_per_rank: int = 96
    output_check: float = 0.002
    launch_timeout: float = 300.0


@dataclass(frozen=True)
class ProxyCommand:
    """What ``launcher=manual`` prints for one host: enough for any external
    controller to bring up the proxy (paper Section 4.2)."""

    job_id: str
    proxy_id: int
    mpiexec_endpoint: int
    service: str
    ranks: tuple[int, ...]
    world_size: int
    #: This proxy's share of the job's output-staging payload, shipped
    #: back to the dispatcher with the completion report (Coasters-style
    #: data movement over the task connection).
    stage_out_bytes: int = 0


@dataclass
class JobResult:
    """Outcome of one MPI job execution attempt."""

    job_id: str
    ok: bool
    error: str = ""
    world_size: int = 0
    t_launch: float = 0.0
    t_app_start: float = 0.0
    t_app_end: float = 0.0
    t_done: float = 0.0
    rank0_value: Any = None

    @property
    def wireup_time(self) -> float:
        """Time from mpiexec launch to application start."""
        return self.t_app_start - self.t_launch

    @property
    def app_time(self) -> float:
        """Application execution time (commit to last exit)."""
        return self.t_app_end - self.t_app_start


_job_seq = itertools.count()


class MpiexecController:
    """One background ``mpiexec`` driving one MPI job.

    Args:
        platform: the machine.
        job_id: unique id (used for the listener service name).
        hosts: per-proxy ``(node, ranks)`` assignments; ranks are global.
        program: the application to run.
        config: Hydra cost model.
        submit_cpu: Resource modelling submit-host CPU concurrency (the
            mpiexec fork is charged under it); None = uncontended.
        endpoint: where mpiexec runs (default: the platform login host).
        fabric: fabric for application traffic (default: control fabric).
    """

    def __init__(
        self,
        platform: Platform,
        job_id: str,
        hosts: list[tuple[Node, tuple[int, ...]]],
        program: MpiProgram,
        config: Optional[HydraConfig] = None,
        submit_cpu: Optional[Resource] = None,
        endpoint: Optional[int] = None,
        fabric=None,
    ):
        if not hosts:
            raise ValueError("job needs at least one host")
        self.platform = platform
        self.env: Environment = platform.env
        self.job_id = job_id
        self.hosts = hosts
        self.program = program
        self.config = config or HydraConfig()
        self.submit_cpu = submit_cpu
        self.endpoint = platform.login_endpoint if endpoint is None else endpoint
        self.fabric = fabric or platform.fabric
        self.world_size = sum(len(r) for _n, r in hosts)
        self.service = f"mpiexec-{job_id}-{next(_job_seq)}"
        self.done: Event = self.env.event()
        self.kvs = PmiKvs(self.env, self.world_size)
        self._queue: Store = Store(self.env)
        self._sockets: dict[int, Socket] = {}
        self._result: Optional[JobResult] = None
        self._t_launch = 0.0
        self._external_abort = False
        #: True once the KVS committed and ranks were released — the
        #: boundary between a wire-up failure and an application failure
        #: (recovery policies classify resubmit reasons on it).
        self.app_started = False

    def launch(self) -> Generator:
        """Spawn mpiexec; returns the proxy command list (sim generator)."""
        if self.submit_cpu is not None:
            req = self.submit_cpu.request()
            yield req
            # No finally: only Environment.close() throws into the
            # dispatcher, and teardown leaves the grant as it is.
            yield self.env.timeout(self.config.mpiexec_spawn)
            self.submit_cpu.release(req)
        else:
            yield self.env.timeout(self.config.mpiexec_spawn)
        self._t_launch = self.env.now
        self._listener = self.platform.network.listen(self.endpoint, self.service)
        self.env.process(self._serve(), name=f"mpiexec-{self.job_id}")
        rank_check = sorted(r for _n, ranks in self.hosts for r in ranks)
        if rank_check != list(range(self.world_size)):
            raise ValueError(f"host rank assignment is not a permutation: {rank_check}")
        return [
            ProxyCommand(
                job_id=self.job_id,
                proxy_id=i,
                mpiexec_endpoint=self.endpoint,
                service=self.service,
                ranks=tuple(ranks),
                world_size=self.world_size,
            )
            for i, (_node, ranks) in enumerate(self.hosts)
        ]

    def abort(self, reason: str = "external abort") -> None:
        """Ask the controller to tear the job down (e.g. JETS detected a
        dead worker before the socket noticed)."""
        self._external_abort = True
        self._queue.put((-1, (wire.EXTERNAL_ABORT, reason)))

    # -- internals -----------------------------------------------------------

    def _reader(self, proxy_id: int, sock: Socket) -> Generator:
        try:
            while True:
                msg = yield sock.recv()
                self._queue.put((proxy_id, msg.payload))
        except ConnectionClosed:
            self._queue.put((proxy_id, (wire.CLOSED,)))

    def _accept_loop(self, n: int) -> Generator:
        accepted = 0
        while accepted < n:
            sock = yield self._listener.accept()
            accepted += 1
            # First message on each connection is `register`; the reader
            # forwards everything into the central queue.
            self.env.process(
                self._reader_bootstrap(sock), name=f"{self.service}-rd"
            )

    def _reader_bootstrap(self, sock: Socket) -> Generator:
        try:
            msg = yield sock.recv()
        except ConnectionClosed:
            self._queue.put((-1, (wire.CLOSED,)))
            return
        kind, proxy_id = msg.payload[0], msg.payload[1]
        if kind != wire.REGISTER:
            self.platform.trace.log(
                "protocol.error",
                {
                    "channel": wire.CHANNEL_HYDRA,
                    "kind": str(kind),
                    "job": self.job_id,
                    "detail": "first proxy message must be register",
                },
            )
            self._queue.put((proxy_id, (wire.PROTOCOL_ERROR, msg.payload)))
            return
        self._sockets[proxy_id] = sock
        self._queue.put((proxy_id, msg.payload))
        yield from self._reader(proxy_id, sock)

    def _serve(self) -> Generator:
        cfg = self.config
        env = self.env
        n_proxies = len(self.hosts)
        self.env.process(self._accept_loop(n_proxies), name=f"{self.service}-acc")

        registered = 0
        puts = 0
        exits = 0
        exited: set[int] = set()
        failed: Optional[str] = None
        comm: Optional[SimComm] = None
        t_app_start = 0.0
        t_app_end = 0.0
        rank0_value: Any = None
        deadline = env.now + cfg.launch_timeout
        log = self.platform.trace.log

        while exits < n_proxies:
            get = self._queue.get()
            if comm is None:
                # Wire-up phase: enforce the watchdog.
                timeout_ev = env.timeout(max(0.0, deadline - env.now))
                result = yield env.any_of([get, timeout_ev])
                if get not in result:
                    self._queue.cancel_get(get)
                    failed = failed or "wire-up watchdog expired"
                    break
                pid, payload = get.value
            else:
                pid, payload = yield get
            kind = payload[0]
            if cfg.msg_cost:
                yield env.timeout(cfg.msg_cost)

            if kind == wire.REGISTER:
                registered += 1
                log(
                    "proxy.registered",
                    {
                        "job": self.job_id,
                        "proxy": pid,
                        "node": self._proxy_node(pid),
                    },
                )
                if registered == n_proxies:
                    log(
                        "job.pmi_wireup", {"job": self.job_id}
                    )
                    for sock in self._sockets.values():
                        # A proxy can die between its register and this
                        # broadcast; its CLOSED mark is already queued
                        # and fails the job on the next loop turn.
                        if sock.closed:
                            continue
                        try:
                            yield sock.send(
                                (wire.START,),
                                wire.wire_size(
                                    wire.CHANNEL_HYDRA,
                                    wire.START,
                                    ctrl=cfg.ctrl_msg_bytes,
                                ),
                            )
                        except ConnectionClosed:
                            pass
            elif kind == wire.PMI_PUT:
                _, rank, key, value = payload
                self.kvs.put(rank, key, value)
                puts += 1
                if puts == self.world_size:
                    comm = self._build_comm()
                    self.app_started = True
                    t_app_start = env.now
                    commit_bytes = cfg.kvs_bytes_per_rank * self.world_size
                    log(
                        "job.app_running", {"job": self.job_id}
                    )
                    for wired_pid, sock in self._sockets.items():
                        if sock.closed:
                            continue
                        log(
                            "proxy.wired",
                            {"job": self.job_id, "proxy": wired_pid},
                        )
                        try:
                            yield sock.send(
                                (wire.COMMIT, comm),
                                wire.wire_size(
                                    wire.CHANNEL_HYDRA,
                                    wire.COMMIT,
                                    extra=commit_bytes,
                                ),
                            )
                        except ConnectionClosed:
                            pass
            elif kind == wire.EXIT:
                _, _pid, status, value = payload
                exits += 1
                exited.add(pid)
                log(
                    "proxy.exited",
                    {"job": self.job_id, "proxy": pid, "status": status},
                )
                if status != 0 and failed is None:
                    failed = f"proxy {pid} exited with status {status}"
                if value is not None:
                    rank0_value = value
                t_app_end = env.now
            elif kind == wire.CLOSED:
                if pid in exited:
                    continue  # normal close after exit
                if failed is None:
                    failed = f"lost connection to proxy {pid}"
                break
            elif kind == wire.EXTERNAL_ABORT:
                failed = failed or payload[1]
                break
            elif kind == wire.PROTOCOL_ERROR:
                failed = failed or f"protocol error from {pid}: {payload[1]}"
                break

        if failed is not None:
            # Abort phase: tear down whatever is still running.
            if comm is not None:
                comm.abort()
            for pid, sock in self._sockets.items():
                if not sock.closed:
                    try:
                        yield sock.send(
                            (wire.ABORT,),
                            wire.wire_size(
                                wire.CHANNEL_HYDRA,
                                wire.ABORT,
                                ctrl=cfg.ctrl_msg_bytes,
                            ),
                        )
                    except ConnectionClosed:
                        pass

        yield env.timeout(cfg.output_check)
        for sock in self._sockets.values():
            sock.close()
        self._listener.close()
        # Close the lifecycle of proxies that died without reporting
        # (worker kill, lost connection, abort): 143 = SIGTERM-style.
        for pid in self._sockets:
            if pid not in exited:
                log(
                    "proxy.exited",
                    {"job": self.job_id, "proxy": pid, "status": 143},
                )

        result = JobResult(
            job_id=self.job_id,
            ok=failed is None,
            error=failed or "",
            world_size=self.world_size,
            t_launch=self._t_launch,
            t_app_start=t_app_start or self._t_launch,
            t_app_end=t_app_end or env.now,
            t_done=env.now,
            rank0_value=rank0_value,
        )
        self._result = result
        self.done.succeed(result)

    def _proxy_node(self, proxy_id: int) -> Optional[int]:
        """Node id a proxy was assigned to (None for bad/unknown ids)."""
        if 0 <= proxy_id < len(self.hosts):
            return self.hosts[proxy_id][0].node_id
        return None

    def _build_comm(self) -> SimComm:
        endpoints = [0] * self.world_size
        for node, ranks in self.hosts:
            for r in ranks:
                endpoints[r] = node.endpoint
        return SimComm(self.env, self.fabric, endpoints)


def run_proxy(
    platform: Platform,
    node: Node,
    cmd: ProxyCommand,
    program: MpiProgram,
) -> Generator:
    """The Hydra proxy body, run on a worker node (sim generator).

    Connects back to mpiexec, forks the user ranks, relays PMI, waits for
    rank completion, reports the exit status.  Returns the proxy exit
    status (0 = success).  Designed to be interruptible: an
    :class:`~repro.simkernel.Interrupt` (worker kill / node fault) closes
    the socket, which mpiexec observes as a job failure.
    """
    env = platform.env
    sock: Optional[Socket] = None
    rank_procs: list = []
    status = 0
    try:
        sock = yield from platform.network.connect(
            node.endpoint, cmd.mpiexec_endpoint, cmd.service
        )
        yield sock.send(
            (wire.REGISTER, cmd.proxy_id),
            wire.wire_size(wire.CHANNEL_HYDRA, wire.REGISTER),
        )
        msg = yield sock.recv()
        if msg.payload[0] == wire.ABORT:
            sock.close()
            return 1
        assert msg.payload[0] == wire.START, msg.payload

        # Fork user ranks; each is a core-claiming process on this node.
        ready_events: dict[int, Event] = {}
        go_events: dict[int, Event] = {}
        results: dict[int, Any] = {}

        aborted_ranks: list[int] = []

        def rank_body(rank: int):
            def body() -> Generator:
                try:
                    ready_events[rank].succeed()
                    ctx_holder = yield go_events[rank]
                    if ctx_holder is None:  # aborted before start
                        return None
                    comm = ctx_holder
                    ctx = RankContext(
                        env=env,
                        comm=comm,
                        rank=rank,
                        size=cmd.world_size,
                        node=node,
                        job_id=cmd.job_id,
                    )
                    # Through the node's straggler scaler so an injected
                    # slowdown stretches this rank's compute.
                    value = yield from node.run_scaled(program.run(ctx))
                    results[rank] = value
                    return value
                except (Interrupt, MpiAbort):
                    aborted_ranks.append(rank)
                    return None

            return body

        def rank_exec(rank: int) -> Generator:
            # A kill can land while the rank is still paying fork/exec or
            # loading its executable — before ``rank_body`` is running and
            # able to catch it.  Absorb the interrupt here so it never
            # escapes the rank process; the proxy reports the failure.
            try:
                return (
                    yield from node.exec_process(program.image, rank_body(rank))
                )
            except (Interrupt, MpiAbort):
                aborted_ranks.append(rank)
                return None

        for rank in cmd.ranks:
            ready_events[rank] = env.event()
            go_events[rank] = env.event()
            proc = env.process(rank_exec(rank), name=f"rank{rank}-{cmd.job_id}")
            rank_procs.append(proc)

        # As each rank comes up, forward its PMI put to mpiexec.
        for rank in cmd.ranks:
            yield ready_events[rank]
            yield sock.send(
                (wire.PMI_PUT, rank, f"addr-{rank}", node.endpoint),
                wire.wire_size(wire.CHANNEL_HYDRA, wire.PMI_PUT),
            )

        # Wait for the KVS commit (or an abort).
        msg = yield sock.recv()
        if msg.payload[0] == wire.ABORT:
            for rank in cmd.ranks:
                go_events[rank].succeed(None)
            yield env.all_of(rank_procs)
            sock.close()
            return 1
        assert msg.payload[0] == wire.COMMIT, msg.payload
        comm = msg.payload[1]

        for rank in cmd.ranks:
            go_events[rank].succeed(comm)

        # Wait for ranks, but stay responsive to an abort from mpiexec.
        all_done = env.all_of(rank_procs)
        abort_recv = sock.recv()
        yield env.any_of([all_done, abort_recv])
        if not all_done.triggered:
            for proc in rank_procs:
                if proc.is_alive:
                    proc.interrupt("mpiexec abort")
            yield env.all_of(rank_procs)
        if aborted_ranks:
            status = 1

        value = results.get(0) if 0 in cmd.ranks else None
        yield sock.send(
            (wire.EXIT, cmd.proxy_id, status, value),
            wire.wire_size(wire.CHANNEL_HYDRA, wire.EXIT),
        )
        sock.close()
        return status
    except (Interrupt, MpiAbort):
        # Worker killed (fault injection) or comm torn down under us.
        for proc in rank_procs:
            if proc.is_alive:
                # Per-rank isolation: one already-dead rank must not stop
                # the teardown of the rest.
                try:  # repro: noqa[PF005]
                    proc.interrupt("proxy killed")
                except Exception:
                    pass
        if sock is not None:
            sock.close()
        return 143
    except ConnectionClosed:
        for proc in rank_procs:
            if proc.is_alive:
                # Per-rank isolation, as above.
                try:  # repro: noqa[PF005]
                    proc.interrupt("mpiexec connection lost")
                except Exception:
                    pass
        return 1
