"""The "shell script" baseline of Fig. 7: mpiexec in a loop.

"The workload was run in each of two modes: a 'shell script' mode, which
simply calls mpiexec repeatedly, and a mode in which JETS was used.  The
shell script mode can use only the entire allocation" — one job at a time,
each paying a full ssh-bootstrap across its nodes.  No pilot workers, no
reuse: this is what JETS's ~90 % utilization is measured against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Iterable, Optional

from ..cluster.machine import MachineSpec
from ..cluster.platform import Platform
from ..core.tasklist import JobSpec
from ..metrics.utilization import UtilizationLedger
from ..mpi.app import RankContext
from ..mpi.comm import SimComm
from ..simkernel import Environment

__all__ = ["ShellScriptConfig", "ShellScriptReport", "run_shellscript_batch"]


@dataclass(frozen=True)
class ShellScriptConfig:
    """Cost model for ssh-bootstrapped mpiexec.

    ssh connections to the job's nodes are opened with bounded concurrency
    (default OpenSSH-ish fan-out), each costing ``ssh_setup``; then every
    node pays its fork/exec for the proxy and the user process.
    """

    ssh_setup: float = 0.12
    ssh_fanout: int = 8
    mpiexec_spawn: float = 0.01


@dataclass
class ShellScriptReport:
    """Outcome of a shell-script batch."""

    jobs_completed: int
    utilization: float
    span: float
    allocation_nodes: int


def run_shellscript_batch(
    machine: MachineSpec,
    jobs: Iterable[JobSpec],
    allocation_nodes: Optional[int] = None,
    config: Optional[ShellScriptConfig] = None,
    seed: int = 0,
) -> ShellScriptReport:
    """Run ``jobs`` sequentially, mpiexec-style, on one allocation."""
    cfg = config or ShellScriptConfig()
    nodes = allocation_nodes or machine.nodes
    platform = Platform(machine, seed=seed)
    job_list = list(jobs)
    ledger = UtilizationLedger(nodes)
    done = {"count": 0}

    def driver() -> Generator:
        env: Environment = platform.env
        pool = platform.nodes[:nodes]
        for job in job_list:
            t0 = env.now
            yield env.timeout(cfg.mpiexec_spawn)
            chosen = pool[: job.nodes]
            # ssh bootstrap with bounded fan-out.
            waves, rem = divmod(job.nodes, cfg.ssh_fanout)
            yield env.timeout(cfg.ssh_setup * (waves + (1 if rem else 0)))
            # Launch one rank per node per ppn, directly (no pilot).
            endpoints: list[int] = []
            for node in chosen:
                endpoints.extend([node.endpoint] * job.ppn)
            comm = SimComm(env, platform.fabric, endpoints)
            procs = []
            rank = 0
            for node in chosen:
                for _ in range(job.ppn):
                    procs.append(
                        env.process(
                            node.exec_process(
                                job.program.image,
                                _rank_body(env, comm, rank, job, node),
                            )
                        )
                    )
                    rank += 1
            yield env.all_of(procs)
            done["count"] += 1
            ledger.add(job.duration_hint, job.nodes, t0, env.now)

    proc = platform.env.process(driver(), name="shellscript")
    platform.env.run(proc)
    platform.env.close()  # the run is over: let go of the platform
    return ShellScriptReport(
        jobs_completed=done["count"],
        utilization=ledger.utilization(),
        span=ledger.span,
        allocation_nodes=nodes,
    )


def _rank_body(env, comm, rank, job, node):
    def body() -> Generator:
        ctx = RankContext(
            env=env,
            comm=comm,
            rank=rank,
            size=job.world_size,
            node=node,
            job_id=job.job_id,
        )
        return (yield from job.program.run(ctx))

    return body
