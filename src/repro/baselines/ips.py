"""IPS-style launcher baseline (Section 2).

The Integrated Plasma Simulator manages a node pool inside one allocation,
like JETS, but with the two limitations the paper calls out:

1. it "must accurately predict how the underlying resource manager will
   assign nodes to IPS task creation requests ... this task can be tricky
   and requires user error-prone logic" — modelled as a per-launch
   misprediction probability that wastes a placement round trip and
   retries;
2. it "depends on the native systems underlying job placement and MPI
   launching service, such as mpiexec on simple clusters and ALPS aprun on
   Cray systems", with "no straightforward way to run on systems with more
   complex job launching mechanisms, such as the Blue Gene/P" — modelled
   by refusing machines whose compute OS lacks a native launcher path.

Jobs run concurrently on disjoint node groups (IPS does overlap tasks),
so the gap to JETS comes from per-launch cost, not concurrency.
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
from ..simkernel import Resource, Store

__all__ = ["IpsConfig", "IpsReport", "run_ips_batch", "IpsUnsupportedError"]


class IpsUnsupportedError(RuntimeError):
    """The machine has no native launcher IPS can drive."""


@dataclass(frozen=True)
class IpsConfig:
    """IPS cost model.

    Attributes:
        launch_cost: native mpiexec/aprun invocation cost per task.
        placement_cost: resource-manager node-assignment query per task.
        mispredict_prob: chance a task creation request lands on nodes the
            resource manager assigned differently, forcing a retry.
        mispredict_penalty: wasted time per misprediction.
    """

    launch_cost: float = 0.25
    placement_cost: float = 0.08
    mispredict_prob: float = 0.10
    mispredict_penalty: float = 1.5


@dataclass
class IpsReport:
    """Outcome of an IPS batch."""

    jobs_completed: int
    utilization: float
    span: float
    mispredictions: int
    allocation_nodes: int


def run_ips_batch(
    machine: MachineSpec,
    jobs: Iterable[JobSpec],
    allocation_nodes: Optional[int] = None,
    config: Optional[IpsConfig] = None,
    seed: int = 0,
) -> IpsReport:
    """Run ``jobs`` through the IPS-style pool manager."""
    if "bgp" in machine.name:
        raise IpsUnsupportedError(
            f"{machine.name}: no native mpiexec/aprun launch path on BG/P "
            "compute nodes (the JETS worker-agent model sidesteps this)"
        )
    cfg = config or IpsConfig()
    nodes = allocation_nodes or machine.nodes
    platform = Platform(machine, seed=seed)
    env = platform.env
    rng = platform.rng.stream("ips")
    ledger = UtilizationLedger(nodes)
    stats = {"done": 0, "mispredict": 0}

    # Free-node pool as a store of node objects.  Claims are serialized by
    # a mutex so two jobs never hold partial groups (which would deadlock —
    # IPS tracks the pool centrally for exactly this reason).
    pool = Store(env)
    claim_lock = Resource(env, 1)
    for node in platform.nodes[:nodes]:
        pool.put(node)

    def run_job(job: JobSpec) -> Generator:
        t0 = env.now
        with claim_lock.request() as lock:
            yield lock
            chosen = []
            for _ in range(job.nodes):
                node = yield pool.get()
                chosen.append(node)
        yield env.timeout(cfg.placement_cost)
        while rng.random() < cfg.mispredict_prob:
            stats["mispredict"] += 1
            yield env.timeout(cfg.mispredict_penalty)
        yield env.timeout(cfg.launch_cost)
        endpoints = []
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
        for node in chosen:
            pool.put(node)
        stats["done"] += 1
        ledger.add(job.duration_hint, job.nodes, t0, env.now)

    def driver() -> Generator:
        tasks = [env.process(run_job(j), name=f"ips-{j.job_id}") for j in jobs]
        yield env.all_of(tasks)

    proc = env.process(driver(), name="ips")
    env.run(proc)
    env.close()  # the run is over: let go of the platform
    return IpsReport(
        jobs_completed=stats["done"],
        utilization=ledger.utilization(),
        span=ledger.span,
        mispredictions=stats["mispredict"],
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
