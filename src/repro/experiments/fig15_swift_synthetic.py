"""Fig. 15 — Swift/Coasters synthetic MPI workloads on Eureka.

Paper (Section 6.2.1): allocations of 16/32/64 nodes maintained by a
persistent CoasterService; each task is an MPI job (barrier, 10-s sleep,
per-rank file write, barrier) sized nodes-per-job × PPN.  "For a given
allocation size, at this duration, increasing task sizes decreases
utilization.  Increasing node counts or PPN reduce utilization. ...
increasing PPN exacerbates filesystem delays as the application program is
read multiple times."
"""

from __future__ import annotations

from ..apps.synthetic import SwiftSyntheticTask
from ..cluster.batch import BatchScheduler
from ..cluster.machine import eureka
from ..cluster.platform import Platform
from ..core.tasklist import JobSpec
from ..swift.coasters import CoastersConfig, CoasterService
from ..swift.dataflow import SwiftEngine
from ..swift.provider import CoastersProvider
from ..metrics.utilization import UtilizationLedger
from .common import check, print_rows

__all__ = ["run", "PAPER", "main"]

PAPER = {
    "alloc_sizes": (16, 32, 64),
    "duration": 10.0,
    "claim": "utilization decreases with task node count and with PPN",
}


def run_one(
    alloc: int,
    nodes_per_job: int,
    ppn: int,
    duration: float = 10.0,
    jobs_per_node: int = 6,
    seed: int = 0,
) -> dict:
    """One Fig. 15 cell: a Swift loop of identical MPI tasks."""
    machine = eureka(max(alloc, 8))
    platform = Platform(machine, seed=seed)
    batch = BatchScheduler(platform)
    service = CoasterService(
        platform, batch, CoastersConfig(workers=alloc)
    )
    service.start()
    engine = SwiftEngine(platform, CoastersProvider(service))
    count = max(2, alloc * jobs_per_node // nodes_per_job)

    for _ in range(count):
        job = JobSpec(
            program=SwiftSyntheticTask(duration),
            nodes=nodes_per_job,
            ppn=ppn,
            mpi=True,
        )

        def make_job(_values, job=job):
            return job

        engine.call(make_job, name=job.job_id)

    platform.env.run(engine.drained())
    ledger = UtilizationLedger(alloc)
    for c in service.dispatcher.completed:
        if c.ok:
            ledger.add(duration, c.job.nodes, c.t_dispatched, c.t_done)
    # End the run as run_standalone does, so its parked loops let go of
    # the platform before the next cell builds one.
    platform.env.close()
    return {
        "alloc": alloc,
        "nodes_per_job": nodes_per_job,
        "ppn": ppn,
        "world": nodes_per_job * ppn,
        "util": round(ledger.utilization(), 3),
        "jobs": ledger.jobs,
    }


def run(
    alloc_sizes=(16, 32, 64),
    nodes_per_job=(1, 2, 4),
    ppns=(1, 4, 8),
    duration: float = 10.0,
    jobs_per_node: int = 6,
    seed: int = 0,
) -> list[dict]:
    """The Fig. 15 grid (one sub-figure per allocation size)."""
    rows = []
    for alloc in alloc_sizes:
        for npj in nodes_per_job:
            if npj > alloc:
                continue
            for ppn in ppns:
                rows.append(
                    run_one(
                        alloc, npj, ppn,
                        duration=duration,
                        jobs_per_node=jobs_per_node,
                        seed=seed,
                    )
                )
    return rows


def verify(rows: list[dict]) -> None:
    """Assert the Fig. 15 trends."""
    # PPN trend: within (alloc, nodes_per_job), utilization is
    # non-increasing as PPN grows.
    by_group: dict[tuple, list] = {}
    for r in rows:
        by_group.setdefault((r["alloc"], r["nodes_per_job"]), []).append(r)
    declines = 0
    comparisons = 0
    for group in by_group.values():
        group.sort(key=lambda r: r["ppn"])
        for a, b in zip(group, group[1:]):
            comparisons += 1
            if b["util"] <= a["util"] + 0.02:
                declines += 1
    check(
        comparisons == 0 or declines / comparisons >= 0.7,
        "increasing PPN reduces utilization in most cells (Fig. 15)",
    )
    # Node-count trend at fixed PPN.
    by_ppn: dict[tuple, list] = {}
    for r in rows:
        by_ppn.setdefault((r["alloc"], r["ppn"]), []).append(r)
    declines = comparisons = 0
    for group in by_ppn.values():
        group.sort(key=lambda r: r["nodes_per_job"])
        for a, b in zip(group, group[1:]):
            comparisons += 1
            if b["util"] <= a["util"] + 0.02:
                declines += 1
    check(
        comparisons == 0 or declines / comparisons >= 0.7,
        "increasing task node count reduces utilization in most cells "
        "(Fig. 15)",
    )


def main() -> list[dict]:
    rows = run()
    verify(rows)
    print_rows(
        "Fig. 15: Swift/Coasters synthetic MPI workload (Eureka)",
        rows,
        ["alloc", "nodes_per_job", "ppn", "world", "util", "jobs"],
    )
    return rows


if __name__ == "__main__":
    from .common import obs_main

    obs_main(main)
