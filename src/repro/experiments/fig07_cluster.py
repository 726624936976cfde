"""Fig. 7 — MPI task launch performance, cluster setting.

Paper: Breadboard (x86), barrier/sleep(1 s)/barrier MPI tasks of 4 or 8
processes across 4 or 8 nodes, batches inside allocations of increasing
size.  "JETS can achieve approximately 90 % system utilization for the
extremely short (single-second) tasks submitted.  This greatly exceeds the
utilization available in an mpiexec-based shell script."
"""

from __future__ import annotations

from ..baselines.shellscript import run_shellscript_batch
from ..cluster.machine import breadboard
from ..core.jets import JetsConfig, Simulation, service_config_for
from ..core.tasklist import JobSpec, TaskList
from ..apps.synthetic import BarrierSleepBarrier
from .common import check, print_rows

__all__ = ["run", "PAPER", "main"]

PAPER = {
    "jets_utilization": 0.90,
    "claim": "JETS ~90 % utilization for 1-s tasks; shell-script mode far lower",
}


def _jobs(nproc: int, count: int, duration: float) -> list[JobSpec]:
    return [
        JobSpec(
            program=BarrierSleepBarrier(duration),
            nodes=nproc,
            ppn=1,
            mpi=True,
        )
        for _ in range(count)
    ]


def run(
    alloc_sizes=(8, 16, 32, 64),
    nprocs=(4, 8),
    duration: float = 1.0,
    jobs_per_node: int = 10,
    seed: int = 0,
) -> list[dict]:
    """Utilization of JETS vs the shell-script loop per allocation size."""
    rows = []
    for alloc in alloc_sizes:
        for nproc in nprocs:
            if nproc > alloc:
                continue
            count = max(2, alloc * jobs_per_node // nproc)
            machine = breadboard(alloc)
            sim = Simulation(
                machine,
                JetsConfig(service=service_config_for(machine)),
                seed=seed,
            )
            report = sim.run_standalone(
                TaskList(_jobs(nproc, count, duration)), allocation_nodes=alloc
            )
            jets_util = round(report.utilization, 3)
            jobs = report.jobs_completed
            # Free each run's platform before the next one is built.
            del report
            # Shell-script mode runs far fewer jobs (it is serial anyway);
            # scale the batch down to keep harness runtime sane.
            shell = run_shellscript_batch(
                machine,
                _jobs(nproc, max(2, count // 8), duration),
                allocation_nodes=alloc,
                seed=seed,
            )
            rows.append(
                {
                    "alloc": alloc,
                    "nproc": nproc,
                    "jets_util": jets_util,
                    "shell_util": round(shell.utilization, 3),
                    "jobs": jobs,
                }
            )
            del shell
    return rows


def verify(rows: list[dict]) -> None:
    """Assert the paper's qualitative claims."""
    check(
        all(r["jets_util"] > r["shell_util"] for r in rows),
        "JETS beats the shell-script mode at every allocation size (Fig. 7)",
    )
    check(
        all(r["jets_util"] > 0.75 for r in rows),
        "JETS sustains high utilization (~90 % in the paper) for 1-s tasks",
    )
    multi = [r for r in rows if r["alloc"] > r["nproc"]]
    check(
        all(r["shell_util"] < 0.6 for r in multi),
        "shell-script utilization collapses once the allocation exceeds "
        "the job size (it runs one job at a time)",
    )


def main() -> list[dict]:
    rows = run()
    verify(rows)
    print_rows(
        "Fig. 7: cluster-setting utilization, JETS vs shell script",
        rows,
        ["alloc", "nproc", "jets_util", "shell_util", "jobs"],
    )
    print(f"paper reference: JETS ≈ {PAPER['jets_utilization']:.0%}")
    return rows


if __name__ == "__main__":
    from .common import obs_main

    obs_main(main)
