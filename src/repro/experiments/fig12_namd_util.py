"""Figs. 12 & 13 — NAMD/JETS utilization and load level.

Paper (Section 6.1.6): batches of 4-processor NAMD jobs on Surveyor, one
process per node, 6 executions per node on average, allocation sizes 256
to 1,024 nodes.  Utilization "is near 90 %" (Fig. 12); the full-rack load
level (busy cores over time, Fig. 13) shows a ramp-up, a plateau near
capacity, and a long tail.  The same run produces both figures, so this
module serves both.
"""

from __future__ import annotations

import numpy as np

from ..apps.namd import NamdProgram
from ..cluster.machine import surveyor
from ..core.jets import JetsConfig, Simulation, service_config_for
from ..core.tasklist import JobSpec, TaskList
from ..metrics.timeline import gauge_to_arrays, sample_series
from .common import check, print_rows

__all__ = ["run", "load_level", "PAPER", "main"]

PAPER = {
    "utilization": 0.90,
    "executions_per_node": 6,
    "claim_fig13": "ramp-up, plateau near capacity, long tail",
}


def _namd_jobs(count: int) -> list[JobSpec]:
    # Duplicated REM-like cases in round-robin order, as in the paper
    # ("we duplicated those cases and ordered them in round-robin fashion"
    # over 32 distinct inputs).
    jobs = []
    for i in range(count):
        prog = NamdProgram(input_name=f"case-{i % 32}-{i // 32}.pdb")
        jobs.append(JobSpec(program=prog, nodes=4, ppn=1, mpi=True))
    return jobs


def run(
    alloc_sizes=(256, 512, 1024),
    executions_per_node: int = 6,
    seed: int = 0,
    keep_platform: bool = False,
) -> list[dict]:
    """NAMD batch utilization per allocation size (Fig. 12)."""
    rows = []
    for alloc in alloc_sizes:
        count = alloc * executions_per_node // 4
        machine = surveyor(alloc)
        sim = Simulation(
            machine,
            JetsConfig(service=service_config_for(machine)),
            seed=seed,
        )
        report = sim.run_standalone(
            TaskList(_namd_jobs(count)), allocation_nodes=alloc
        )
        row = {
            "alloc": alloc,
            "util": round(report.utilization, 3),
            "jobs": report.jobs_completed,
            "span_s": round(report.span, 0),
        }
        if keep_platform:
            row["report"] = report
        rows.append(row)
        # Unless the row keeps it, free this point's platform before the
        # next one is built.
        del report
    return rows


def load_level(report, sample_dt: float = 20.0) -> list[dict]:
    """Busy-core load level over time (Fig. 13) from a run's report."""
    times, values = gauge_to_arrays(report.platform.busy_cores)
    series = list(zip(times.tolist(), values.tolist()))
    t, v = sample_series(series, 0.0, float(times[-1]), sample_dt)
    return [
        {"t": round(float(ti), 0), "busy_cores": int(vi)}
        for ti, vi in zip(t, v)
    ]


def verify(rows: list[dict]) -> None:
    """Assert Fig. 12's claim."""
    check(
        all(r["util"] > 0.8 for r in rows),
        f"NAMD/JETS utilization near 90 % (measured {[r['util'] for r in rows]})",
    )


def verify_load(load_rows: list[dict], alloc_nodes: int) -> None:
    """Assert Fig. 13's shape: ramp, plateau near capacity, tail."""
    busy = np.array([r["busy_cores"] for r in load_rows], dtype=float)
    capacity = alloc_nodes  # one MPI process (busy core) per node
    peak = busy.max()
    check(peak > 0.9 * capacity, "load plateau approaches capacity (Fig. 13)")
    third = max(1, len(busy) // 3)
    check(
        busy[:third].mean() <= busy[third : 2 * third].mean() + 1e-9,
        "ramp-up precedes the plateau (Fig. 13)",
    )
    check(busy[-1] < 0.5 * peak, "a long tail winds the batch down (Fig. 13)")


def main() -> list[dict]:
    rows = run(keep_platform=True)
    verify([{k: v for k, v in r.items() if k != "report"} for r in rows])
    print_rows(
        "Fig. 12: NAMD/JETS utilization",
        [{k: v for k, v in r.items() if k != "report"} for r in rows],
        ["alloc", "util", "jobs", "span_s"],
    )
    full_rack = rows[-1]
    load_rows = load_level(full_rack["report"])
    verify_load(load_rows, full_rack["alloc"])
    print_rows(
        "Fig. 13: full-rack NAMD load level (busy cores)",
        load_rows[:: max(1, len(load_rows) // 20)],
        ["t", "busy_cores"],
    )
    return rows


if __name__ == "__main__":
    from .common import obs_main

    obs_main(main)
