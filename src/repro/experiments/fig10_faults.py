"""Fig. 10 — task management in a faulty setting.

Paper: Surveyor, 32 pilot workers, sequential tasks; a fault-injection
script kills one randomly selected pilot every 10 s until none remain
(~320 s).  "The number of running jobs stays close to the number of nodes
available, indicating that JETS maintains a high utilization rate on the
available nodes", with lockstep congestion dips early on that shrink as
skew accumulates.
"""

from __future__ import annotations

import numpy as np

from ..cluster.machine import surveyor
from ..core.jets import FaultSpec, JetsConfig, Simulation, service_config_for
from ..core.tasklist import TaskList
from ..metrics.timeline import (
    available_workers_series,
    sample_series,
    step_series,
)
from .common import check, print_rows

__all__ = ["run", "PAPER", "main"]

PAPER = {
    "workers": 32,
    "fault_interval": 10.0,
    "claim": "running jobs track available nodes as workers die",
}


def run(
    workers: int = 32,
    fault_interval: float = 10.0,
    task_duration: float = 1.0,
    sample_dt: float = 10.0,
    seed: int = 0,
    fault_mode: str = "fixed",
    fault_jitter: float = 0.0,
) -> dict:
    """Run the fault experiment; returns series + summary rows.

    Workers advertise a single slot (one job per node, as plotted in the
    paper's figure).  The task queue is oversized so work never runs out.
    ``fault_mode``/``fault_jitter`` select the kill inter-arrival law
    (the paper's figure uses the regular ``fixed`` cadence).
    """
    machine = surveyor(workers)
    horizon = fault_interval * (workers + 4)
    n_tasks = int(2 * workers * horizon / max(task_duration, 0.1))
    sim = Simulation(
        machine,
        JetsConfig(
            service=service_config_for(machine),
            worker_slots=1,
        ),
        seed=seed,
    )
    tasks = TaskList.from_lines([f"SERIAL: sleep {task_duration}"] * n_tasks)
    report = sim.run_standalone(
        tasks,
        faults=FaultSpec(
            interval=fault_interval, mode=fault_mode, jitter=fault_jitter
        ),
        until=horizon,
    )
    trace = report.platform.trace
    # Times are reported relative to the first worker start (the paper's
    # t=0 is the beginning of the measured batch, not allocation submit).
    worker_starts = trace.times("worker.start")
    t_origin = worker_starts[0] if worker_starts else 0.0
    # Serial jobs have no mpiexec app stamps; build "running" from
    # dispatch→done spans instead.
    starts = [t - t_origin for t in trace.times("job.dispatch")]
    # A retry record marks the end of a dispatch attempt that died with
    # its worker, so it closes that attempt's interval.  step_series
    # sorts its deltas, so the order of the three lists does not matter.
    dones = [
        t - t_origin
        for c in ("job.done", "job.failed", "job.retry")
        for t in trace.times(c)
    ]
    running = step_series(starts, dones)
    avail = [
        (t - t_origin, v) for t, v in available_workers_series(trace)
    ]
    t_end = min(report.platform.env.now - t_origin, horizon)
    t, run_v = sample_series(running, 0.0, t_end, sample_dt)
    _, avail_v = sample_series(avail, 0.0, t_end, sample_dt)
    rows = [
        {
            "t": round(float(ti), 0),
            "nodes_avail": int(av),
            "running_jobs": int(rv),
        }
        for ti, rv, av in zip(t, run_v, avail_v)
    ]
    return {
        "rows": rows,
        "running": running,
        "available": avail,
        "faults": report.faults_injected,
        "completed": report.jobs_completed,
        "report": report,
    }


def verify(result: dict) -> None:
    """Assert the paper's qualitative claims."""
    rows = result["rows"]
    check(result["faults"] > 0, "faults were injected")
    ramp = max(r["nodes_avail"] for r in rows)
    mid = [
        r for r in rows
        if 0 < r["nodes_avail"] < ramp and r["running_jobs"] > 0
    ]
    check(len(mid) >= 2, "the run survives multiple fault intervals")
    # After the start-up ramp, available nodes decrease monotonically
    # (workers only die).
    avail_seq = [r["nodes_avail"] for r in rows]
    peak = avail_seq.index(max(avail_seq))
    post = avail_seq[peak:]
    check(
        all(b <= a for a, b in zip(post, post[1:])),
        "available workers only decrease under fault injection (Fig. 10)",
    )
    # Running jobs track availability: mean ratio stays high.
    ratios = [r["running_jobs"] / r["nodes_avail"] for r in mid]
    check(
        float(np.mean(ratios)) > 0.6,
        "running jobs stay close to the number of available nodes "
        f"(mean ratio {np.mean(ratios):.2f}, Fig. 10)",
    )
    check(
        all(r["running_jobs"] <= r["nodes_avail"] + 1 for r in rows),
        "running jobs are bounded by available nodes",
    )


def main() -> dict:
    result = run()
    verify(result)
    print_rows(
        "Fig. 10: fault injection — availability vs running jobs",
        result["rows"],
        ["t", "nodes_avail", "running_jobs"],
    )
    print(f"faults injected: {result['faults']}, tasks completed: "
          f"{result['completed']}")
    return result


if __name__ == "__main__":
    from .common import obs_main

    obs_main(main)
