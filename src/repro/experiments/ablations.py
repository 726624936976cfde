"""Ablation studies for the design choices DESIGN.md calls out.

A1 — node-local staging vs shared-FS binary reads (Section 5 feature 2).
A2 — FIFO vs priority vs backfill queueing (Section 7 plan).
A3 — FIFO vs topology-aware worker grouping (Section 7 plan).
A4 — single-block vs spectrum allocation under size-dependent queue waits
     (Section 7 plan / Coasters feature).
A5 — dispatcher service-time sensitivity (the Fig. 9 knee's cause).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..apps.namd import NamdProgram
from ..apps.synthetic import BarrierSleepBarrier
from ..cluster.batch import BatchScheduler
from ..cluster.machine import eureka, surveyor
from ..cluster.platform import Platform
from ..core.jets import JetsConfig, Simulation, service_config_for
from ..core.tasklist import JobSpec, TaskList
from ..swift.coasters import CoastersConfig, CoasterService
from .common import check, print_rows

__all__ = [
    "run_staging",
    "run_scheduling",
    "run_grouping",
    "run_spectrum",
    "run_dispatcher_sensitivity",
]


# -- A1: staging -----------------------------------------------------------------


def run_staging(nodes: int = 32, jobs: int = 96, seed: int = 0) -> list[dict]:
    """Short NAMD segments with and without node-local binary staging.

    The paper: staging "boosts startup performance and thus utilization
    for ensembles of *short* jobs" — so the ablation uses 1-timestep
    segments (~10 s) where the 32 MB binary read is a visible fraction.
    """
    from ..apps.namd import NamdCostModel

    short_model = NamdCostModel(steps=1)
    rows = []
    for stage in (True, False):
        machine = surveyor(nodes)
        sim = Simulation(
            machine,
            JetsConfig(
                service=service_config_for(machine), stage_binaries=stage
            ),
            seed=seed,
        )
        specs = [
            JobSpec(
                program=NamdProgram(
                    input_name=f"abl-{i}.pdb", model=short_model
                ),
                nodes=4,
                ppn=1,
                mpi=True,
            )
            for i in range(jobs)
        ]
        report = sim.run_standalone(TaskList(specs), allocation_nodes=nodes)
        rows.append(
            {
                "staging": stage,
                "util": round(report.utilization, 3),
                "mean_wireup_ms": round(report.mean_wireup * 1e3, 1),
                "span_s": round(report.span, 1),
            }
        )
        # Free this point's platform before the next one is built.
        del report
    check(
        rows[0]["util"] >= rows[1]["util"]
        and rows[0]["mean_wireup_ms"] < rows[1]["mean_wireup_ms"],
        "staging reduces wire-up time and does not hurt utilization (A1)",
    )
    return rows


# -- A2: scheduling policies ----------------------------------------------------------


def run_scheduling(nodes: int = 16, seed: int = 0) -> list[dict]:
    """Mixed-size workload under fifo / priority / backfill policies.

    The workload interleaves wide (half-allocation) and narrow jobs so
    FIFO head-of-line blocking leaves nodes idle that backfill can use.
    """
    rows = []
    for policy in ("fifo", "priority", "backfill"):
        machine = eureka(nodes)
        svc = service_config_for(machine, policy=policy)
        sim = Simulation(machine, JetsConfig(service=svc), seed=seed)
        specs = []
        for i in range(24):
            wide = i % 3 == 0
            specs.append(
                JobSpec(
                    program=BarrierSleepBarrier(4.0 if wide else 1.0),
                    nodes=nodes // 2 if wide else 1,
                    ppn=1,
                    mpi=True,
                    priority=0 if wide else 1,
                )
            )
        report = sim.run_standalone(TaskList(specs), allocation_nodes=nodes)
        rows.append(
            {
                "policy": policy,
                "span_s": round(report.span, 2),
                "util": round(report.utilization, 3),
                "completed": report.jobs_completed,
            }
        )
        # Free this point's platform before the next one is built.
        del report
    fifo = next(r for r in rows if r["policy"] == "fifo")
    backfill = next(r for r in rows if r["policy"] == "backfill")
    check(
        backfill["span_s"] <= fifo["span_s"] * 1.02,
        "backfill does not lengthen (and typically shortens) the mixed "
        "workload's makespan versus FIFO (A2)",
    )
    return rows


# -- A3: grouping ---------------------------------------------------------------------


def run_grouping(nodes: int = 64, jobs: int = 48, seed: int = 0) -> list[dict]:
    """FIFO vs topology-aware grouping: group diameter on the torus.

    Grouping strategy only matters when the free pool is *larger* than a
    job's group (under backlog the choice is forced), so jobs trickle in —
    the pool stays roughly half free — and durations vary so readiness
    order scatters across the torus.
    """
    from ..analysis.campaign import Run

    rows = []
    for grouping in ("fifo", "topology"):
        machine = surveyor(nodes)
        run = Run(machine, seed, judged=False)
        platform = run.platform
        # Fold each dispatch's node group as it is logged, so the run
        # needs no trace query and can run under a bounded session.
        groups = []
        platform.trace.subscribe(
            lambda rec: groups.append(rec.data.get("node_ids"))
            if rec.category == "job.dispatch" else None
        )
        dispatcher = run.start(service_config_for(machine, grouping=grouping))
        dur_rng = np.random.default_rng(seed)
        durations = dur_rng.uniform(1.0, 6.0, size=jobs)
        arrivals = dur_rng.uniform(0.4, 1.2, size=jobs)

        def driver():
            events = []
            for i in range(jobs):
                yield platform.env.timeout(float(arrivals[i]))
                events.append(
                    dispatcher.submit(
                        JobSpec(
                            program=BarrierSleepBarrier(float(durations[i])),
                            nodes=8,
                            ppn=1,
                            mpi=True,
                        )
                    )
                )
            yield platform.env.all_of(events)

        proc = platform.env.process(driver())
        platform.env.run(proc)
        topo = platform.topology
        diameters = []
        for node_ids in groups:
            if not node_ids:
                continue
            dia = max(
                (
                    topo.hops(a, b)
                    for i, a in enumerate(node_ids)
                    for b in node_ids[i + 1 :]
                ),
                default=0,
            )
            diameters.append(dia)
        rows.append(
            {
                "grouping": grouping,
                "mean_diameter": round(float(np.mean(diameters)), 2)
                if diameters
                else 0.0,
                "jobs": dispatcher.jobs_finished,
            }
        )
        # End the run as run_standalone does, so its parked loops let go
        # of the platform, and free it before the next one is built.
        platform.env.close()
        del run, platform, dispatcher, driver
    check(
        rows[1]["mean_diameter"] < rows[0]["mean_diameter"],
        "topology-aware grouping yields tighter groups on the torus (A3)",
    )
    return rows


# -- A4: spectrum allocator --------------------------------------------------------------


def run_spectrum(workers: int = 32, seed: int = 0) -> list[dict]:
    """Time to first capacity under size-dependent queue waits."""
    rows = []
    for spectrum in (False, True):
        machine = eureka(workers)
        platform = Platform(machine, seed=seed)
        # Larger requests wait disproportionately long in the site queue.
        batch = BatchScheduler(
            platform, queue_wait_fn=lambda n: 4.0 * n
        )
        service = CoasterService(
            platform,
            batch,
            CoastersConfig(workers=workers, spectrum=spectrum),
        )
        # Fold registration times as they are logged, so the run needs
        # no trace query and can run under a bounded session.
        registrations = []
        platform.trace.subscribe(
            lambda rec: registrations.append(rec.time)
            if rec.category == "dispatcher.register" else None
        )
        service.start()
        platform.env.run(service.ready)
        t_ready = platform.env.now
        # Let in-flight registrations drain.
        platform.env.run(platform.env.timeout(5.0))
        rows.append(
            {
                "spectrum": spectrum,
                "t_first_worker": round(min(registrations), 1),
                "t_full_capacity": round(t_ready, 1),
                "blocks": len(service.allocations),
            }
        )
        # End the run as run_standalone does, so its parked loops let go
        # of the platform, and free it before the next one is built.
        platform.env.close()
        del platform, batch, service
    check(
        rows[1]["t_first_worker"] < rows[0]["t_first_worker"],
        "the spectrum allocator gets first capacity sooner under "
        "size-dependent queue waits (A4)",
    )
    return rows


# -- A5: dispatcher sensitivity ------------------------------------------------------------


def run_dispatcher_sensitivity(
    nodes: int = 128,
    spawn_factors=(0.5, 1.0, 4.0, 16.0),
    seed: int = 0,
) -> list[dict]:
    """Utilization of small MPI tasks vs submit-host launch cost.

    The Fig. 9 knee comes from the central launch pipeline saturating:
    each MPI job needs an mpiexec spawned on the submit host, whose
    capacity is a couple of concurrent forks.  Sweeping the spawn cost
    moves the saturation point through the demand of a small-task
    workload.
    """
    rows = []
    for factor in spawn_factors:
        machine = surveyor(nodes)
        base = service_config_for(machine)
        hydra = replace(
            base.hydra, mpiexec_spawn=base.hydra.mpiexec_spawn * factor
        )
        svc = replace(base, hydra=hydra)
        sim = Simulation(machine, JetsConfig(service=svc), seed=seed)
        specs = [
            JobSpec(program=BarrierSleepBarrier(5.0), nodes=4, ppn=1, mpi=True)
            for _ in range(nodes * 8 // 4)
        ]
        report = sim.run_standalone(TaskList(specs), allocation_nodes=nodes)
        rows.append(
            {
                "spawn_ms": round(hydra.mpiexec_spawn * 1e3, 1),
                "util": round(report.utilization, 3),
            }
        )
        # Free this point's platform before the next one is built.
        del report
    check(
        rows[-1]["util"] < rows[0]["util"] - 0.05,
        "inflating the submit-host launch cost degrades small-task "
        "utilization (A5 — the Fig. 9 knee's mechanism)",
    )
    return rows


def main() -> None:
    print_rows("A1: staging", run_staging(), ["staging", "util", "mean_wireup_ms", "span_s"])
    print_rows("A2: scheduling policy", run_scheduling(), ["policy", "span_s", "util", "completed"])
    print_rows("A3: grouping", run_grouping(), ["grouping", "mean_diameter", "jobs"])
    print_rows("A4: spectrum allocator", run_spectrum(), ["spectrum", "t_first_worker", "t_full_capacity", "blocks"])
    print_rows("A5: dispatcher sensitivity", run_dispatcher_sensitivity(), ["spawn_ms", "util"])


if __name__ == "__main__":
    from .common import obs_main

    obs_main(main)
