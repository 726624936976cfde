"""Guard: simulator garbage dies by reference counting.

A reference cycle made per event, message or job leaves its objects to
the cycle collector, whose passes then scale with the job count (see
DESIGN.md §11).  With the collector disabled, everything a run leaves
for ``gc.collect()`` must be a fixed teardown cost, independent of how
many jobs ran.  A finished run frees itself: ``Environment.close()``
ends it, so nothing of its platform outlives the report, and a sweep
drops each point's report before it builds the next platform.
"""

import gc
import weakref

import pytest

from repro.apps.synthetic import BarrierSleepBarrier, SleepProgram
from repro.baselines.ips import run_ips_batch
from repro.baselines.shellscript import run_shellscript_batch
from repro.cluster.machine import breadboard, generic_cluster
from repro.cluster.platform import Platform
from repro.core.jets import Simulation
from repro.core.tasklist import JobSpec, TaskList
from repro.experiments import (
    ablations,
    fig06_sequential,
    fig07_cluster,
    fig08_pingpong,
    fig09_bgp,
    fig12_namd_util,
    fig15_swift_synthetic,
    fig18_rem,
    mpiio,
)


def collector_off(run) -> int:
    """Objects only the cycle collector frees after ``run()``."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


def serial_batch(jobs: int):
    tasks = TaskList(
        [
            JobSpec(program=SleepProgram(0.2), nodes=1, mpi=False)
            for _ in range(jobs)
        ]
    )
    return Simulation(
        generic_cluster(nodes=4, cores_per_node=2), seed=0
    ).run_standalone(tasks)


def mpi_batch(tasks_per_node: int) -> None:
    fig09_bgp.run(
        alloc_sizes=(16,),
        task_sizes=(4,),
        duration=1.0,
        tasks_per_node=tasks_per_node,
    )


def chaos_plans(plans: int) -> None:
    from repro.core.chaos import ChaosConfig, run_chaos_plan

    config = ChaosConfig(plans=plans)
    for index in range(plans):
        run_chaos_plan(config, index)


def test_cyclic_garbage_does_not_grow_with_job_count():
    collector_off(lambda: serial_batch(20))  # fill lazy import-time caches
    small = collector_off(lambda: serial_batch(50))
    large = collector_off(lambda: serial_batch(400))
    # One leaked cycle per job would add 350+ objects here.
    assert large - small < 35, (small, large)


def test_mpi_batch_leaves_no_cyclic_garbage():
    collector_off(lambda: mpi_batch(1))  # warm
    small = collector_off(lambda: mpi_batch(1))
    large = collector_off(lambda: mpi_batch(4))
    # A platform left to the collector is hundreds of objects; one
    # cycle per MPI task, proxy or connection would scale with the batch.
    assert small < 100 and large < 100, (small, large)
    assert abs(large - small) < 20, (small, large)


def test_platform_dies_with_its_report_while_session_keeps_trace():
    from repro.obs import session

    serial_batch(5)  # warm
    gc.collect()
    gc.disable()
    try:
        with session() as s:
            report = serial_batch(20)
            platform = weakref.ref(report.platform)
            trace = report.platform.trace
            del report
            assert platform() is None
            assert s.runs[-1][1] is trace and len(trace) > 0
    finally:
        gc.enable()


def test_chaos_garbage_does_not_grow_with_plan_count():
    collector_off(lambda: chaos_plans(1))  # warm
    small = collector_off(lambda: chaos_plans(2))
    large = collector_off(lambda: chaos_plans(6))
    # A platform left per plan would add thousands of objects here.
    assert large - small < 50, (small, large)


def mpi_jobs(count: int) -> list[JobSpec]:
    return [
        JobSpec(program=BarrierSleepBarrier(1.0), nodes=2, ppn=1, mpi=True)
        for _ in range(count)
    ]


#: Every sweep driver, at sizes small enough for a unit test.
SWEEPS = {
    "fig06": lambda: fig06_sequential.run(node_sizes=(4, 8), tasks_per_node=1),
    "fig07": lambda: fig07_cluster.run(alloc_sizes=(8,), jobs_per_node=2),
    "fig09": lambda: fig09_bgp.run(
        alloc_sizes=(16,), task_sizes=(4, 8), duration=1.0, tasks_per_node=1
    ),
    "fig12": lambda: fig12_namd_util.run(
        alloc_sizes=(8, 16), executions_per_node=1
    ),
    "A1": lambda: ablations.run_staging(nodes=8, jobs=16),
    "A2": lambda: ablations.run_scheduling(nodes=8),
    "A3": lambda: ablations.run_grouping(nodes=27, jobs=12),
    "A4": lambda: ablations.run_spectrum(workers=8),
    "A5": lambda: ablations.run_dispatcher_sensitivity(
        nodes=32, spawn_factors=(1.0, 16.0)
    ),
    "fig08": lambda: fig08_pingpong.run(sizes=[1, 1024], reps=2),
    "fig15": lambda: fig15_swift_synthetic.run(
        alloc_sizes=(8,), nodes_per_job=(1, 2), ppns=(1,), jobs_per_node=1
    ),
    "fig18": lambda: (
        fig18_rem.run_serial(alloc_sizes=(4,), n_exchanges=1),
        fig18_rem.run_mpi(alloc_sizes=(8,), n_exchanges=1),
    ),
    "mpiio": lambda: mpiio.run(alphas=(0.0,), n=4, rounds=1),
    "ips": lambda: [
        run_ips_batch(breadboard(4), mpi_jobs(2)) for _ in range(2)
    ],
    "shellscript": lambda: [
        run_shellscript_batch(breadboard(4), mpi_jobs(2)) for _ in range(2)
    ],
}


@pytest.mark.parametrize("name", list(SWEEPS))
def test_sweep_holds_one_platform_at_a_time(name, monkeypatch):
    """Each sweep point frees its platform before the next is built."""
    built: list[weakref.ref] = []
    alive_at_build: list[int] = []
    init = Platform.__init__

    def tracked_init(self, *args, **kwargs):
        alive_at_build.append(sum(1 for ref in built if ref() is not None))
        init(self, *args, **kwargs)
        built.append(weakref.ref(self))

    monkeypatch.setattr(Platform, "__init__", tracked_init)
    gc.collect()
    gc.disable()
    try:
        SWEEPS[name]()
    finally:
        gc.enable()
    assert len(built) >= 2
    assert alive_at_build == [0] * len(built)
