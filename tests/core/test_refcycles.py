"""Guard: simulator garbage dies by reference counting.

A reference cycle made per event, message or job leaves its objects to
the cycle collector, whose passes then scale with the job count (see
DESIGN.md §11).  With the collector disabled, everything a run leaves
for ``gc.collect()`` must be a fixed teardown cost, independent of how
many jobs ran.  A finished run frees itself: ``Environment.close()``
ends it, so nothing of its platform outlives the report.
"""

import gc
import weakref

from repro.apps.synthetic import SleepProgram
from repro.cluster.machine import generic_cluster
from repro.core.jets import Simulation
from repro.core.tasklist import JobSpec, TaskList


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
    from repro.experiments import fig09_bgp

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
