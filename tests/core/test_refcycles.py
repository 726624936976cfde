"""Guard: per-job simulator garbage dies by reference counting.

A reference cycle made per event, message or job leaves its objects to
the cycle collector, whose passes then scale with the job count (see
DESIGN.md §11).  With the collector disabled, everything a run leaves
for ``gc.collect()`` must be a fixed teardown cost, independent of how
many jobs ran.
"""

import gc

from repro.apps.synthetic import SleepProgram
from repro.cluster.machine import generic_cluster
from repro.core.jets import Simulation
from repro.core.tasklist import JobSpec, TaskList


def cyclic_garbage(jobs: int) -> int:
    """Objects only the cycle collector frees after one standalone run."""
    tasks = TaskList(
        [
            JobSpec(program=SleepProgram(0.2), nodes=1, mpi=False)
            for _ in range(jobs)
        ]
    )
    gc.collect()
    gc.disable()
    try:
        Simulation(
            generic_cluster(nodes=4, cores_per_node=2), seed=0
        ).run_standalone(tasks)
        return gc.collect()
    finally:
        gc.enable()


def test_cyclic_garbage_does_not_grow_with_job_count():
    cyclic_garbage(20)  # fill lazy import-time caches first
    small = cyclic_garbage(50)
    large = cyclic_garbage(400)
    # One leaked cycle per job would add 350+ objects here.
    assert large - small < 35, (small, large)
