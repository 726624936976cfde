"""A fixed pure-Python loop that gauges the host's current speed.

The benchmark runs on shared hosts whose speed drifts by 10 to 20% over
minutes, and by more for seconds at a time, as neighbours load them.
Every measured process times this loop before each batch and once after
its last; a batch's rate is scaled by the mean of the two loop times
around it over the loop's time on a quiet host (:data:`QUIET_S`), and
set-up time by the first loop time (see ``run.py``).  The loop is the
benchmark's own code, so no change to the simulator moves it.

Four candidate loops were timed around every batch of 48 runs on a
2-vCPU Xeon VM under CPython 3.11: a heap-and-generator event loop with
slotted job objects, method calls on slotted objects, generator resumes,
and this integer loop.  Scaled by this one, the interquartile range of
ten runs' medians fell from 6 to 18% of the median to 3 to 6% on every
workload; the others over-corrected on some workload, because the
allocation-heavy loops slow down more than the simulator does when the
host is loaded.
"""

from __future__ import annotations

import time

#: Iterations per loop, and the loop's time in seconds on a quiet host:
#: about the 10th percentile of 692 timings on the VM above.
ITERATIONS = 1_000_000
QUIET_S = 0.1


def reference_loop(iterations: int = ITERATIONS) -> int:
    """Run the fixed loop; a checksum so the work cannot be skipped."""
    acc = 0
    for i in range(iterations):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return acc


def timed() -> float:
    """Seconds one :func:`reference_loop` takes now."""
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0
