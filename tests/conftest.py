"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.simkernel import Environment


@pytest.fixture
def env() -> Environment:
    """A fresh simulation environment."""
    return Environment()


def bytes_per_instance(make, count: int = 200) -> float:
    """Mean heap bytes ``tracemalloc`` charges each of ``count`` objects
    built by ``make(i)`` and kept alive together."""
    import gc
    import tracemalloc

    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [make(i) for i in range(count)]
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    del kept
    return (after - before) / count


def run_gen(env: Environment, gen):
    """Run a generator as a process to completion; return its value."""
    proc = env.process(gen)
    env.run(proc)
    return proc.value


@pytest.fixture
def small_platform():
    """A small generic platform for integration tests."""
    from repro.cluster.machine import generic_cluster
    from repro.cluster.platform import Platform

    return Platform(generic_cluster(nodes=4, cores_per_node=4))
