"""Span-driven timelines must match the seed's raw-trace algorithm."""

import pytest

from repro.core.jets import FaultSpec, JetsConfig, Simulation
from repro.core.tasklist import TaskList
from repro.cluster.machine import generic_cluster
from repro.metrics.timeline import (
    available_workers_series,
    running_jobs_series,
    step_series,
)
from repro.obs.export import iter_jsonl, to_jsonl
from repro.obs.spans import build_spans
from repro.simkernel import Trace


def reference_running_jobs(trace: Trace):
    """The pre-span implementation: scan job.done/job.failed stamps."""
    starts, ends = [], []
    for rec in trace.records:
        if rec.category in ("job.done", "job.failed"):
            data = rec.data or {}
            s, e = data.get("app_start"), data.get("app_end")
            if s is not None and e is not None:
                starts.append(s)
                ends.append(e)
    return step_series(starts, ends)


def reference_available_workers(trace: Trace, initial=0):
    """The pre-span implementation: scan worker.start/worker.stop."""
    series, level = [], initial
    events = []
    for rec in trace.records:
        if rec.category == "worker.start":
            events.append((rec.time, 1))
        elif rec.category == "worker.stop":
            events.append((rec.time, -1))
    events.sort()
    for t, d in events:
        level += d
        if series and series[-1][0] == t:
            series[-1] = (t, level)
        else:
            series.append((t, level))
    return series


@pytest.fixture(params=["clean", "faulty"])
def trace(request):
    machine = generic_cluster(nodes=4, cores_per_node=2)
    tasks = TaskList.from_text(
        "\n".join(["MPI: 2 mpi-bench 0.5"] * 4 + ["SERIAL: sleep 0.3"] * 2)
    )
    faults = FaultSpec(interval=2.0) if request.param == "faulty" else None
    report = Simulation(machine, JetsConfig(), seed=3).run_standalone(
        tasks, faults=faults, until=600.0
    )
    return report.platform.trace


class TestTimelineIdentity:
    def test_running_jobs_matches_reference(self, trace):
        assert running_jobs_series(trace) == reference_running_jobs(trace)

    def test_available_workers_matches_reference(self, trace):
        assert available_workers_series(trace, initial=0) == (
            reference_available_workers(trace, initial=0)
        )

    def test_series_accept_prebuilt_spans_and_records(self, trace, tmp_path):
        spans = build_spans(trace)
        assert running_jobs_series(spans) == running_jobs_series(trace)
        path = str(tmp_path / "t.jsonl")
        to_jsonl(trace, path)
        records = [rec for _run, rec in iter_jsonl(path)]
        assert running_jobs_series(records) == (
            running_jobs_series(trace)
        )
