"""Teardown is invisible: ``Environment.close()`` changes no run output.

Every run ends with ``close()``, which closes the generators still parked
in it (so their pending ``finally:`` blocks run, outside simulated
time).  These tests run the same scenario with the real ``close()`` and
with a no-op one and require the same trace records, subscriber feeds,
journal bytes and gauges, and that nothing respawns while the
environment closes.
"""

import itertools

import pytest

from repro.core import tasklist, worker
from repro.mpi import hydra
from repro.obs.session import ObsSession
from repro.simkernel import core


class FeedSession(ObsSession):
    """An obs session that also records every run's subscriber feed."""

    def __init__(self):
        super().__init__()
        self.feeds: list[list] = []

    def attach(self, trace, label="", registry=None):
        super().attach(trace, label=label, registry=registry)
        feed: list = []
        trace.subscribe(feed.append)
        self.feeds.append(feed)


def observed(s: FeedSession) -> tuple:
    records = [
        [(r.time, r.category, r.data) for r in trace.records]
        for _label, trace, _reg in s.runs
    ]
    feeds = [[(r.time, r.category, r.data) for r in feed] for feed in s.feeds]
    return records, feeds


@pytest.fixture
def teardown(monkeypatch):
    """Wrap the real ``close()``: note what was parked, catch any spawn."""
    log = {"parked": [], "spawned": [], "changed": []}
    real_close = core.Environment.close
    real_init = core.Process.__init__
    closing: list = []

    def init(self, env, generator, name=""):
        if closing:
            log["spawned"].append(name)
        real_init(self, env, generator, name)

    def close(self):
        log["parked"].extend(p.name for p in self._live)
        before = (self.now, self.events_processed)
        closing.append(self)
        try:
            real_close(self)
        finally:
            closing.pop()
        if (self.now, self.events_processed) != before:
            log["changed"].append(before)

    monkeypatch.setattr(core.Process, "__init__", init)
    monkeypatch.setattr(core.Environment, "close", close)
    return log


def no_close(monkeypatch):
    monkeypatch.setattr(core.Environment, "close", lambda self: None)


def fresh_ids(monkeypatch):
    """Restart the process-wide job, worker and mpiexec id sequences."""
    for module, name in (
        (tasklist, "_spec_seq"),
        (worker, "_worker_seq"),
        (hydra, "_job_seq"),
    ):
        monkeypatch.setattr(module, name, itertools.count())


def capped_fault_run(journal_path, until):
    from repro.cluster.machine import generic_cluster
    from repro.core.jets import FaultSpec, Simulation
    from repro.core.journal import RunJournal
    from repro.core.tasklist import TaskList

    tasks = TaskList.from_lines(
        ["MPI: 4 mpi-bench 2.0", "SERIAL: sleep 0.5", "MPI: 2 mpi-bench 1.0"]
        * 8
    )
    sim = Simulation(generic_cluster(nodes=8, cores_per_node=4), seed=3)
    with FeedSession() as s:
        report = sim.run_standalone(
            tasks,
            faults=FaultSpec(interval=2.0),
            until=until,
            journal=RunJournal(str(journal_path)),
        )
    # The gauges feed Fig. 13's load level and the Chrome counter tracks.
    gauges = (
        report.platform.busy_cores.series(),
        report.platform.metrics.gauge_series(),
    )
    with open(journal_path, "rb") as fh:
        return observed(s), fh.read(), gauges


def chaos_plan():
    from repro.core.chaos import ChaosConfig, run_chaos_plan

    # Plan 2 is still being killed and respawned when this watchdog fires.
    with FeedSession() as s:
        result = run_chaos_plan(ChaosConfig(plans=3, until=5.0), 2)
    summary = (
        result.ok,
        result.problems,
        result.respawns,
        result.wire_count,
        result.injected,
        result.jobs_ok,
        result.jobs_failed,
    )
    return observed(s), summary


@pytest.mark.parametrize("until", [0.03, 5.0])
def test_capped_fault_run_tears_down_invisibly(
    tmp_path, monkeypatch, teardown, until
):
    fresh_ids(monkeypatch)
    closed = capped_fault_run(tmp_path / "closed.journal", until)
    assert any(name.startswith("worker") for name in teardown["parked"])
    assert any(name.startswith("mpiexec-") for name in teardown["parked"])
    assert teardown["spawned"] == [] and teardown["changed"] == []
    records = closed[0][0][0]
    seen = {(category, data.get("job")) for _t, category, data in records}
    if until < 1:
        # The cap lands while MPI jobs wire up: launched, never committed.
        assert any(
            category == "proxy.launched" and ("job.pmi_wireup", job) not in seen
            for category, job in seen
        )
    else:
        assert ("worker.killed", None) in seen  # the injector has struck
    no_close(monkeypatch)
    fresh_ids(monkeypatch)
    kept = capped_fault_run(tmp_path / "kept.journal", until)
    assert closed[0] == kept[0]  # trace records and subscriber feeds
    assert closed[1] == kept[1]  # journal bytes
    assert closed[2] == kept[2]  # busy-core and registry gauges


def test_chaos_plan_tears_down_invisibly(monkeypatch, teardown):
    fresh_ids(monkeypatch)
    closed = chaos_plan()
    assert closed[1][2] > 0  # the keeper respawned pilots during the run
    # Pilots, the keeper's sweep and pending respawns are all parked.
    for prefix in ("worker", "keeper-sweep", "keeper-respawn"):
        assert any(name.startswith(prefix) for name in teardown["parked"])
    assert teardown["spawned"] == [] and teardown["changed"] == []
    no_close(monkeypatch)
    fresh_ids(monkeypatch)
    assert chaos_plan() == closed
