"""The four end-to-end workloads, each one closed-loop batch from one client.

Every workload drives an existing entry point of the simulator rather
than a stack of its own: the two streams run a task list through the
``jets`` facade (:class:`repro.core.jets.Simulation`), ``mpi_wireup``
is the Fig. 9 experiment, and ``chaos_campaign`` is ``jets chaos``'s
campaign loop.  Each takes ``(seed, size, workdir)``, runs one batch
and returns the job accounting, the volume counters and the simulated
``outputs`` the correctness gate compares.  A batch builds everything it
runs on, so it can be repeated in one process.  No workload starts a
thread.

Why these four:

* ``serial_stream`` — the paper's many-short-task regime: one-core
  0.2 s jobs on 8 nodes x 4 cores under the windowed streaming trace,
  no spill, no journal.  Dominated by the dispatcher/worker loop and the
  calendar-queue kernel; bypasses ``mpi``, ``core.journal``,
  ``core.recovery`` and ``analysis``.
* ``durable_stream`` — the same stream and seed with the run journal on
  and every trace record spilled to JSONL.  Durability cost is this
  minus ``serial_stream``; a codec or journal change that slows the
  in-RAM path shows on ``serial_stream`` instead.
* ``mpi_wireup`` — the Fig. 9 Blue Gene/P point: 512 nodes, 8- and
  64-process barrier/sleep/barrier tasks.  Hydra wire-up, the torus
  netsim and resources dominate; the dispatcher is lightly loaded, and
  the 512-node platform stresses the ``Fabric.hops`` memo and RSS.
* ``chaos_campaign`` — the CI chaos campaign's plans (default fault
  mix, base seed 0) with recovery and the trace and session oracles:
  many small scenarios on the ``SeededOrder`` heap engine, and the only
  workload that exercises ``core.recovery``, ``analysis`` and the legacy
  ordered engine.
"""

from __future__ import annotations

import hashlib
import os

#: Work units per batch: jobs for the streams, Fig. 9 tasks per node,
#: chaos plans.  Sized so one warm batch takes half a second to a second
#: (the Fig. 9 point can run no fewer tasks), letting a timed run take
#: the median of a few dozen batches.
SIZES = {
    "serial_stream": 2_000,
    "durable_stream": 2_000,
    "mpi_wireup": 1,
    "chaos_campaign": 20,
}

#: Smallest sizes that still exercise every layer a workload reaches: the
#: warm-up batch of every measured process, and the self-check's sizes.
TINY = {
    "serial_stream": 300,
    "durable_stream": 300,
    "mpi_wireup": 1,
    "chaos_campaign": 3,
}

#: StreamingTrace retention (records) for the two streams.
WINDOW = 8_192
#: Fig. 9 point: allocation size and MPI task sizes.
MPI_NODES = 512
MPI_TASK_SIZES = (8, 64)


def serial_stream(seed: int, size: int, workdir: str) -> dict:
    return _stream(seed, size, None)


def durable_stream(seed: int, size: int, workdir: str) -> dict:
    return _stream(seed, size, workdir)


def _stream(seed: int, jobs: int, workdir) -> dict:
    """A task list of one-core sleep jobs through ``Simulation``.

    With ``workdir`` the run journal and a full trace spill go there;
    their digests join the outputs and the files are removed.
    """
    from repro.apps.synthetic import SleepProgram
    from repro.bench.workloads import _collect
    from repro.cluster.machine import generic_cluster
    from repro.core.jets import Simulation
    from repro.core.tasklist import JobSpec, TaskList
    from repro.obs import session

    spill = journal = None
    if workdir is not None:
        from repro.core.journal import RunJournal

        spill = os.path.join(workdir, "stream.jsonl")
        journal = RunJournal(os.path.join(workdir, "stream.journal"))
    tasks = TaskList(
        [
            JobSpec(program=SleepProgram(0.2), nodes=1, mpi=False)
            for _ in range(jobs)
        ]
    )
    # chrome_out="" keeps a spill target from adding a Chrome export.
    with session(stream=True, window=WINDOW, trace_out=spill,
                 chrome_out="") as s:
        sim = Simulation(generic_cluster(nodes=8, cores_per_node=4),
                         seed=seed)
        report = sim.run_standalone(tasks, journal=journal)
    volume = _collect(s.runs)
    out = {
        "jobs": report.jobs_total,
        "ok": report.jobs_completed,
        "failed_ops": report.jobs_total - report.jobs_completed,
        "events": volume["events"],
        "records": volume["records"],
        "spill_bytes": 0,
        "journal_records": 0,
        "outputs": {
            "completed": report.jobs_completed,
            "failed": report.jobs_failed,
            "sim_s": volume["sim_s"],
            "util": report.utilization,
            "rate": report.task_rate,
            "records": volume["records"],
        },
    }
    if workdir is not None:
        out["spill_bytes"] = os.path.getsize(spill)
        # The perf trailer carries the kernel event count, which a
        # speed-only change may move; the records themselves may not.
        out["outputs"]["spill_sha256"] = _sha256(spill, skip=b'{"meta":')
        out["outputs"]["journal_sha256"] = _sha256(journal.path)
        with open(journal.path, "rb") as fh:
            out["journal_records"] = sum(1 for line in fh if line.strip())
        os.unlink(spill)
        os.unlink(journal.path)
    return out


def _sha256(path: str, skip: bytes = b"") -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for line in fh:
            if not (skip and line.startswith(skip)):
                digest.update(line)
    return digest.hexdigest()


def mpi_wireup(seed: int, size: int, workdir: str) -> dict:
    """The Fig. 9 512-node point with ``size`` tasks per node."""
    from repro.bench.workloads import _collect
    from repro.experiments import fig09_bgp
    from repro.obs import session

    with session() as s:
        rows = fig09_bgp.run(
            alloc_sizes=(MPI_NODES,),
            task_sizes=MPI_TASK_SIZES,
            duration=10.0,
            tasks_per_node=size,
            seed=seed,
        )
    volume = _collect(s.runs)
    # fig09_bgp.run submits max(2, alloc * tasks_per_node // nproc) tasks
    # per task size and reports how many completed.
    jobs = sum(max(2, MPI_NODES * size // n) for n in MPI_TASK_SIZES)
    ok = sum(row["jobs"] for row in rows)
    return {
        "jobs": jobs,
        "ok": ok,
        "failed_ops": jobs - ok,
        "events": volume["events"],
        "records": volume["records"],
        "spill_bytes": 0,
        "journal_records": 0,
        "outputs": {
            "rows": rows,
            "sim_s": volume["sim_s"],
            "records": volume["records"],
        },
    }


def chaos_campaign(seed: int, size: int, workdir: str) -> dict:
    """The first ``size`` plans of the CI chaos campaign (base seed 0).

    ``seed`` is not used: at other base seeds some plans crash the
    dispatcher (``RuntimeError: cannot place``, e.g. plan 147 of base
    seed 4), and a benchmark workload must not fail.  Base seed 0 is the
    campaign CI runs and requires to pass.  A job that exhausts its
    attempts under injected faults is the campaign's expected outcome,
    pinned by the gate; a job counts as a failed operation when its plan
    fails an oracle.
    """
    from repro.bench.workloads import _collect
    from repro.core.chaos import ChaosConfig, chaos_campaign as campaign
    from repro.obs import session

    volume = {"events": 0, "sim_s": 0.0, "records": 0}
    with session() as s:

        def fold(_result) -> None:
            # Count each plan's trace, then let it go: holding every
            # plan's in-RAM trace would grow RSS with the plan count.
            for key, value in _collect(s.runs).items():
                volume[key] += value
            s.runs.clear()

        report = campaign(ChaosConfig(plans=size, seed=0), fold)
    results = report.results
    jobs = sum(r.jobs_submitted for r in results)
    return {
        "jobs": jobs,
        "ok": sum(r.jobs_ok for r in results),
        "failed_ops": sum(r.jobs_submitted for r in results if not r.ok),
        "events": volume["events"],
        "records": volume["records"],
        "spill_bytes": 0,
        "journal_records": 0,
        "outputs": {
            "plans": len(results),
            "plans_ok": sum(1 for r in results if r.ok),
            "jobs_ok": sum(r.jobs_ok for r in results),
            "jobs_failed": sum(r.jobs_failed for r in results),
            "respawns": sum(r.respawns for r in results),
            "injected": report.kinds_exercised(),
            "wire_messages": sum(r.wire_count for r in results),
            "sim_s": round(volume["sim_s"], 6),
            "records": volume["records"],
        },
    }


WORKLOADS = {
    "serial_stream": serial_stream,
    "durable_stream": durable_stream,
    "mpi_wireup": mpi_wireup,
    "chaos_campaign": chaos_campaign,
}
