"""Named benchmark workloads for ``jets bench``.

Two suites:

* ``kernel`` — microbenchmarks that isolate one hot path each: raw event
  churn (allocate/trigger/resume), timeout storms with heavy same-time
  ties (the batched-pop case), interrupt storms (bridge events), trace
  category queries (the report/lint/protocol read path), aggregator
  dispatch scans, and gauge integrals.
* ``macro`` — reduced cuts of the paper experiments end to end: the
  Fig. 6 sequential launch-rate sweep, the Fig. 9 512-node MPI
  utilization point, a chaos-plan mix, and a slice of the schedule
  explorer.

Each workload is a plain function ``fn(quick: bool) -> dict``.  The dict
may carry ``events`` (kernel events processed) and ``sim_s`` (simulated
seconds) — the harness lifts those into first-class fields — plus any
deterministic parameters/checksums, which land in ``meta`` and double as
a cross-run identity check (the comparison mode refuses to compare runs
whose meta differs, and identical seeds must reproduce identical
checksums).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = ["Workload", "SUITES"]


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload."""

    name: str
    fn: Callable[[bool], dict]
    doc: str = ""


# -- kernel microbenchmarks ---------------------------------------------------


def _event_churn(quick: bool) -> dict:
    """Raw event allocate/trigger/resume plus the processed-event paths."""
    from ..simkernel import Environment

    procs = 100 if quick else 400
    rounds = 30 if quick else 120
    env = Environment()
    done = env.event()
    done.succeed()

    def worker(env):
        for _ in range(rounds):
            ev = env.event()
            ev.succeed()
            yield ev
            # Already-processed target: exercises the no-reschedule
            # resume path (after the first pop of `done`).
            yield done
            # Late listener on a processed event: the bridge/relay path.
            done._add_callback(_sink)

    for _ in range(procs):
        env.process(worker(env))
    env.run()
    return {
        "events": env.events_processed,
        "sim_s": env.now,
        "procs": procs,
        "rounds": rounds,
    }


def _sink(_event) -> None:
    pass


def _timeout_storm(quick: bool) -> dict:
    """Heap churn with heavy same-time ties (quantized delays)."""
    from ..simkernel import Environment

    procs = 150 if quick else 600
    rounds = 40 if quick else 150
    env = Environment()

    def worker(env, i):
        for _ in range(rounds):
            # Quantized delays put many events at identical timestamps.
            yield env.timeout((i % 5) * 0.5)

    for i in range(procs):
        env.process(worker(env, i))
    env.run()
    return {
        "events": env.events_processed,
        "sim_s": env.now,
        "procs": procs,
        "rounds": rounds,
    }


def _resume_chain(quick: bool) -> dict:
    """Deep succeed→resume ladders: the zero-alloc inline chain path.

    Every yield is an event that succeeded immediately with no other
    listener — the exact shape the scheduler's succeed→resume fast path
    collapses into inline generator stepping.  On kernels without that
    path each rung is a full schedule/pop round-trip, so this workload
    isolates the chain win (``event_churn`` mixes in processed-target
    and late-listener traffic).
    """
    from ..simkernel import Environment

    procs = 50 if quick else 200
    depth = 200 if quick else 800
    env = Environment()

    def ladder(env):
        acc = 0
        for i in range(depth):
            ev = env.event()
            ev.succeed(i)
            acc += yield ev
        return acc

    ladders = [env.process(ladder(env)) for _ in range(procs)]
    env.run()
    return {
        "events": env.events_processed,
        "sim_s": env.now,
        "procs": procs,
        "depth": depth,
        "checksum": sum(p.value for p in ladders),
    }


def _far_future(quick: bool) -> dict:
    """Calendar-queue overflow stress: irregular far-future timestamps.

    Nearly every timeout lands at a unique future time, so each insert
    opens a fresh bucket in the sorted overflow structure and each pop
    retires one — the worst case for bucketed time (no same-time or
    fixed-delay reuse to amortize), and pure heap churn on kernels with
    a flat event heap.
    """
    from ..simkernel import Environment

    procs = 100 if quick else 400
    rounds = 30 if quick else 100
    env = Environment()

    def worker(env, i):
        for r in range(rounds):
            # Knuth-style multiplicative hashing spreads the delays over
            # ~100k distinct values, so bucket reuse is rare.
            yield env.timeout(
                1.0 + ((i * 2654435761 + r * 40503) % 100003) / 97.0
            )

    for i in range(procs):
        env.process(worker(env, i))
    env.run()
    return {
        "events": env.events_processed,
        "sim_s": round(env.now, 6),
        "procs": procs,
        "rounds": rounds,
    }


def _interrupt_storm(quick: bool) -> dict:
    """Interrupt delivery: bridge allocation + throw into generators."""
    from ..simkernel import Environment, Interrupt

    procs = 60 if quick else 200
    hits = 20 if quick else 60
    env = Environment()

    def sleeper(env):
        for _ in range(hits):
            try:
                yield env.timeout(1000.0)
            except Interrupt:
                pass

    def driver(env, targets):
        for _ in range(hits):
            for t in targets:
                yield env.timeout(0.001)
                if t.is_alive:
                    t.interrupt("storm")

    targets = [env.process(sleeper(env)) for _ in range(procs)]
    env.process(driver(env, targets))
    env.run()
    return {
        "events": env.events_processed,
        "sim_s": round(env.now, 6),
        "procs": procs,
        "hits": hits,
    }


def _trace_query(quick: bool) -> dict:
    """Category select/times queries — the report/lint/protocol read path."""
    from ..simkernel import Environment
    from ..simkernel.monitor import Trace

    families = 6
    cats = 24
    per_cat = 100 if quick else 400
    queries = 20 if quick else 100
    env = Environment()
    trace = Trace(env)
    names = [f"fam{i % families}.cat{i}" for i in range(cats)]
    for r in range(per_cat):
        for name in names:
            trace.log(name, {"i": r})  # repro: noqa[TR004]
    checksum = 0
    for _ in range(queries):
        for name in names:
            checksum += len(trace.select(name))
            checksum += len(trace.times(name))
        for fam in range(families):
            checksum += len(trace.select(f"fam{fam}.", prefix=True))
    return {
        "records": len(trace),
        "queries": queries,
        "checksum": checksum,
    }


def _aggregator_churn(quick: bool) -> dict:
    """Dispatch-decision scans: can_place/place/release cycles."""
    from ..core.aggregator import Aggregator, WorkerView
    from ..core.tasklist import JobSpec

    workers = 150 if quick else 500
    cycles = 2000 if quick else 12000
    agg = Aggregator()
    for wid in range(workers):
        agg.add_worker(
            WorkerView(worker_id=wid, node=None, socket=None, slots=2)
        )
        agg.mark_ready(wid, now=0.0, all_slots=True)
    serial = JobSpec(program=None, nodes=1, ppn=1, mpi=False, job_id="bench-s")
    mpi = JobSpec(program=None, nodes=4, ppn=1, mpi=True, job_id="bench-m")
    placed = 0
    for i in range(cycles):
        job = mpi if i % 4 == 0 else serial
        if agg.can_place(job):
            views = agg.place(job)
            placed += len(views)
            for v in views:
                agg.release(job.job_id, v.worker_id)
                agg.mark_ready(v.worker_id, now=float(i), all_slots=job.mpi)
    return {
        "workers": workers,
        "cycles": cycles,
        "placed": placed,
    }


def _gauge_integral(quick: bool) -> dict:
    """Windowed integrals over a long step series."""
    from ..simkernel import Environment
    from ..simkernel.monitor import Gauge

    samples = 1000 if quick else 4000
    integrals = 600 if quick else 3000
    env = Environment()
    gauge = Gauge(env, initial=0.0)

    def driver(env):
        for i in range(samples):
            yield env.timeout(1.0)
            gauge.set(float(i % 32))

    env.process(driver(env))
    env.run()
    checksum = 0.0
    for q in range(integrals):
        start = float(q % (samples - 16))
        checksum += gauge.integral(start, start + 12.0)
    return {
        "samples": samples,
        "integrals": integrals,
        "checksum": round(checksum, 3),
    }


# -- macro workloads ----------------------------------------------------------


def _collect(runs) -> dict:
    """Sum kernel/trace volume across an obs session's captured runs."""
    events = sum(t.env.events_processed for _label, t, _reg in runs)
    sim_s = sum(t.env.now for _label, t, _reg in runs)
    # len(trace) counts every record logged, evicted ones included.
    records = sum(len(t) for _label, t, _reg in runs)
    return {"events": events, "sim_s": round(sim_s, 6), "records": records}


def _fig06_rate(quick: bool) -> dict:
    """Fig. 6 sequential launch-rate sweep (reduced allocation)."""
    from ..experiments import fig06_sequential
    from ..obs import session

    nodes = (64,) if quick else (256,)
    tpn = 4 if quick else 8
    with session() as s:
        rows = fig06_sequential.run(
            node_sizes=nodes, tasks_per_node=tpn, seed=0
        )
    out = _collect(s.runs)
    out.update(
        nodes=list(nodes),
        tasks_per_node=tpn,
        rate=rows[-1]["rate"],
        completed=rows[-1]["completed"],
    )
    return out


def _fig06_journal(quick: bool) -> dict:
    """``fig06_rate`` with the write-ahead run journal enabled.

    Same workload parameters as ``fig06_rate``, so the wall-time delta
    between the two in one bench invocation prices journaling overhead
    (CI's chaos-resume job gates it below 5%).  The journal goes to a
    fresh temp file each call and is deleted afterwards; only its
    (deterministic) record count lands in the result meta.
    """
    import os
    import tempfile

    from ..experiments import fig06_sequential
    from ..obs import session

    nodes = (64,) if quick else (256,)
    tpn = 4 if quick else 8
    fd, path = tempfile.mkstemp(prefix="jets-bench-", suffix=".journal")
    os.close(fd)
    try:
        with session() as s:
            rows = fig06_sequential.run(
                node_sizes=nodes, tasks_per_node=tpn, seed=0,
                journal_path=path,
            )
        with open(path, "rb") as fh:
            journal_records = sum(1 for line in fh if line.strip())
    finally:
        os.unlink(path)
    out = _collect(s.runs)
    out.update(
        nodes=list(nodes),
        tasks_per_node=tpn,
        rate=rows[-1]["rate"],
        completed=rows[-1]["completed"],
        journal_records=journal_records,
    )
    return out


def _fig09_mpi512(quick: bool) -> dict:
    """Fig. 9 MPI point: 512 nodes, 8-process tasks (128 nodes in quick)."""
    from ..experiments import fig09_bgp
    from ..obs import session

    alloc = 128 if quick else 512
    tpn = 2 if quick else 4
    with session() as s:
        rows = fig09_bgp.run(
            alloc_sizes=(alloc,),
            task_sizes=(8,),
            duration=10.0,
            tasks_per_node=tpn,
            seed=0,
        )
    out = _collect(s.runs)
    out.update(
        alloc=alloc,
        tasks_per_node=tpn,
        util=rows[0]["util"],
        jobs=rows[0]["jobs"],
    )
    return out


def _chaos_mix(quick: bool) -> dict:
    """A slice of the chaos campaign: all-kind fault plans with recovery."""
    from ..core.chaos import ChaosConfig, chaos_campaign
    from ..obs import session

    plans = 5 if quick else 20
    with session() as s:
        results = chaos_campaign(ChaosConfig(plans=plans)).results
    out = _collect(s.runs)
    out.update(
        plans=plans,
        ok=sum(1 for r in results if r.ok),
        respawns=sum(r.respawns for r in results),
    )
    return out


def _explore_slice(quick: bool) -> dict:
    """A slice of the schedule explorer: permuted event orders + oracles."""
    from ..analysis.explore import ExploreConfig, explore
    from ..obs import session

    schedules = 10 if quick else 40
    with session() as s:
        results = explore(ExploreConfig(schedules=schedules)).results
    out = _collect(s.runs)
    out.update(
        schedules=schedules,
        drained=sum(1 for r in results if r.drained),
    )
    return out


#: jobs_1m stream sizes (module-level so tests can shrink the quick run).
_JOBS_1M_QUICK = 8_000
_JOBS_1M_FULL = 40_000


def _jobs_1m(quick: bool) -> dict:
    """Million-kernel-event job stream under a bounded trace.

    The memory-budget gate for the streaming observability pipeline: a
    long serial-job stream is wave-fed to the dispatcher (each wave
    submitted once the previous drained, the steady-state many-task
    pattern) while the platform :class:`~repro.simkernel.Trace` holds a
    window of the newest records.  Trace memory stays flat no matter
    how many records flow; an unbounded run of the same stream grows
    linearly with record count.  Set ``JETS_BENCH_SPILL`` to a
    path to spill the full record stream there (the CI artifact);
    without it evicted records are dropped after subscribers fold them.
    """
    import os

    from ..apps.synthetic import SleepProgram
    from ..cluster.machine import generic_cluster
    from ..cluster.platform import Platform
    from ..core.dispatcher import JetsDispatcher, JetsServiceConfig
    from ..core.tasklist import JobSpec
    from ..core.worker import WorkerAgent
    from ..obs import session

    jobs_n = _JOBS_1M_QUICK if quick else _JOBS_1M_FULL
    batch = 2_000
    window = 8_192
    spill = os.environ.get("JETS_BENCH_SPILL") or None  # repro: noqa[DT005]  bench knob, not sim state
    # chrome_out="" suppresses the derived Chrome path a spill target
    # would otherwise trigger: this workload measures the pure pipeline.
    with session(stream=True, window=window, trace_out=spill,
                 chrome_out="") as s:
        platform = Platform(generic_cluster(nodes=8, cores_per_node=4))
        dispatcher = JetsDispatcher(
            platform, JetsServiceConfig(), expected_workers=8
        )
        dispatcher.start()
        agents = [
            WorkerAgent(platform, node, dispatcher.endpoint)
            for node in platform.nodes
        ]
        for agent in agents:
            agent.start()
        env = platform.env
        done = env.event()

        def feeder(env):
            sent = 0
            while sent < jobs_n:
                n = min(batch, jobs_n - sent)
                dispatcher.submit_many(
                    [
                        JobSpec(program=SleepProgram(0.2), nodes=1, mpi=False)
                        for _ in range(n)
                    ]
                )
                sent += n
                while dispatcher.jobs_finished < sent:
                    yield env.timeout(0.5)
            done.succeed()

        env.process(feeder(env), name="bench-feeder")
        env.run(done)
        sink = platform.trace
        retained = sink.retained
    out = _collect(s.runs)
    out.update(
        jobs=jobs_n,
        batch=batch,
        window=window,
        retained=retained,
        finished=dispatcher.jobs_finished,
    )
    return out


SUITES: dict[str, list[Workload]] = {
    "kernel": [
        Workload("event_churn", _event_churn, "event alloc/trigger/resume"),
        Workload("timeout_storm", _timeout_storm, "heap churn, same-time ties"),
        Workload(
            "resume_chain", _resume_chain, "deep succeed→resume ladders"
        ),
        Workload(
            "far_future", _far_future, "irregular far-future overflow stress"
        ),
        Workload("interrupt_storm", _interrupt_storm, "interrupt delivery"),
        Workload("trace_query", _trace_query, "trace select/times queries"),
        Workload("aggregator_churn", _aggregator_churn, "dispatch scans"),
        Workload("gauge_integral", _gauge_integral, "windowed gauge integrals"),
    ],
    "macro": [
        Workload("fig06_rate", _fig06_rate, "Fig. 6 sequential launch rate"),
        Workload(
            "fig06_journal", _fig06_journal,
            "fig06_rate twin with the run journal on (overhead gate)",
        ),
        Workload("fig09_mpi512", _fig09_mpi512, "Fig. 9 512-node MPI point"),
        Workload("chaos_mix", _chaos_mix, "chaos plans with recovery"),
        Workload("explore_slice", _explore_slice, "schedule-explorer slice"),
        Workload(
            "jobs_1m", _jobs_1m, "million-event stream, bounded trace"
        ),
    ],
}
