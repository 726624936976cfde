"""The ``jets`` command-line tool (stand-alone form, paper Section 5.1).

Usage::

    jets [--machine surveyor|breadboard|eureka|generic] [--nodes N]
         [--slots S] [--policy fifo|priority|backfill]
         [--grouping fifo|topology] [--no-staging]
         [--faults INTERVAL] [--seed SEED]
         [--trace-out RUN.jsonl] [--chrome-trace RUN.trace.json]
         [--report] [--stream-trace] [--trace-window N]
         [--progress-every S] [--journal RUN.journal] TASKFILE
    jets resume [--until S] RUN.journal
    jets resume --verify [--jobs N] [--crash-points K] [--seed S]
    jets report [--follow] RUN.jsonl
    jets top RUN.jsonl
    jets lint [PATH ...]
    jets lint-trace RUN.jsonl
    jets sanitize [PATH ...] [--fixture] [--schedules N]
    jets hotpath [FUNC] [--hot-profile BENCH_profile.json]
    jets explore [--schedules N] [--seed S]
    jets chaos [--plans N] [--seed S]
    jets bench [--suite kernel|macro|all] [--quick] [--repeat N]
               [--against BASE_SRC] [--threshold PCT]

``TASKFILE`` uses the paper's input format, e.g.::

    MPI: 4 namd2.sh input-1.pdb output-1.log
    MPI: 8 mpi-bench 10.0
    SERIAL: sleep 1.0

The run executes on the selected *simulated* machine and prints the batch
report (completion counts, Eq. 1 utilization, task rate, wire-up times).
``--trace-out`` dumps the lifecycle trace as JSONL (and a Chrome
``trace_event`` file alongside, openable in Perfetto); ``--report``
prints the observability run summary; ``jets report`` re-renders that
summary from a saved JSONL dump.  ``jets lint`` runs the static
invariant checkers (:mod:`repro.analysis`) over Python sources and
``jets lint-trace`` validates a recorded run against the trace schema
registry and lifecycle state machines.  ``jets sanitize`` layers the
race/determinism sanitizer on top: the static HB/RS rules over the
sources plus a dynamic happens-before pass (vector clocks over the live
trace) with schedule-permutation confirmation of any race candidate
(:mod:`repro.analysis.hbmodel`).  ``jets hotpath`` dumps the statically
computed hot set (every function reachable from the kernel entry
points, optionally unioned with a ``jets bench --profile`` profile) or
explains one function's shortest entry→function call chain
(:mod:`repro.analysis.callgraph`).  ``jets explore`` runs bounded
schedule exploration: many event-order permutations (with injected
worker loss) of a small configuration, each re-validated against the
trace and wire-protocol checkers (:mod:`repro.analysis.explore`).
``jets chaos`` runs seeded multi-fault chaos plans (crashes, stragglers,
message drop/delay, partitions, staging faults) with the recovery
machinery enabled, held to the same validators plus exact job
accounting (:mod:`repro.core.chaos`).  ``jets bench`` runs the
performance workload suites and writes ``BENCH_<suite>.json``
(:mod:`repro.bench`); with ``--against`` it runs an A/B against a base
tree's ``src`` in the same session and gates on regression.
``--journal`` appends a crash-consistent write-ahead journal of the
run's durable state transitions, and ``jets resume`` restarts a
crashed run from one — skipping completed jobs, resubmitting in-flight
ones (:mod:`repro.core.resume`, DESIGN.md §15); ``jets resume
--verify`` runs the seeded crash-equivalence campaign.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from ..cluster.machine import breadboard, eureka, generic_cluster, surveyor
from ..obs.session import session as obs_scope, unwritable_reason
from .jets import FaultSpec, JetsConfig, Simulation, service_config_for
from .tasklist import TaskList, TaskListError

__all__ = ["main", "build_parser", "build_report_parser", "report_main"]

_MACHINES = {
    "surveyor": surveyor,
    "breadboard": breadboard,
    "eureka": eureka,
    "generic": generic_cluster,
}


def build_parser() -> argparse.ArgumentParser:
    """The jets CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="jets",
        description="Run a task list under (simulated) stand-alone JETS.",
    )
    parser.add_argument("taskfile", help="task list file (MPI:/SERIAL: lines)")
    parser.add_argument(
        "--machine",
        choices=sorted(_MACHINES),
        default="generic",
        help="machine preset (default: generic)",
    )
    parser.add_argument(
        "--nodes", type=int, default=None, help="allocation size in nodes"
    )
    parser.add_argument(
        "--ppn", type=int, default=1, help="MPI processes per node"
    )
    parser.add_argument(
        "--slots", type=int, default=None,
        help="serial-task slots per worker (default: node core count)",
    )
    parser.add_argument(
        "--policy", choices=("fifo", "priority", "backfill"), default="fifo"
    )
    parser.add_argument(
        "--grouping", choices=("fifo", "topology"), default="fifo"
    )
    parser.add_argument(
        "--no-staging", action="store_true",
        help="skip staging binaries to node-local storage",
    )
    parser.add_argument(
        "--faults", type=float, default=None, metavar="INTERVAL",
        help="kill one random pilot every INTERVAL seconds",
    )
    parser.add_argument(
        "--fault-mode", choices=("fixed", "exponential", "jittered"),
        default="fixed",
        help="fault inter-arrival law (default: fixed, the paper's cadence)",
    )
    parser.add_argument(
        "--fault-jitter", type=float, default=0.0,
        help="half-width of the jittered fault window, seconds",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--until", type=float, default=None,
        help="cap simulated time (seconds after allocation start)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="RUN.jsonl",
        help="dump the lifecycle trace as JSONL (a Chrome trace_event "
             "file is written alongside unless --chrome-trace is given)",
    )
    parser.add_argument(
        "--chrome-trace", default=None, metavar="RUN.trace.json",
        help="write a Chrome trace_event file (Perfetto/chrome://tracing)",
    )
    parser.add_argument(
        "--report", action="store_true",
        help="print the observability run summary (spans + metrics)",
    )
    parser.add_argument(
        "--stream-trace", action="store_true",
        help="bound the trace to --trace-window records: older records "
             "are spilled to --trace-out as the run executes (flat RSS "
             "at any event count) instead of being held in RAM",
    )
    parser.add_argument(
        "--trace-window", type=int, default=65536, metavar="N",
        help="--stream-trace retention window in records (default: 65536)",
    )
    parser.add_argument(
        "--journal", default=None, metavar="RUN.journal",
        help="append a crash-consistent write-ahead journal of durable "
             "state transitions; a crashed run restarts from it with "
             "'jets resume RUN.journal'",
    )
    parser.add_argument(
        "--progress-every", type=float, default=None, metavar="SECONDS",
        help="log an obs.progress heartbeat record every SECONDS of "
             "simulated time (tail it live with 'jets report --follow')",
    )
    return parser


def build_report_parser() -> argparse.ArgumentParser:
    """Parser for the ``jets report`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="jets report",
        description="Render a run summary from a saved JSONL trace.",
    )
    parser.add_argument(
        "tracefile",
        help="JSONL trace from --trace-out (or a streaming-sink spill)",
    )
    parser.add_argument(
        "--follow", action="store_true",
        help="tail a growing trace, printing a line per progress "
             "heartbeat; exits once every run's perf trailer has landed",
    )
    parser.add_argument(
        "--poll", type=float, default=0.25, metavar="SECONDS",
        help="--follow poll interval (default: 0.25)",
    )
    parser.add_argument(
        "--idle-timeout", type=float, default=30.0, metavar="SECONDS",
        help="--follow gives up after this long with no new data and "
             "no perf trailer (default: 30)",
    )
    return parser


def report_main(argv: Optional[Sequence[str]] = None) -> int:
    """``jets report RUN.jsonl`` — summarize a saved trace.

    The dump is folded one record at a time (span builder + perf
    trailer collection), so reports over spilled million-record traces
    reconstruct in flat memory.  Records the record judge rejects are
    skipped and counted on stderr.  ``--follow`` instead tails a growing
    dump live.
    """
    args = build_report_parser().parse_args(argv)
    if args.follow:
        from ..obs.progress import follow

        return follow(
            args.tracefile, poll=args.poll, idle_timeout=args.idle_timeout
        )
    from ..analysis.schema import record_problems
    from ..obs.export import iter_jsonl, note_unread
    from ..obs.report import render_report
    from ..obs.spans import SpanBuilder

    builders: dict[int, SpanBuilder] = {}
    perf: dict[int, dict] = {}
    skipped = 0
    try:
        with open(args.tracefile, "rb") as fh:
            for run_id, rec in iter_jsonl(fh, on_perf=perf.__setitem__):
                builder = builders.get(run_id)
                if builder is None:
                    builder = builders[run_id] = SpanBuilder()
                if record_problems(rec.category, rec.data):
                    skipped += 1
                else:
                    builder.fold(rec)
            tail = fh.read()
    except OSError as exc:
        print(f"jets: cannot read {args.tracefile}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"jets: bad trace file: {exc}", file=sys.stderr)
        return 2
    note_unread("jets", args.tracefile, tail, skipped)
    if not builders:
        print(f"jets: {args.tracefile} holds no trace records", file=sys.stderr)
        return 1
    for run_id in sorted(builders):
        print(
            render_report(
                builders[run_id].result(),
                title=f"run {run_id}",
                perf=perf.get(run_id),
            )
        )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "report":
        return report_main(list(argv[1:]))
    if argv and argv[0] == "top":
        from ..obs.progress import top_main

        return top_main(list(argv[1:]))
    if argv and argv[0] == "lint":
        from ..analysis.cli import lint_main

        return lint_main(list(argv[1:]))
    if argv and argv[0] == "lint-trace":
        from ..analysis.cli import lint_trace_main

        return lint_trace_main(list(argv[1:]))
    if argv and argv[0] == "explore":
        from ..analysis.explore import explore_main

        return explore_main(list(argv[1:]))
    if argv and argv[0] == "sanitize":
        from ..analysis.cli import sanitize_main

        return sanitize_main(list(argv[1:]))
    if argv and argv[0] == "hotpath":
        from ..analysis.cli import hotpath_main

        return hotpath_main(list(argv[1:]))
    if argv and argv[0] == "chaos":
        from .chaos import chaos_main

        return chaos_main(list(argv[1:]))
    if argv and argv[0] == "resume":
        from .resume import resume_main

        return resume_main(list(argv[1:]))
    if argv and argv[0] == "bench":
        from ..bench.cli import bench_main

        return bench_main(list(argv[1:]))
    parser = build_parser()
    args = parser.parse_args(argv)
    # Out of range, each ends in a traceback, in a run that never
    # returns (no slot takes a serial job, and the heartbeats keep the
    # run alive) or in a feature silently off.
    for flag in ("--nodes", "--slots", "--faults", "--until",
                 "--progress-every", "--trace-window"):
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and not value > 0:
            parser.error(f"{flag} must be positive")
    for flag in ("--seed", "--fault-jitter"):
        if not getattr(args, flag[2:].replace("-", "_")) >= 0:
            parser.error(f"{flag} must not be negative")
    if (
        args.fault_mode == "jittered"
        and args.faults is not None
        and not args.fault_jitter < args.faults
    ):
        parser.error("--fault-jitter must be below --faults")
    for path in (args.trace_out, args.chrome_trace, args.journal):
        reason = unwritable_reason(path)
        if reason is not None:
            print(f"jets: cannot write {path}: {reason}", file=sys.stderr)
            return 2
    try:
        with open(args.taskfile) as fh:
            tasks = TaskList.from_text(fh.read(), ppn=args.ppn)
    except OSError as exc:
        print(f"jets: cannot read {args.taskfile}: {exc}", file=sys.stderr)
        return 2
    except TaskListError as exc:
        print(f"jets: bad task list: {exc}", file=sys.stderr)
        return 2

    machine = _MACHINES[args.machine]()
    if args.nodes is not None:
        machine = machine.scaled(args.nodes)
    service = service_config_for(
        machine, policy=args.policy, grouping=args.grouping
    )
    config = JetsConfig(
        service=service,
        worker_slots=args.slots,
        stage_binaries=not args.no_staging,
    )
    sim = Simulation(machine, config, seed=args.seed)
    faults = (
        FaultSpec(
            interval=args.faults,
            mode=args.fault_mode,
            jitter=args.fault_jitter,
        )
        if args.faults
        else None
    )
    journal = None
    if args.journal is not None:
        from .journal import RunJournal

        journal = RunJournal(args.journal)
    with obs_scope(
        trace_out=args.trace_out,
        chrome_out=args.chrome_trace,
        report=args.report,
        stream=args.stream_trace,
        window=args.trace_window,
        progress_every=args.progress_every,
    ):
        report = sim.run_standalone(
            tasks, faults=faults, until=args.until, journal=journal
        )

    print(report.summary())
    if report.jobs_failed:
        print(f"jets: {report.jobs_failed} jobs failed permanently:",
              file=sys.stderr)
        for c in report.completed:
            if not c.ok:
                print(f"  {c.job.job_id}: {c.error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
