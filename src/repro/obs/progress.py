"""Live progress: heartbeat records, follow-mode tailing, run snapshots.

Three pieces turn the streaming trace pipeline into a live-progress
channel:

* :class:`ProgressTracker` — a trace subscriber that folds the stream
  into bounded tallies (record/family counts, job done/failed, gauge
  levels) and periodically logs an ``obs.progress`` heartbeat record
  back onto the sink.  Heartbeat payloads are entirely
  seed-deterministic (sim time, kernel event counts — never wall
  clock), so traces with progress enabled still dump byte-identically
  across same-seed runs.
* :class:`LiveRunState` — the reader-side fold: collapse a (possibly
  still growing) JSONL stream into per-run progress summaries without
  retaining records.
* :func:`follow` / :func:`render_top` — ``jets report --follow`` tails
  a growing dump and prints a progress line per heartbeat (rates are
  computed on the *reader's* clock, never written anywhere);
  ``jets top TRACE`` renders a one-shot snapshot of the same fold.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import IO, Optional, Sequence

from ..analysis.schema import OBS_PROGRESS, record_problems
from ..simkernel import Trace, TraceRecord
from .metrics import Registry

__all__ = [
    "OBS_PROGRESS",
    "ProgressTracker",
    "RunProgress",
    "LiveRunState",
    "follow",
    "render_top",
    "top_main",
]


class ProgressTracker:
    """Fold the trace stream into live tallies; heartbeat periodically.

    Subscribes to ``sink`` on construction.  State is a handful of
    counters and one dict per category *family* (the prefix before the
    first dot), so memory stays bounded no matter how many records
    stream through.  Every ``every`` simulated seconds — checked as
    records arrive, so a silent simulation emits nothing — the tracker
    logs one ``obs.progress`` record carrying the tallies; readers
    tailing the spill file (:func:`follow`) turn successive heartbeats
    into wall-clock rates.
    """

    def __init__(
        self,
        sink: Trace,
        every: float = 1.0,
        registry: Optional[Registry] = None,
    ):
        if every <= 0:
            raise ValueError(f"heartbeat interval must be positive: {every}")
        self.sink = sink
        self.every = float(every)
        self.registry = registry
        #: How many heartbeats have been logged.
        self.emitted = 0
        self.records = 0
        self.jobs_done = 0
        self.jobs_failed = 0
        self.counts: dict[str, int] = {}
        self._next = self.every
        self._emitting = False
        sink.subscribe(self.feed)

    def feed(self, rec: TraceRecord) -> None:
        """Fold one record (subscriber entry point)."""
        self.records += 1
        cat = rec.category
        family = cat.split(".", 1)[0]
        self.counts[family] = self.counts.get(family, 0) + 1
        if cat == "job.done":
            self.jobs_done += 1
        elif cat == "job.failed":
            self.jobs_failed += 1
        # The heartbeat log() below re-enters feed() via the sink's
        # fan-out: tally it like any record, but never heartbeat the
        # heartbeat.
        if self._emitting or cat == OBS_PROGRESS:
            return
        if rec.time >= self._next:
            self._emit(rec.time)

    def _emit(self, now: float) -> None:
        while self._next <= now:
            self._next += self.every
        data: dict = {
            "events": self.sink.env.events_processed,
            "records": self.records,
            "jobs": {"done": self.jobs_done, "failed": self.jobs_failed},
            "counts": dict(sorted(self.counts.items())),
        }
        if self.registry is not None:
            gauges = self.registry.gauge_levels()
            if gauges:
                data["gauges"] = gauges
        self._emitting = True
        try:
            self.sink.log(OBS_PROGRESS, data)
        finally:
            self._emitting = False
        self.emitted += 1


@dataclass
class RunProgress:
    """Reader-side summary of one run's stream so far."""

    run: int
    records: int = 0
    t_first: Optional[float] = None
    t_last: Optional[float] = None
    counts: dict = field(default_factory=dict)
    jobs_done: int = 0
    jobs_failed: int = 0
    #: Payload of the latest ``obs.progress`` heartbeat, if any.
    heartbeat: Optional[dict] = None
    #: The ``{"meta": "perf"}`` trailer once seen — marks the run done.
    perf: Optional[dict] = None

    @property
    def complete(self) -> bool:
        return self.perf is not None

    def fold(self, rec: TraceRecord) -> None:
        self.records += 1
        if self.t_first is None:
            self.t_first = rec.time
        self.t_last = rec.time
        family = rec.category.split(".", 1)[0]
        self.counts[family] = self.counts.get(family, 0) + 1
        if rec.category == "job.done":
            self.jobs_done += 1
        elif rec.category == "job.failed":
            self.jobs_failed += 1
        elif rec.category == OBS_PROGRESS:
            self.heartbeat = rec.data

    def status_line(self) -> str:
        t = self.t_last if self.t_last is not None else 0.0
        state = "complete" if self.complete else "running"
        return (
            f"[run {self.run}] t={t:9.3f}s  records={self.records}  "
            f"jobs done={self.jobs_done} failed={self.jobs_failed}  "
            f"({state})"
        )


class LiveRunState:
    """Fold a multi-run JSONL stream into per-run progress summaries."""

    def __init__(self):
        self.runs: dict[int, RunProgress] = {}

    def run(self, run: int) -> RunProgress:
        rp = self.runs.get(run)
        if rp is None:
            rp = self.runs[run] = RunProgress(run)
        return rp

    def fold(self, run: int, rec: TraceRecord) -> None:
        self.run(run).fold(rec)

    def note_perf(self, run: int, perf: dict) -> None:
        self.run(run).perf = perf

    @property
    def complete(self) -> bool:
        """Every run seen so far has its perf trailer."""
        return bool(self.runs) and all(
            rp.complete for rp in self.runs.values()
        )


def follow(
    path: str,
    out: Optional[IO[str]] = None,
    poll: float = 0.25,
    idle_timeout: Optional[float] = 30.0,
) -> int:
    """Tail a (possibly growing) JSONL trace; print a line per heartbeat.

    Reads from the current end of data onward as the writer appends,
    printing one progress line per ``obs.progress`` heartbeat and one
    completion line per perf trailer; each poll picks the one reader up
    where it stopped, so an unfinished line waits for its newline.
    Returns 0 once every run seen has trailed off (perf trailer + quiet
    file), 1 if ``idle_timeout`` wall-seconds pass with no new data and
    no trailer (writer died or wrong file), 2 if the file can't be
    opened or holds a broken line.

    Rates shown are computed from the *reader's* clock between
    heartbeats; nothing wall-clock is ever written back to the trace.
    """
    from .export import iter_jsonl, note_unread

    stream = out if out is not None else sys.stdout
    state = LiveRunState()
    # Wall clock is the point of follow mode (reader-side rates and the
    # idle timeout); the simulation side stays clock-free.
    clock = time.monotonic  # repro: noqa[DT005]  follow mode measures the wall
    last_records = 0
    last_wall: Optional[float] = None
    try:
        fh = open(path, "rb")
    except OSError as exc:
        print(f"jets: cannot read {path}: {exc}", file=sys.stderr)
        return 2

    def on_perf(run: int, perf: dict) -> None:
        state.note_perf(run, perf)
        print(state.run(run).status_line(), file=stream)

    def handle(run: int, rec: TraceRecord) -> None:
        nonlocal last_records, last_wall, skipped
        if record_problems(rec.category, rec.data):
            skipped += 1
            return
        state.fold(run, rec)
        if rec.category != OBS_PROGRESS:
            return
        total = sum(rp.records for rp in state.runs.values())
        now = clock()
        rate = ""
        if last_wall is not None and now > last_wall:
            per_s = (total - last_records) / (now - last_wall)
            rate = f"  {per_s:,.0f} rec/s"
        last_records, last_wall = total, now
        rp = state.run(run)
        hb = rec.data
        jobs = hb.get("jobs", {})
        print(
            f"[run {run}] t={rec.time:9.3f}s  "
            f"records={hb.get('records', rp.records)}  "
            f"events={hb.get('events', 0)}  "
            f"jobs done={jobs.get('done', 0)} "
            f"failed={jobs.get('failed', 0)}{rate}",
            file=stream,
        )

    skipped = code = 0
    with fh:
        idle_since = clock()
        graced = False
        while True:
            start = fh.tell()
            try:
                for run, rec in iter_jsonl(fh, on_perf=on_perf):
                    handle(run, rec)
            except ValueError as exc:
                print(f"jets: bad trace file: {exc}", file=sys.stderr)
                code = 2
                break
            if fh.tell() != start:
                idle_since = clock()
                graced = False
                continue
            # At EOF.  Done when every run seen has its trailer *and* one
            # extra poll of grace passed quiet (a later run may follow).
            if state.complete:
                if graced:
                    break
                graced = True
            elif (
                idle_timeout is not None
                and clock() - idle_since > idle_timeout
            ):
                print(
                    f"jets: no data for {idle_timeout:.0f}s and no perf "
                    f"trailer; giving up",
                    file=sys.stderr,
                )
                code = 1
                break
            time.sleep(poll)  # repro: noqa[DT001]
    note_unread("jets", path, skipped=skipped)
    return code


def render_top(state: LiveRunState, title: str = "") -> str:
    """A ``top``-style text snapshot of every run's progress fold."""
    lines: list[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    if not state.runs:
        lines.append("(no trace records yet)")
        return "\n".join(lines)
    for run_id in sorted(state.runs):
        rp = state.runs[run_id]
        lines.append(rp.status_line())
        if rp.counts:
            fams = "  ".join(
                f"{name}={rp.counts[name]}" for name in sorted(rp.counts)
            )
            lines.append(f"  families: {fams}")
        hb = rp.heartbeat
        if hb:
            lines.append(
                f"  heartbeat: events={hb.get('events', 0)} "
                f"records={hb.get('records', 0)}"
            )
            gauges = hb.get("gauges")
            if gauges:
                lines.append(
                    "  gauges: "
                    + "  ".join(
                        f"{name}={value:g}"
                        for name, value in sorted(gauges.items())
                    )
                )
        if rp.perf:
            perf = "  ".join(
                f"{k}={rp.perf[k]}" for k in sorted(rp.perf)
            )
            lines.append(f"  perf: {perf}")
    return "\n".join(lines)


def top_main(argv: Optional[Sequence[str]] = None) -> int:
    """``jets top TRACE.jsonl`` — one-shot progress snapshot of a dump."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="jets top",
        description=(
            "Snapshot the live-progress fold of a (possibly still "
            "growing) JSONL trace dump."
        ),
    )
    parser.add_argument("tracefile", help="JSONL trace (may be growing)")
    args = parser.parse_args(argv)
    from .export import iter_jsonl, note_unread

    state = LiveRunState()
    skipped = 0
    try:
        with open(args.tracefile, "rb") as fh:
            for run, rec in iter_jsonl(fh, on_perf=state.note_perf):
                if record_problems(rec.category, rec.data):
                    skipped += 1
                else:
                    state.fold(run, rec)
            tail = fh.read()
    except OSError as exc:
        print(f"jets: cannot read {args.tracefile}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"jets: bad trace file: {exc}", file=sys.stderr)
        return 2
    note_unread("jets", args.tracefile, tail, skipped)
    print(render_top(state, title=args.tracefile))
    return 0
