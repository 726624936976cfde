"""Ambient observability sessions: capture every platform a run creates.

Experiment harnesses construct :class:`~repro.cluster.platform.Platform`
instances deep inside their sweeps, so exporters can't be threaded
through every call site.  Instead, an :class:`ObsSession` is installed as
an ambient context (``with obs.session(trace_out=...)``): every platform
built while it is active attaches its trace and metrics registry, and on
exit the session writes the JSONL dump, the Chrome trace, and/or prints
per-run summary reports.

Sessions nest (a stack); platforms attach to the innermost active one.
"""

from __future__ import annotations

import os
import sys
import time
from typing import IO, TYPE_CHECKING, Optional

from ..simkernel import StreamingTrace, Trace, TraceSink
from .metrics import Registry

if TYPE_CHECKING:
    from .progress import ProgressTracker
    from .spans import SpanBuilder

__all__ = ["ObsSession", "session", "active", "unwritable_reason"]

_STACK: list["ObsSession"] = []


def active() -> Optional["ObsSession"]:
    """The innermost active session, or None."""
    return _STACK[-1] if _STACK else None


def session(
    trace_out: Optional[str] = None,
    chrome_out: Optional[str] = None,
    report: bool = False,
    report_stream: Optional[IO[str]] = None,
    stream: bool = False,
    window: int = 65536,
    progress_every: Optional[float] = None,
) -> "ObsSession":
    """Create a session context (see :class:`ObsSession`)."""
    return ObsSession(
        trace_out=trace_out,
        chrome_out=chrome_out,
        report=report,
        report_stream=report_stream,
        stream=stream,
        window=window,
        progress_every=progress_every,
    )


class ObsSession:
    """Collects (label, trace, registry) per run and exports on exit."""

    def __init__(
        self,
        trace_out: Optional[str] = None,
        chrome_out: Optional[str] = None,
        report: bool = False,
        report_stream: Optional[IO[str]] = None,
        stream: bool = False,
        window: int = 65536,
        progress_every: Optional[float] = None,
    ):
        self.trace_out = trace_out
        # Acceptance path: --trace-out run.jsonl also yields a Chrome
        # trace next to it unless an explicit path was given.
        if chrome_out is None and trace_out is not None:
            chrome_out = derive_chrome_path(trace_out)
        self.chrome_out = chrome_out
        self.report = report
        self.report_stream = report_stream
        #: Streaming mode: platforms built under this session get a
        #: windowed :class:`~repro.simkernel.StreamingTrace` that spills
        #: to ``trace_out`` as the run executes, and every downstream
        #: consumer (spans for Chrome/report, progress heartbeats) folds
        #: the stream incrementally — RSS stays flat at any event count.
        self.stream = stream
        self.window = window
        self.progress_every = progress_every
        self.runs: list[tuple[str, TraceSink, Optional[Registry]]] = []
        #: Streaming mode only: one span fold per attached run (same
        #: index as :attr:`runs`), built as records flow.
        self._span_builders: list[SpanBuilder] = []
        self._trackers: list[ProgressTracker] = []
        #: Wall-clock stamp per attached run (for live report rendering
        #: only — never exported, so trace dumps stay deterministic).
        self._attach_walls: list[float] = []

    def make_trace(self, env) -> Optional[TraceSink]:
        """Trace factory for platforms built under this session.

        Returns a streaming sink in streaming mode (run-tagged; the
        first run truncates the spill file, later runs append after the
        previous sink is closed at attach time), or None to let the
        platform build the default in-RAM :class:`Trace`.
        """
        if not self.stream:
            return None
        return StreamingTrace(
            env,
            window=self.window,
            spill=self.trace_out,
            run=len(self.runs),
            truncate=not self.runs,
        )

    def attach(
        self,
        trace: TraceSink,
        label: str = "",
        registry: Optional[Registry] = None,
    ) -> None:
        """Register one run's trace (called by Platform.__init__)."""
        if isinstance(trace, StreamingTrace):
            # Runs execute sequentially: the previous run is over, so
            # drain its window and write its trailer *before* the new
            # sink appends anything — the spill file keeps the exact
            # record/trailer interleaving of an in-RAM dump.
            self._close_open_sink()
            trace.label = label
            if self.chrome_out or self.report:
                # Spans are only folded when an output will read them:
                # span state is bounded by entity count (jobs/workers),
                # not record count, but a pure spill session shouldn't
                # pay even that.
                from .spans import SpanBuilder

                builder = SpanBuilder()
                trace.subscribe(builder.fold)
                self._span_builders.append(builder)
            else:
                self._span_builders.append(None)
        elif self.stream:
            # An in-RAM trace attached under a streaming session (e.g. a
            # hand-built platform); keep the fold list index-aligned.
            self._span_builders.append(None)
        if self.progress_every:
            from .progress import ProgressTracker

            self._trackers.append(
                ProgressTracker(
                    trace, every=self.progress_every, registry=registry
                )
            )
        self.runs.append((label, trace, registry))
        # Sessions measure wall time by design; sim code stays clock-free.
        self._attach_walls.append(time.perf_counter())  # repro: noqa[DT001]

    def _close_open_sink(self) -> None:
        """Close the most recently attached streaming sink, if open."""
        if not self.runs:
            return
        _label, trace, _reg = self.runs[-1]
        if isinstance(trace, StreamingTrace) and not trace.closed:
            trace.close(perf=trace.perf())

    def __enter__(self) -> "ObsSession":
        _STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _STACK.remove(self)
        if exc_type is None:
            self.flush()

    def flush(self) -> None:
        """Write every configured output for the captured runs."""
        if not self.runs:
            return
        if self.stream:
            self._flush_streaming()
            return
        if self.trace_out:
            from .export import to_jsonl

            try:
                with open(self.trace_out, "w") as fh:
                    for i, (label, trace, _reg) in enumerate(self.runs):
                        to_jsonl(
                            trace,
                            fh,
                            run=i,
                            label=label,
                            # Deterministic perf trailer (no wall-clock):
                            # same-seed dumps must stay byte-identical.
                            perf={
                                "events": trace.env.events_processed,
                                "records": len(trace.records),
                                "sim_s": trace.env.now,
                            },
                        )
            except OSError as exc:
                # Don't lose the report (or raise after a long sweep)
                # over an unwritable dump path.
                print(f"obs: cannot write {self.trace_out}: {exc}",
                      file=sys.stderr)
        if self.chrome_out:
            from .export import to_chrome_trace

            try:
                to_chrome_trace(
                    [
                        (label, trace, registry)
                        for label, trace, registry in self.runs
                    ],
                    self.chrome_out,
                )
            except OSError as exc:
                print(f"obs: cannot write {self.chrome_out}: {exc}",
                      file=sys.stderr)
        if self.report:
            from .report import render_report

            stream = self.report_stream or sys.stdout
            flush_wall = time.perf_counter()  # repro: noqa[DT001]
            for i, (label, trace, registry) in enumerate(self.runs):
                title = label or f"run {i}"
                perf = {
                    "events": trace.env.events_processed,
                    "records": len(trace.records),
                    "sim_s": trace.env.now,
                }
                # Runs execute sequentially, so a run's wall window ends
                # where the next platform is built (or at flush).
                if i < len(self._attach_walls):
                    end = (
                        self._attach_walls[i + 1]
                        if i + 1 < len(self._attach_walls)
                        else flush_wall
                    )
                    perf["wall_s"] = end - self._attach_walls[i]
                print(
                    render_report(
                        trace, registry=registry, title=title, perf=perf
                    ),
                    file=stream,
                )

    def _flush_streaming(self) -> None:
        """Streaming-mode flush: records already spilled as runs ran.

        Closes the last sink (drain + trailer), then renders the Chrome
        trace and reports from the incrementally-folded spans — the
        full record stream is never rematerialized.
        """
        self._close_open_sink()
        if not (self.chrome_out or self.report):
            return
        from .spans import build_spans

        def spans_for(i: int, trace: TraceSink):
            builder = (
                self._span_builders[i]
                if i < len(self._span_builders)
                else None
            )
            if builder is not None:
                return builder.result()
            return build_spans(trace)

        if self.chrome_out:
            from .export import to_chrome_trace

            try:
                to_chrome_trace(
                    [
                        (label, spans_for(i, trace), registry)
                        for i, (label, trace, registry) in enumerate(
                            self.runs
                        )
                    ],
                    self.chrome_out,
                )
            except OSError as exc:
                print(f"obs: cannot write {self.chrome_out}: {exc}",
                      file=sys.stderr)
        if self.report:
            from .report import render_report

            stream = self.report_stream or sys.stdout
            flush_wall = time.perf_counter()  # repro: noqa[DT001]
            for i, (label, trace, registry) in enumerate(self.runs):
                title = label or f"run {i}"
                perf = _sink_perf(trace)
                if i < len(self._attach_walls):
                    end = (
                        self._attach_walls[i + 1]
                        if i + 1 < len(self._attach_walls)
                        else flush_wall
                    )
                    perf["wall_s"] = end - self._attach_walls[i]
                print(
                    render_report(
                        spans_for(i, trace),
                        registry=registry,
                        title=title,
                        perf=perf,
                    ),
                    file=stream,
                )


def _sink_perf(trace: TraceSink) -> dict:
    """Deterministic perf payload for any sink kind."""
    if isinstance(trace, StreamingTrace):
        return trace.perf()
    return {
        "events": trace.env.events_processed,
        "records": len(trace.records),
        "sim_s": trace.env.now,
    }


def unwritable_reason(path: Optional[str]) -> Optional[str]:
    """Why ``path`` can't be written, or None if it looks writable.

    CLIs call this up front so a bad ``--trace-out`` fails before the
    simulation runs, not at flush time.
    """
    if not path:
        return None
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        return f"directory {directory} does not exist"
    if not os.access(directory, os.W_OK):
        return f"directory {directory} is not writable"
    return None


def derive_chrome_path(trace_out: str) -> str:
    """``run.jsonl`` → ``run.trace.json`` (sibling Chrome trace path)."""
    for suffix in (".jsonl", ".json"):
        if trace_out.endswith(suffix):
            return trace_out[: -len(suffix)] + ".trace.json"
    return trace_out + ".trace.json"
