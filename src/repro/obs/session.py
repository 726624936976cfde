"""Ambient observability sessions: capture every platform a run creates.

Experiment harnesses construct :class:`~repro.cluster.platform.Platform`
instances deep inside their sweeps, so exporters can't be threaded
through every call site.  Instead, an :class:`ObsSession` is installed as
an ambient context (``with obs.session(trace_out=...)``): every platform
built while it is active attaches its trace and metrics registry.  Each
run's JSONL records and Chrome events are written as the run ends, and
on exit the session completes both files and/or prints per-run summary
reports.

Sessions nest (a stack); platforms attach to the innermost active one.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from typing import IO, TYPE_CHECKING, Optional

from ..simkernel import Trace
from .metrics import Registry

if TYPE_CHECKING:
    from .export import ChromeWriter
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
    """Collects (label, trace, registry) per run and exports on exit.

    Every run takes one path: its trace spills to ``trace_out`` when the
    run is over (or as it runs, when bounded), and the Chrome trace and
    reports are rendered from span folds subscribed to each trace.  A
    run's Chrome events go to a temporary sibling of ``chrome_out`` when
    the run ends, and its fold and registry are dropped unless a report
    needs them; the file is renamed onto ``chrome_out`` at :meth:`flush`,
    so a session that raises leaves ``chrome_out`` as it was.
    """

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
        #: trace that holds at most ``window`` records, spilling older
        #: ones to ``trace_out`` as the run executes — RSS stays flat at
        #: any event count.  The outputs are the same either way.
        self.stream = stream
        self.window = window
        self.progress_every = progress_every
        self.runs: list[tuple[str, Trace, Optional[Registry]]] = []
        #: The open run's span fold, or None when no Chrome trace or
        #: report will read it.
        self._fold: Optional[SpanBuilder] = None
        #: Every run's span fold (same index as :attr:`runs`), kept for
        #: the reports only.
        self._span_builders: list[SpanBuilder] = []
        #: The Chrome document written so far, or None before a run ends.
        self._chrome: Optional[ChromeWriter] = None
        self._trackers: list[ProgressTracker] = []
        #: Wall-clock stamp per attached run (for live report rendering
        #: only — never exported, so trace dumps stay deterministic).
        self._attach_walls: list[float] = []

    def make_trace(self, env) -> Trace:
        """Trace factory for platforms built under this session.

        The trace is bounded by ``window`` in streaming mode, spills to
        ``trace_out`` and is tagged with its run's index.  The first run
        truncates the spill file; later runs append after the previous
        trace is closed at attach time.
        """
        return Trace(
            env,
            window=self.window if self.stream else None,
            spill=self.trace_out,
            run=len(self.runs),
            truncate=not self.runs,
        )

    def attach(
        self,
        trace: Trace,
        label: str = "",
        registry: Optional[Registry] = None,
    ) -> None:
        """Register one run's trace (called by Platform.__init__)."""
        # Runs execute sequentially: the previous run is over, so close
        # its trace (its records, then its trailer) *before* the new one
        # logs anything.
        self._close_last()
        trace.label = label
        if self.chrome_out or self.report:
            # Spans are only folded when an output will read them: span
            # state is bounded by entity count (jobs/workers), not
            # record count, but a pure dump session shouldn't pay even
            # that.
            from .spans import SpanBuilder

            self._fold = SpanBuilder()
            trace.subscribe(self._fold.fold)
            if self.report:
                self._span_builders.append(self._fold)
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

    def _close_last(self) -> None:
        """End the most recently attached run (a no-op if ended): close
        its trace, write its Chrome events, then drop its registry
        unless a report will read it."""
        if not self.runs:
            return
        label, trace, registry = self.runs[-1]
        try:
            # Deterministic perf trailer (no wall-clock): same-seed
            # dumps must stay byte-identical.
            trace.close(perf=trace.perf())
        except OSError as exc:
            # Don't lose the report (or raise after a long sweep) over
            # an unwritable dump path.
            print(f"obs: cannot write {self.trace_out}: {exc}",
                  file=sys.stderr)
        fold, self._fold = self._fold, None
        if fold is not None:
            # A closed trace feeds no subscriber: the fold is complete.
            trace.unsubscribe(fold.fold)
        if fold is not None and self.chrome_out:
            try:
                if self._chrome is None:
                    from .export import ChromeWriter

                    self._chrome = ChromeWriter(
                        open(self.chrome_out + ".tmp", "w")
                    )
                self._chrome.add_run(
                    fold.result(), len(self.runs) - 1, label, registry
                )
            except OSError as exc:
                self._chrome_failed(exc)
        if not self.report:
            # Its gauge samples are most of what a finished run keeps,
            # and the reports are their only later reader.
            self.runs[-1] = (label, trace, None)
            if self._trackers:
                self._trackers[-1].registry = None

    def _chrome_failed(self, exc: OSError) -> None:
        """Say once that the Chrome trace can't be written, and stop."""
        print(f"obs: cannot write {self.chrome_out}: {exc}", file=sys.stderr)
        self._discard_chrome()
        self.chrome_out = None

    def _discard_chrome(self) -> None:
        """Delete the unfinished Chrome document, if one is open."""
        writer, self._chrome = self._chrome, None
        if writer is not None:
            with contextlib.suppress(OSError):
                writer.fh.close()
            with contextlib.suppress(OSError):
                os.unlink(writer.fh.name)

    def __enter__(self) -> "ObsSession":
        _STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _STACK.remove(self)
        if exc_type is None:
            self.flush()
        else:
            self._discard_chrome()

    def flush(self) -> None:
        """End the last run, complete the Chrome trace and rename it onto
        ``chrome_out``, then render the reports from the span folds."""
        if not self.runs:
            return
        try:
            self._close_last()
            if self._chrome is not None:
                writer = self._chrome
                writer.finish()
                writer.fh.close()
                os.replace(writer.fh.name, self.chrome_out)
                self._chrome = None
        except OSError as exc:
            self._chrome_failed(exc)
        finally:
            self._discard_chrome()  # what an error left unfinished
        if self.report:
            from .report import render_report

            stream = self.report_stream or sys.stdout
            flush_wall = time.perf_counter()  # repro: noqa[DT001]
            for i, (label, trace, registry) in enumerate(self.runs):
                title = label or f"run {i}"
                perf = trace.perf()
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
                        self._span_builders[i].result(),
                        registry=registry,
                        title=title,
                        perf=perf,
                    ),
                    file=stream,
                )


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
