"""Trace exporters: JSONL dump/reload and Chrome ``trace_event`` format.

* :func:`to_jsonl` / :func:`iter_jsonl` — a lossless line-per-record
  dump of the raw trace, the archival format the ``jets report``
  subcommand reads back.
* :func:`to_chrome_trace` — the Chrome/Perfetto ``trace_event`` JSON
  format: job attempts, their per-proxy children, and worker busy/idle
  timelines as complete events, openable in https://ui.perfetto.dev or
  ``chrome://tracing``.  :class:`ChromeWriter` writes it one run at a
  time, so a session's export holds one run's events in RAM.
* :class:`CanonicalDigest` — a streaming *outcome* digest that ignores
  the order of records within one simulated timestamp, so two legal
  schedules of the same run compare equal exactly when they produced the
  same observable behaviour (the race-confirmation comparator).
"""

from __future__ import annotations

import hashlib
import json
import sys
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import IO, Iterable, Iterator, Optional, Union

from ..analysis.schema import INT, NUMBER
from ..simkernel import TraceRecord
from ..simkernel.monitor import record_encoder, sanitize, trailer_line
from .spans import RunSpans, build_spans

__all__ = [
    "to_jsonl",
    "iter_jsonl",
    "line_error",
    "note_unread",
    "to_chrome_trace",
    "ChromeWriter",
    "chrome_events",
    "counter_events",
    "counter_series",
    "sanitize",
    "CanonicalDigest",
]


class CanonicalDigest:
    """Streaming outcome digest, insensitive to same-timestamp order.

    A raw byte digest of the trace distinguishes every permutation of a
    same-time event batch, which is useless for race confirmation: any
    two explored schedules would look "different".  This digest instead
    *sorts the encoded record lines within each simulated timestamp*
    before hashing, while staying order-sensitive across timestamps.
    Two runs then digest equal iff they logged the same set of records
    at every instant — i.e. the schedules were observably equivalent —
    and digest differently exactly when a reordering changed an outcome
    (a value, a state transition, a record present in one run only).

    Subscribe :meth:`feed` to a :class:`~repro.simkernel.Trace`; memory
    is bounded by the largest same-timestamp batch.
    Call :meth:`hexdigest` once, after the run.
    """

    def __init__(self) -> None:
        self._sha = hashlib.sha256()
        self._encode = record_encoder()
        self._batch_time: Optional[float] = None
        self._batch: list[bytes] = []
        self.records = 0

    def feed(self, rec: TraceRecord) -> None:
        if rec.time != self._batch_time:
            self._flush()
            self._batch_time = rec.time
        self._batch.append(
            self._encode(rec.time, rec.category, rec.data).encode()
        )
        self.records += 1

    def _flush(self) -> None:
        for line in sorted(self._batch):
            self._sha.update(line)
        self._batch.clear()

    def hexdigest(self) -> str:
        """Digest of everything fed so far (flushes the open batch)."""
        self._flush()
        return self._sha.hexdigest()

#: trace_event process ids per entity family (offset per run in
#: multi-run exports so Perfetto shows each run as its own process group).
_PID_JOBS = 1
_PID_WORKERS = 2
_PID_PROXIES = 3
_PID_COUNTERS = 4
_RUN_STRIDE = 10


def to_jsonl(
    source: Iterable[TraceRecord],
    out: Union[str, IO[str]],
    run: Optional[int] = None,
    label: str = "",
    append: bool = False,
    perf: Optional[dict] = None,
) -> int:
    """Write trace records (a trace that kept every record, or any
    record iterable) as JSON lines; returns the record count.

    ``run``/``label`` tag every line so multi-run sessions (one line of
    an experiment sweep per run) stay separable on reload.  ``perf``
    (kernel events processed, record count, simulated seconds — all
    seed-deterministic, never wall-clock, so same-seed dumps stay
    byte-identical) is appended as one ``{"meta": "perf", ...}`` trailer
    line that record readers skip and :func:`iter_jsonl` hands to its
    ``on_perf``.
    """
    close = False
    if isinstance(out, str):
        fh = open(out, "a" if append else "w")
        close = True
    else:
        fh = out
    encode = record_encoder(run, label)
    n = 0
    try:
        for rec in source:
            fh.write(encode(rec.time, rec.category, rec.data))
            n += 1
        if perf is not None:
            fh.write(trailer_line(perf, run))
    finally:
        if close:
            fh.close()
    return n


#: The ``{"meta": "perf"}`` trailer values ``jets report`` formats.
_PERF_KINDS = dict(events=INT, records=INT, sim_s=NUMBER, wall_s=NUMBER)
_FLOAT_MAX = sys.float_info.max
_decode = json.JSONDecoder().decode


def line_error(fh, problem: str) -> str:
    """``file:line: problem`` for the line a stream has just read; only
    an error numbers the line, by counting newlines from the start."""
    end = fh.tell()
    fh.seek(0)
    head = fh.read(end)
    fh.seek(end)
    line = head.count(b"\n" if isinstance(head, bytes) else "\n")
    return f"{getattr(fh, 'name', '<stream>')}:{line}: {problem}"


def iter_jsonl(
    source: Union[str, IO],
    run: Optional[int] = None,
    on_perf=None,
) -> Iterator[tuple[int, TraceRecord]]:
    """Stream a JSONL dump as ``(run, record)`` pairs, one line in RAM.

    The one JSONL line parser, so every command agrees on what a line
    is.  ``source`` is a path (read in binary) or a binary or in-memory
    stream.  A record line is a JSON object with a finite numeric
    ``t``, a string ``cat`` and, if tagged, an int ``run`` >= 0 (else
    run 0); ``run`` filters to one tag.  A ``{"meta": "perf"}`` trailer
    carries the same tag and int ``events``/``records`` and numeric
    ``sim_s``/``wall_s`` where present; ``on_perf(run, perf_dict)`` gets
    each.  Other meta lines and blank lines are skipped.  Bytes after
    the last newline are a torn tail, a write not yet finished: they are
    never parsed, and the reader stops with the stream at their start,
    so its owner can read them or pick the reader up again later.  Any
    other line raises :class:`ValueError` naming the file and the line
    (a crash leaves none, since every flush writes whole lines).
    """
    fh = open(source, "rb") if isinstance(source, str) else source
    try:
        for raw in fh:
            if raw[-1:] not in (b"\n", "\n"):
                fh.seek(fh.tell() - len(raw))
                return
            if not raw.strip():
                continue
            try:
                obj = _decode(raw.decode() if type(raw) is bytes else raw)
            except ValueError as exc:
                raise ValueError(line_error(fh, f"not JSON ({exc})")) from None
            if type(obj) is not dict:
                raise ValueError(line_error(fh, "not a JSON object"))
            tag = obj.get("run", 0)
            if type(tag) is not int or tag < 0:
                raise ValueError(line_error(fh, '"run" is not an int >= 0'))
            if "meta" in obj:
                if obj["meta"] == "perf":
                    perf = {
                        k: v for k, v in obj.items() if k not in ("meta", "run")
                    }
                    for key, kind in _PERF_KINDS.items():
                        if key in perf and not kind.admits(perf[key]):
                            raise ValueError(line_error(
                                fh, f"perf {key!r} is not {kind.name}"
                            ))
                    if on_perf is not None:
                        on_perf(tag, perf)
                continue
            t, cat = obj.get("t"), obj.get("cat")
            if (
                type(t) not in (int, float)
                or not abs(t) <= _FLOAT_MAX  # finite
                or type(cat) is not str
            ):
                raise ValueError(line_error(
                    fh, 'not a trace record (it needs a finite numeric "t" '
                    'and a string "cat")'
                ))
            if run is not None and tag != run:
                continue
            yield tag, TraceRecord(
                time=float(t), category=cat, data=obj.get("data")
            )
    finally:
        if fh is not source:
            fh.close()


def note_unread(prog: str, path: str, tail=b"", skipped: int = 0) -> None:
    """Say on stderr what a command read but did not use: a torn ``tail``
    and the ``skipped`` records the record judge rejected."""
    if tail:
        print(f"{prog}: {path}: ignored {len(tail)} bytes after the last "
              f"newline (an unfinished record)", file=sys.stderr)
    if skipped:
        print(f"{prog}: {path}: skipped {skipped} malformed record(s); "
              f"'jets lint-trace {path}' lists them", file=sys.stderr)


def _us(t: float) -> float:
    """Sim seconds → trace_event microseconds."""
    return t * 1e6


def _complete(name, pid, tid, t0, t1, args=None) -> dict:
    ev = {
        "name": name,
        "ph": "X",
        "pid": pid,
        "tid": tid,
        "ts": _us(t0),
        "dur": max(0.0, _us(t1) - _us(t0)),
        "cat": "jets",
    }
    if args:
        ev["args"] = args
    return ev


def _meta(name, pid, args, tid=None) -> dict:
    ev = {"name": name, "ph": "M", "pid": pid, "args": args}
    if tid is not None:
        ev["tid"] = tid
    return ev


def chrome_events(
    spans: RunSpans, run: int = 0, label: str = ""
) -> list[dict]:
    """trace_event dicts for one run's spans (pids offset by run)."""
    base = run * _RUN_STRIDE
    pid_jobs = base + _PID_JOBS
    pid_workers = base + _PID_WORKERS
    pid_proxies = base + _PID_PROXIES
    tag = f" [{label}]" if label else (f" [run {run}]" if run else "")
    events: list[dict] = [
        _meta("process_name", pid_jobs, {"name": f"jobs{tag}"}),
        _meta("process_name", pid_workers, {"name": f"workers{tag}"}),
    ]
    run_end = spans.t_last or 0.0

    any_proxies = False
    for tid, job in enumerate(spans.jobs.values()):
        events.append(
            _meta("thread_name", pid_jobs, {"name": job.job_id}, tid=tid)
        )
        for attempt in job.attempts:
            trs = [
                tr for tr in attempt.transitions
                if tr.state not in ("done", "failed", "resubmitted")
            ]
            end = attempt.t_end if attempt.t_end is not None else run_end
            for i, tr in enumerate(trs):
                t1 = trs[i + 1].time if i + 1 < len(trs) else end
                events.append(
                    _complete(
                        tr.state, pid_jobs, tid, tr.time, t1,
                        args={
                            "job": job.job_id,
                            "attempt": attempt.index,
                            "outcome": attempt.outcome or "open",
                        },
                    )
                )
            for proxy in attempt.proxies:
                any_proxies = True
                t0 = proxy.t_registered if proxy.t_registered is not None else proxy.t_launched
                t1 = proxy.t_exited if proxy.t_exited is not None else end
                if t0 is None:
                    continue
                events.append(
                    _complete(
                        f"{job.job_id} proxy{proxy.proxy_id}",
                        pid_proxies,
                        tid,
                        t0,
                        t1,
                        args={
                            "job": job.job_id,
                            "attempt": attempt.index,
                            "proxy": proxy.proxy_id,
                            "node": proxy.node,
                            "status": proxy.status,
                        },
                    )
                )
    if any_proxies:
        events.append(
            _meta("process_name", pid_proxies, {"name": f"proxies{tag}"})
        )

    for worker in spans.workers.values():
        tid = worker.worker_id
        events.append(
            _meta(
                "thread_name", pid_workers,
                {"name": f"worker{worker.worker_id}"}, tid=tid,
            )
        )
        for t0, t1, state in worker.state_segments(until=run_end):
            events.append(
                _complete(
                    state, pid_workers, tid, t0, t1,
                    args={"worker": worker.worker_id, "node": worker.node},
                )
            )
    return events


def counter_series(
    source=None, registry=None
) -> dict[str, list[tuple[float, float]]]:
    """Collect ``name -> [(time, value)]`` gauge/counter series.

    Merges two origins: the metrics registry's time-weighted gauges
    (occupancy, queue depths — the full breakpoint series each
    :class:`~repro.simkernel.Gauge` already keeps) and the ``counter.*``
    mirror records of ``source`` (a record iterable, or the
    :class:`RunSpans` folded from one; None contributes nothing).
    """
    series: dict[str, list[tuple[float, float]]] = {}
    if registry is not None:
        series.update(registry.gauge_series())
    if source is not None:
        spans = source if isinstance(source, RunSpans) else build_spans(source)
        for name, points in spans.counters.items():
            series.setdefault(name, []).extend(points)
    return series


def counter_events(
    series: dict[str, list[tuple[float, float]]],
    run: int = 0,
    label: str = "",
) -> list[dict]:
    """Perfetto counter (``"ph": "C"``) events for gauge series.

    All series of one run share a stable counter pid (run stride + the
    counters family slot), one tid per series name in sorted order, so
    occupancy and queue-depth gauges render as proper counter tracks
    alongside the span processes.
    """
    if not series:
        return []
    base = run * _RUN_STRIDE
    pid = base + _PID_COUNTERS
    tag = f" [{label}]" if label else (f" [run {run}]" if run else "")
    events: list[dict] = [
        _meta("process_name", pid, {"name": f"counters{tag}"})
    ]
    for tid, name in enumerate(sorted(series)):
        events.append(_meta("thread_name", pid, {"name": name}, tid=tid))
        for t, value in series[name]:
            events.append(
                {
                    "name": name,
                    "ph": "C",
                    "pid": pid,
                    "tid": tid,
                    "ts": _us(t),
                    "cat": "jets",
                    "args": {"value": value},
                }
            )
    return events


#: The C encoder behind ``json.dumps(event)``, built once: ``json.dumps``
#: builds one per call.  No circular-reference markers: every event is a
#: freshly built tree of dicts and scalars.
_encode_event = c_make_encoder(
    None, json.JSONEncoder().default, encode_basestring_ascii, None,
    ": ", ", ", False, False, True,
)


class ChromeWriter:
    """A Chrome ``trace_event`` document written one run at a time.

    The bytes equal ``json.dump({"traceEvents": events, "displayTimeUnit":
    "ms"}, fh)`` over every run's events in order, but only one run's
    events are ever in RAM: :meth:`add_run` encodes each event as
    ``json.dumps`` would as it goes, and :meth:`finish` closes the
    document.
    """

    def __init__(self, fh: IO[str]):
        self.fh = fh
        #: Events written so far.
        self.events = 0
        fh.write('{"traceEvents": [')

    def add_run(self, spans: RunSpans, run: int, label: str, registry) -> None:
        """Append run ``run``'s span events, then its counter tracks
        (``registry`` adds its gauges; None adds none)."""
        self._write(chrome_events(spans, run=run, label=label))
        self._write(
            counter_events(
                counter_series(spans, registry), run=run, label=label
            )
        )

    def _write(self, events: list[dict]) -> None:
        write = self.fh.write
        for ev in events:
            if self.events:
                write(", ")
            write("".join(_encode_event(ev, 0)))
            self.events += 1

    def finish(self) -> None:
        """Close the event list and the document."""
        self.fh.write('], "displayTimeUnit": "ms"}')


def to_chrome_trace(
    sources,
    out: Union[str, IO[str]],
) -> int:
    """Write a Chrome ``trace_event`` file; returns the event count.

    ``sources`` is one source (a record iterable or :class:`RunSpans`),
    or a list of ``(label, source)`` or ``(label, source, registry)``
    tuples for multi-run sessions; a registry contributes its gauges as
    Perfetto counter tracks (:func:`counter_events`).
    """
    if not isinstance(sources, list) or (
        sources and not isinstance(sources[0], tuple)
    ):
        sources = [("", sources)]
    if isinstance(out, str):
        with open(out, "w") as fh:
            return to_chrome_trace(sources, fh)
    writer = ChromeWriter(out)
    for run, entry in enumerate(sources):
        if len(entry) == 3:
            label, src, registry = entry
        else:
            label, src = entry
            registry = None
        spans = src if isinstance(src, RunSpans) else build_spans(src)
        writer.add_run(spans, run, label, registry)
    writer.finish()
    return writer.events
