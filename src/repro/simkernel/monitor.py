"""Instrumentation: traces, counters and time-weighted gauges.

The experiment harnesses derive every reported metric (utilization, task
rates, load levels) from :class:`Trace` records and :class:`Gauge` series
rather than ad-hoc bookkeeping inside the model, mirroring how the paper
instruments worker/task start/stop times (Section 6.1.5).

:class:`Trace` is the one trace sink.  By default it keeps every record
and answers post-hoc ``select``/``times`` queries by a scan.  Given
a retention window it keeps only the newest records, and older ones
spill to a JSONL file in the archival format :func:`record_encoder`
writes (so a spilled trace is a first-class ``jets report`` /
``jets lint-trace`` input) or are dropped.  Consumers that need every
record of a bounded run subscribe (:meth:`Trace.subscribe`) and fold
each record at log time, before any eviction: every record reaches
every subscriber exactly once, in log order.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from collections import deque
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Callable, Iterator, Optional, Union

from .core import Environment

__all__ = [
    "TraceRecord",
    "Trace",
    "Counter",
    "Gauge",
    "sanitize",
    "record_encoder",
    "trailer_line",
]


def sanitize(value):
    """Best-effort conversion of a trace payload to JSON-safe data."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [sanitize(v) for v in value]
    return str(value)


def _unserializable(obj):
    raise TypeError(
        f"Object of type {obj.__class__.__name__} is not JSON serializable"
    )


#: The C encoder behind ``json.dumps(obj, separators=(",", ":"))``,
#: built once: ``json.dumps`` builds a new encoder on every call.  No
#: circular-reference markers: every container it encodes is a fresh
#: tree built by :func:`sanitize`.
_c_encode = c_make_encoder(
    None, _unserializable, encode_basestring_ascii, None, ":", ",",
    False, False, True,
)


def _dumps(obj) -> str:
    return "".join(_c_encode(obj, 0))


def record_encoder(
    run: Optional[int] = None, label: str = ""
) -> Callable[[float, str, Any], str]:
    """The archival JSONL encoder for records tagged ``run``/``label``.

    Returns ``encode(t, category, data)``: the record's line, newline
    included, byte-identical to ``json.dumps`` with compact separators
    over ``{"t": t, "cat": category, "data": sanitize(data), "run": run,
    "label": label}`` (``data`` left out when None, ``run`` when None,
    ``label`` when empty).  Every archival line goes through one: the
    trace spill, :func:`repro.obs.export.to_jsonl`, the canonical
    digest and the run journal.  So a dump, a spilled trace and a
    journal are byte-identical by construction.  Build one per tag and
    keep it: it caches each category's encoded form and each payload
    key's ``"key":`` prefix (categories are strings, as
    :meth:`Trace.log` requires).  A dict payload's exact-type
    ``str``, ``int``, ``bool``, finite ``float`` and None values are
    encoded inline; any other payload goes through :func:`sanitize`.
    """
    tail = (
        ("" if run is None else ',"run":' + _dumps(run))
        + (',"label":' + _dumps(label) if label else "")
        + "}\n"
    )
    heads: dict[str, str] = {}
    keys: dict[str, str] = {}
    escape = encode_basestring_ascii

    def encode(t: float, category: str, data: Any) -> str:
        head = heads.get(category)
        if head is None:
            head = heads[category] = ',"cat":' + _dumps(category)
        if type(t) is float and t - t == 0.0:
            ts = repr(t)
        else:
            ts = _dumps(t)
        if data is None:
            return f'{{"t":{ts}{head}{tail}'
        if type(data) is dict:
            parts = []
            for k, v in data.items():
                if type(k) is not str:
                    break  # sanitize() stringifies keys: take its path
                key = keys.get(k)
                if key is None:
                    key = keys[k] = escape(k) + ":"
                tv = type(v)
                if tv is str:
                    parts.append(key + escape(v))
                elif tv is int or tv is float and v - v == 0.0:
                    parts.append(key + repr(v))
                elif tv is bool:
                    parts.append(key + ("true" if v else "false"))
                elif v is None:
                    parts.append(key + "null")
                else:
                    parts.append(key + _dumps(sanitize(v)))
            else:
                return f'{{"t":{ts}{head},"data":{{{",".join(parts)}}}{tail}'
        return f'{{"t":{ts}{head},"data":{_dumps(sanitize(data))}{tail}'

    return encode


def trailer_line(perf: dict, run: Optional[int] = None) -> str:
    """The ``{"meta": "perf"}`` trailer as a JSONL line."""
    trailer: dict = {"meta": "perf"}
    if run is not None:
        trailer["run"] = run
    trailer.update(sanitize(perf))
    return _dumps(trailer) + "\n"


class TraceRecord:
    """One trace entry: (time, category, payload).

    A slotted plain class rather than a dataclass: traces are the
    densest allocation site in a run (every lifecycle transition, wire
    message, and counter tick is one record), and the frozen-dataclass
    ``object.__setattr__`` path plus per-instance ``__dict__`` cost
    measurably at fig09 scale.
    """

    __slots__ = ("time", "category", "data")

    def __init__(self, time: float, category: str, data: Any = None):
        self.time = time
        self.category = category
        self.data = data

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (
            self.time == other.time
            and self.category == other.category
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.time, self.category))

    def __repr__(self) -> str:
        return (
            f"TraceRecord(time={self.time!r}, category={self.category!r}, "
            f"data={self.data!r})"
        )


class Trace:
    """The trace sink: every record, or a bounded window of the newest.

    ``window=None`` keeps every record.  A ``window`` bounds what the
    sink holds (the high-water mark, at least one record): past it, the
    oldest records are evicted one at a time, each popped and then
    encoded straight onto the open ``spill`` file, or dropped and
    counted in :attr:`dropped` when there is no spill.  Spilled lines
    carry the archival format of :func:`record_encoder`, tagged with
    ``run`` and ``label`` as they stand when the first line is encoded
    (a session labels a sink after building it); ``truncate`` opens the
    spill for writing instead of appending.

    Subscribers (:meth:`subscribe`) receive every record synchronously,
    in log order, exactly once, before it can be evicted.  They must not
    log into the sink re-entrantly unless they guard against their own
    records (see :class:`repro.obs.progress.ProgressTracker`).

    The queries (:attr:`records`, iteration, :meth:`select`,
    :meth:`times`) answer over every record, in log order.  Once the
    window has evicted a record they raise :class:`ValueError`: a
    consumer that needs every record of a bounded run folds them as they
    are logged.
    :meth:`counts`, :meth:`categories` and ``len`` cover every record
    either way.
    """

    def __init__(
        self,
        env: Environment,
        window: Optional[int] = None,
        spill: Optional[str] = None,
        run: Optional[int] = None,
        label: str = "",
        truncate: bool = False,
    ):
        self.env = env
        self._subscribers: list[Callable[[TraceRecord], None]] = []
        #: Most records held at once; None keeps every record.
        self.high_water = None if window is None else max(1, int(window))
        #: The records held, oldest first.
        self.window: Union[list[TraceRecord], "deque[TraceRecord]"] = (
            [] if window is None else deque()
        )
        self.spill_path = spill
        self.run = run
        self.label = label
        #: Records written to the spill file so far.
        self.spilled = 0
        #: Records evicted with no spill path configured.
        self.dropped = 0
        #: Records logged after :meth:`close` (e.g. component teardown
        #: finalizers firing after the session flushed): counted, not
        #: kept, and not passed to subscribers.
        self.late = 0
        self.closed = False
        self._truncate = truncate
        self._fh = None
        self._encode: Optional[Callable[[float, str, Any], str]] = None
        #: category -> records evicted (insertion-ordered, interned
        #: keys); the records held are counted when asked.
        self._evicted: dict[str, int] = {}

    def log(self, category: str, data: Any = None) -> None:
        """Record ``data`` under ``category`` at the current sim time."""
        if self.closed:
            self.late += 1
            return
        rec = TraceRecord(self.env.now, sys.intern(category), data)
        window = self.window
        window.append(rec)
        if self._subscribers:
            for fn in self._subscribers:
                fn(rec)
        high = self.high_water
        if high is not None and len(window) > high:
            self._evict(len(window) - high)

    def subscribe(
        self, fn: Callable[[TraceRecord], None]
    ) -> Callable[[TraceRecord], None]:
        """Register ``fn`` to receive every future record; returns it."""
        self._subscribers.append(fn)
        return fn

    def unsubscribe(self, fn: Callable[[TraceRecord], None]) -> None:
        """Remove a subscriber registered with :meth:`subscribe`."""
        self._subscribers.remove(fn)

    # -- retention / spill ----------------------------------------------------

    def _evict(self, n: int) -> None:
        """Spill, or drop, the ``n`` oldest records, popping one at a
        time so each record is freed as soon as it is encoded."""
        window = self.window
        evicted = self._evicted
        if self.spill_path is None:
            for _ in range(n):
                category = window.popleft().category
                evicted[category] = evicted.get(category, 0) + 1
            self.dropped += n
            return
        encode = self._encode
        if encode is None:
            encode = self._encode = record_encoder(self.run, self.label)
        write = self._open().write
        for _ in range(n):
            rec = window.popleft()
            category = rec.category
            evicted[category] = evicted.get(category, 0) + 1
            write(encode(rec.time, category, rec.data))
        self.spilled += n

    def _open(self):
        if self._fh is None:
            self._fh = open(self.spill_path, "w" if self._truncate else "a")
            self._truncate = False
        return self._fh

    def flush(self) -> None:
        """Push the spilled lines onto disk (window retained)."""
        if self._fh is not None:
            self._fh.flush()

    def close(self, perf: Optional[dict] = None) -> None:
        """End the run: write out what the sink holds, then the trailer.

        A bounded sink evicts its whole window; an unbounded one keeps
        its records, so they can still be queried.  With a spill, the
        records not yet spilled follow those already written, then the
        ``{"meta": "perf"}`` trailer when ``perf`` is given, and the file
        is released.  ``perf`` should be seed-deterministic (kernel
        events, record count, simulated seconds — never wall-clock) so
        same-seed spills stay byte-identical.  Closing twice is a no-op.
        """
        if self.closed:
            return
        if self.high_water is not None:
            self._evict(len(self.window))
        if self.spill_path is not None:
            fh = self._open()
            encode = self._encode or record_encoder(self.run, self.label)
            for rec in self.window:
                fh.write(encode(rec.time, rec.category, rec.data))
            self.spilled += len(self.window)
            if perf is not None:
                fh.write(trailer_line(perf, self.run))
            fh.close()
            self._fh = None
        self.closed = True

    def perf(self) -> dict:
        """The deterministic perf trailer payload for this sink's run."""
        return {
            "events": self.env.events_processed,
            "records": len(self),
            "sim_s": self.env.now,
        }

    # -- queries --------------------------------------------------------------

    @property
    def total(self) -> int:
        """Records logged before :meth:`close`, evicted ones included."""
        return sum(self._evicted.values()) + len(self.window)

    def __len__(self) -> int:
        return self.total

    @property
    def retained(self) -> int:
        """How many records the sink holds."""
        return len(self.window)

    def counts(self, prefix: str = "") -> dict[str, int]:
        """Records logged per category (optionally under ``prefix``), in
        first-appearance order: the evicted ones, then those held."""
        counts = dict(self._evicted)
        for rec in self.window:
            category = rec.category
            counts[category] = counts.get(category, 0) + 1
        if prefix:
            return {c: n for c, n in counts.items() if c.startswith(prefix)}
        return counts

    def categories(self, prefix: str = "") -> list[str]:
        """Distinct categories logged (optionally under ``prefix``), in
        first-appearance order."""
        return list(self.counts(prefix))

    def _all(self) -> list[TraceRecord]:
        """Every record logged, or ValueError once one was evicted."""
        window = self.window
        if self._evicted:
            raise ValueError(
                f"trace retained {len(window)} of {self.total} records; "
                "subscribe TraceValidator.feed or SpanBuilder.fold to it "
                "before the run to see every record"
            )
        return window if self.high_water is None else list(window)

    @property
    def records(self) -> list[TraceRecord]:
        """Every record, oldest first."""
        return self._all()

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._all())

    def select(self, category: str, prefix: bool = False) -> list[TraceRecord]:
        """All records in ``category``, in log order.

        With ``prefix=True``, ``category`` matches as a prefix instead
        (``select("job.", prefix=True)`` returns every job-lifecycle
        record).
        """
        if prefix:
            return [r for r in self._all() if r.category.startswith(category)]
        return [r for r in self._all() if r.category == category]

    def times(self, category: str, prefix: bool = False) -> list[float]:
        """Timestamps of all records in ``category`` (or category prefix)."""
        return [r.time for r in self.select(category, prefix)]


class Counter:
    """Monotonic counter with optional trace hookup.

    When connected to a :class:`Trace` (directly or through the
    observability registry), every :meth:`incr` also emits a trace record
    carrying the counter name and new value, so counter activity lands on
    the same timeline as the lifecycle spans.
    """

    def __init__(
        self,
        name: str = "",
        trace: Optional["Trace"] = None,
        category: Optional[str] = None,
    ):
        self.name = name
        self.value = 0
        self._trace: Optional[Trace] = None
        self._category = ""
        if trace is not None:
            self.connect(trace, category)

    def connect(self, trace: "Trace", category: Optional[str] = None) -> "Counter":
        """Hook this counter to ``trace``; returns self for chaining."""
        self._trace = trace
        self._category = category or f"counter.{self.name or 'anonymous'}"
        return self

    @property
    def connected(self) -> bool:
        """Whether increments are mirrored into a trace."""
        return self._trace is not None

    def incr(self, amount: int = 1) -> int:
        """Add ``amount`` and return the new value."""
        self.value += amount
        if self._trace is not None:
            # The counter.* family is the one sanctioned dynamic category:
            # the registry validates it by prefix (PREFIX_FAMILIES).
            self._trace.log(
                self._category,  # repro: noqa[TR004]
                {"counter": self.name, "value": self.value},
            )
        return self.value


class Gauge:
    """A step function of time (e.g. number of busy cores).

    Records ``(time, value)`` breakpoints; integration gives time-weighted
    means, which is exactly the "load level" plotted in the paper's Fig. 13.
    """

    def __init__(self, env: Environment, initial: float = 0.0):
        self.env = env
        self.value = float(initial)
        self.samples: list[tuple[float, float]] = [(env.now, self.value)]

    def set(self, value: float) -> None:
        """Set the gauge to an absolute value at the current time.

        Same-timestamp updates coalesce into one breakpoint (the last
        value wins) — a step function has at most one level per instant,
        and repeated :meth:`add` calls at a single sim time would
        otherwise bloat :meth:`series` and slow :meth:`integral`.
        """
        self.value = float(value)
        now = self.env.now
        if self.samples and self.samples[-1][0] == now:
            self.samples[-1] = (now, self.value)
        else:
            self.samples.append((now, self.value))

    def add(self, delta: float) -> None:
        """Adjust the gauge by ``delta`` at the current time."""
        self.set(self.value + delta)

    def series(self) -> list[tuple[float, float]]:
        """The recorded (time, value) breakpoints."""
        return list(self.samples)

    def integral(self, start: Optional[float] = None, end: Optional[float] = None) -> float:
        """Integrate the step function over [start, end] (defaults: full span).

        Bisects to the breakpoints covering the window, so a windowed
        query over a long series costs O(log n + window) rather than a
        full scan.  Segments outside [start, end] contribute exactly 0
        in the scan formulation, so skipping them leaves the float
        summation order — and therefore the result bits — unchanged.
        """
        samples = self.samples
        if not samples:
            return 0.0
        t0 = samples[0][0] if start is None else start
        t1 = self.env.now if end is None else end
        if t1 <= t0:
            return 0.0
        # Last breakpoint at/before t0 .. first breakpoint at/after t1.
        lo = bisect_right(samples, (t0, float("inf"))) - 1
        if lo < 0:
            lo = 0
        hi = bisect_left(samples, (t1, float("-inf")))
        total = 0.0
        last = len(samples) - 1
        for i in range(lo, min(hi, last)):
            ta, va = samples[i]
            seg_lo = ta if ta > t0 else t0
            tb = samples[i + 1][0]
            seg_hi = tb if tb < t1 else t1
            if seg_hi > seg_lo:
                total += va * (seg_hi - seg_lo)
        ta, va = samples[last]
        seg_lo = ta if ta > t0 else t0
        if t1 > seg_lo:
            total += va * (t1 - seg_lo)
        return total

    def mean(self, start: Optional[float] = None, end: Optional[float] = None) -> float:
        """Time-weighted mean over [start, end]."""
        t0 = self.samples[0][0] if start is None else start
        t1 = self.env.now if end is None else end
        span = t1 - t0
        return self.integral(start, end) / span if span > 0 else 0.0

    def max(self) -> float:
        """Maximum recorded value."""
        return max(v for _t, v in self.samples)
