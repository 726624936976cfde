"""Discrete-event simulation kernel.

A small, deterministic, generator-based DES engine in the style of SimPy.
Every other subsystem in this reproduction (cluster nodes, network fabric,
the JETS dispatcher, MPI bootstrap, the Swift dataflow engine) is expressed
as :class:`Process` coroutines scheduled by an :class:`Environment`.

Determinism: events are ordered by ``(time, priority, tiebreak, sequence)``
where the sequence number is a monotonically increasing counter, so two
runs with the same seed produce identical traces.  The ``tiebreak`` term is
0.0 by default (pure FIFO among same-time, same-priority events — the
historical ordering, bit-identical to older kernels); a pluggable
:class:`SchedulingOrder` may perturb it to systematically explore
alternative legal schedules (``jets explore``), exactly because any
ordering of simultaneous events is a schedule the real system could
exhibit.

Two scheduler engines realize that one ordering contract:

* **FIFO calendar queue** (default, no :class:`SchedulingOrder`): events
  live in per-timestamp buckets — append-ordered lists addressed by an
  exact-float time key — with a small heap of *unique* bucket times as
  the sorted overflow for far-future/irregular timestamps.  Bucket
  entries are int handles (bare slot indices) into a freelist-recycled
  event table, so pushing an event allocates no tuple — the slot int
  already exists — and popping one is a cursor bump.  Exact-float keys are the same tie
  criterion the old heap used (``==`` on the time column), which keeps
  the FIFO schedule byte-identical to the heap-based kernels.
* **Legacy tiebreak heap** (any :class:`SchedulingOrder` installed): the
  flat ``heapq`` of ``(time, priority, tiebreak, seq, event)`` 5-tuples,
  unchanged, so ``jets explore`` permutations replay exactly.

See DESIGN.md §16 for the data layout and the legality argument for the
inline succeed→resume fast path.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SchedulingOrder",
    "SeededOrder",
    "SimulationError",
    "PENDING",
    "URGENT",
    "NORMAL",
]

#: Sentinel for an event value that has not been set yet.
PENDING = object()

#: Priority for events that must fire before same-time normal events.
URGENT = 0
#: Default event priority.
NORMAL = 1

#: Calendar entries are bare slot indices into the handle table — the
#: lane a handle sits in already encodes its priority, so no bits are
#: spent on it (and pushes reuse the existing slot int, allocating
#: nothing).  A *negative* entry ``~slot`` on an urgent lane heads a
#: two-entry callback pair (late listener on a processed event): its
#: slot holds the callback, the following entry's slot the origin event.

#: Hoisted allocator for the inlined event factories.
_new = object.__new__
_heappush = heapq.heappush


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel (e.g. double-trigger)."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries an arbitrary application-level reason
    (for example, the fault injector passes the failed node).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A happening at a point in simulated time.

    Processes ``yield`` events to wait for them.  An event is *triggered*
    once :meth:`succeed` or :meth:`fail` has been called; its callbacks run
    when the scheduler pops it from the calendar queue.

    Events are the kernel's unit of allocation — a 512-node campaign
    churns through millions — so the whole hierarchy is ``__slots__``-ed
    and subclasses write their fields directly instead of paying for
    chained ``__init__`` double-writes.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        #: Set when a failed event's exception has been delivered somewhere,
        #: suppressing the "unhandled failure" error at teardown.
        self._defused: bool = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value (scheduled to fire)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is not yet triggered."""
        if self._value is PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        # _ok is already True: __init__ sets it and the only writers of
        # False (fail, interrupt bridges, conditions) never call succeed.
        self._value = value
        # Inlined Environment._insert fast path (succeed is the single
        # hottest scheduling site): append an int handle to the current
        # bucket's normal lane.  The tiebreak and provenance branches
        # stay out of line (_fast is False whenever either is installed).
        env = self.env
        if env._fast:
            lane = env._bnow
            if lane is not None:
                free = env._free
                if free:
                    slot = free.pop()
                    env._table[slot] = self
                else:
                    slot = len(env._table)
                    env._table.append(self)
                lane.append(slot)
            else:
                env._insert(self, NORMAL, env._now)
        else:
            env._schedule(self, NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._schedule(self, NORMAL)
        return self

    def _add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: deliver at the current time through the
            # scheduler so ordering stays deterministic.  Fast mode pushes
            # a zero-alloc *callback pair* — two int handles on the
            # current bucket's urgent lane (the first complemented, so a
            # negative entry: its slot holds the callback, the next
            # entry's slot the origin) — in exactly the lane position a
            # relay event would occupy.  Outside fast mode (tiebreak order or provenance
            # hook installed, or no live current bucket) the allocating
            # :class:`_Relay` bridge keeps the observable behavior.
            env = self.env
            bucket = env._bcur
            if env._fast and bucket is not None:
                free = env._free
                table = env._table
                if free:
                    slot = free.pop()
                    table[slot] = callback
                else:
                    slot = len(table)
                    table.append(callback)
                if free:
                    oslot = free.pop()
                    table[oslot] = self
                else:
                    oslot = len(table)
                    table.append(self)
                lane = bucket[2]
                if lane is None:
                    bucket[2] = [~slot, oslot]
                else:
                    lane.append(~slot)
                    lane.append(oslot)
            else:
                _Relay(env, self, callback)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:
        return f"<{self.__class__.__name__} at {id(self):#x}>"


class _Relay(Event):
    """Zero-delay bridge re-delivering an already-processed event.

    Mirrors the origin's outcome — including ``_defused``, so a late
    listener on an already-handled failure does not re-raise it at
    :meth:`Environment.step` — and delivers the *origin* (not itself) to
    the callback, so listeners can't tell a relayed delivery from a
    direct one.  If the listener defuses the origin's failure during
    delivery, that defusal propagates back to the relay too.
    """

    __slots__ = ("_origin", "_callback")

    def __init__(
        self,
        env: "Environment",
        origin: Event,
        callback: Callable[[Event], None],
    ):
        self.env = env
        self.callbacks = [self._fire]
        self._value = origin._value if origin._value is not PENDING else None
        self._ok = origin._ok
        self._defused = origin._defused
        self._origin = origin
        self._callback = callback
        env._schedule(self, URGENT)

    def _fire(self, _relay: Event) -> None:
        self._callback(self._origin)
        if not self._ok and self._origin._defused:
            self._defused = True


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Inlined Event.__init__: timeouts are born triggered, so write
        # the final field values once instead of PENDING-then-overwrite.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        # Inlined Environment._insert fast path (timeouts dominate the
        # calendar in transfer-heavy campaigns): fixed-delay classes hash
        # to a handful of live buckets, so the common case is a bare
        # handle append with no heap traffic at all.
        if env._fast:
            t = env._now + delay
            bucket = env._buckets.get(t)
            if bucket is not None:
                free = env._free
                if free:
                    slot = free.pop()
                    env._table[slot] = self
                else:
                    slot = len(env._table)
                    env._table.append(self)
                bucket[0].append(slot)
            else:
                env._insert(self, NORMAL, t)
        else:
            env._schedule(self, NORMAL, delay)

    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover
        raise SimulationError("Timeout is triggered automatically")

    def fail(self, exception: BaseException) -> "Event":  # pragma: no cover
        raise SimulationError("Timeout is triggered automatically")


class Initialize(Event):
    """Internal event used to start a process at the current time."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        self.env = env
        self.callbacks = [process._presume]
        self._value = None
        self._ok = True
        self._defused = False
        env._schedule(self, URGENT)


class Process(Event):
    """A running generator; also an event that fires when it terminates.

    The generator yields :class:`Event` instances.  The value of a yielded
    event is sent back into the generator; a failed event is thrown in as
    its exception.  The return value of the generator becomes the value of
    the process-as-event.
    """

    __slots__ = ("_generator", "name", "_target", "_presume", "_gsend")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        super().__init__(env)
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        # Bound-method caches: _resume is subscribed to an event on every
        # generator step and send() is called at least as often; creating
        # the bound method each time costs an allocation apiece.  Both
        # are cleared at termination: ``_presume`` references ``self``, so
        # keeping it would leave every finished process a reference cycle.
        self._presume = self._resume
        self._gsend = generator.send
        env._live[self] = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not terminated."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise SimulationError(f"{self!r} has terminated; cannot interrupt")
        active = self.env._active_process
        if active is not None and active._generator is self._generator:
            raise SimulationError("a process cannot interrupt itself")
        bridge = Event(self.env)
        bridge._ok = False
        bridge._value = Interrupt(cause)
        bridge._defused = True
        bridge.callbacks.append(self._presume)
        self.env._schedule(bridge, URGENT)

    def _resume(self, event: Event) -> None:
        # Ignore resumptions from a stale target (e.g. the event we were
        # waiting on fires after an interrupt already moved us on).  The
        # common case — resumed by exactly the event we are waiting on —
        # is a single identity compare; only mismatches (first resume,
        # interrupts, stale wakeups, termination races) take the slow
        # branch.  is_alive / processed / _add_callback are inlined
        # below: this is the kernel's hottest function (every generator
        # step runs it).
        if event is not self._target:
            if self._value is not PENDING:  # not alive
                if not event._ok:
                    event._defused = True
                return
            if self._target is not None and not isinstance(
                event._value, Interrupt
            ):
                if not event._ok:
                    event._defused = True
                return
        env = self.env
        generator = self._generator
        gsend = self._gsend
        env._active_process = self
        try:
            while True:
                if event._ok:
                    next_target = gsend(event._value)
                else:
                    event._defused = True
                    next_target = _throw(generator, event._value)
                if not isinstance(next_target, Event):
                    next_target = generator.throw(
                        SimulationError(
                            f"process {self.name!r} yielded a non-event: "
                            f"{next_target!r}"
                        )
                    )
                if next_target.env is not env:
                    raise SimulationError("yielded event from another environment")
                self._target = next_target
                callbacks = next_target.callbacks
                if callbacks is None:  # processed: loop with its value
                    event = next_target
                    continue
                # Zero-alloc succeed→resume fast path: the yielded event
                # already succeeded, nobody else listens to it, we are
                # the tail callback of a delivery that emptied its bucket
                # (_solo), and its handle sits at the current bucket's
                # normal-lane cursor with the urgent lane exhausted — so
                # the scheduler's very next pop would deliver exactly
                # this event to exactly this process.  Consume the handle
                # inline and keep stepping the generator without a
                # calendar round-trip.  Legality: DESIGN.md §16.
                if (
                    env._solo
                    and not callbacks
                    and next_target._value is not PENDING
                    and next_target._ok
                ):
                    bucket = env._bcur
                    if bucket is not None:
                        lane = bucket[0]
                        i = bucket[1]
                        if (
                            i < len(lane)
                            and env._table[lane[i]] is next_target
                            and (
                                bucket[2] is None
                                or bucket[3] >= len(bucket[2])
                            )
                        ):
                            slot = lane[i]
                            bucket[1] = i + 1
                            env._table[slot] = None
                            env._free.append(slot)
                            env.events_processed += 1
                            next_target.callbacks = None
                            event = next_target
                            continue
                callbacks.append(self._presume)
                break
        except StopIteration as stop:
            self._target = self._presume = self._gsend = None
            del env._live[self]
            self._ok = True
            self._value = stop.value
            env._schedule(self, NORMAL)
        except BaseException as exc:
            self._target = self._presume = self._gsend = None
            del env._live[self]
            self._ok = False
            self._value = exc
            self._defused = False
            env._schedule(self, NORMAL)
        finally:
            env._active_process = None


def _all_succeeded(events: list[Event], count: int) -> bool:
    """:class:`AllOf` predicate: every event has succeeded."""
    return count == len(events)


def _any_succeeded(events: list[Event], count: int) -> bool:
    """:class:`AnyOf` predicate: at least one event has succeeded."""
    return count >= 1


def _throw(generator: Generator, exc: BaseException) -> Any:
    """Throw a failed event's exception into ``generator``.

    Once the generator has handled it (yielded again or returned), the
    traceback goes: its frames hold the failed event, whose value is this
    exception, so keeping it would leave a reference cycle per fault.  An
    exception the generator lets through keeps its traceback.
    """
    try:
        target = generator.throw(exc)
    except StopIteration:
        exc.__traceback__ = None
        raise
    exc.__traceback__ = None
    return target


class Condition(Event):
    """Waits for a set of events per an evaluation function.

    Once fired, the condition drops its event list: an event it no longer
    waits for (the untriggered side of an :class:`AnyOf`) still holds the
    condition's callback, and the list would close that into a cycle.
    """

    __slots__ = ("_events", "_evaluate", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event], evaluate):
        super().__init__(env)
        self._events = list(events)
        self._evaluate = evaluate
        self._count = 0
        if not self._events:
            self._ok = True
            self._value = {}
            env._schedule(self, NORMAL)
            return
        for ev in self._events:
            if ev.processed:
                self._on_event(ev)
            else:
                ev._add_callback(self._on_event)

    def _on_event(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self._ok = False
            self._value = event._value
            self._events = None
            self.env._schedule(self, NORMAL)
            return
        self._count += 1
        if self._evaluate(self._events, self._count):
            self._ok = True
            self._value = {
                ev: ev._value for ev in self._events if ev.triggered and ev._ok
            }
            self._events = None
            self.env._schedule(self, NORMAL)


class AllOf(Condition):
    """Triggers when all given events have succeeded (fails on first failure)."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, events, _all_succeeded)


class AnyOf(Condition):
    """Triggers when at least one of the given events has succeeded."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, events, _any_succeeded)


class SchedulingOrder:
    """Policy for ordering simultaneous same-priority events.

    The scheduler pops ``(time, priority, tiebreak, seq)``; the default
    order returns a constant 0.0 tiebreak, reducing the key to the
    historical ``(time, priority, seq)`` FIFO — existing runs stay
    bit-identical.  Subclasses return other tiebreaks to permute ties:
    every permutation is a schedule the real (asynchronous) system could
    exhibit, which is what the bounded schedule explorer leans on.

    Installing *any* order (even the FIFO-equivalent base class) routes
    the environment onto the legacy 5-tuple heap engine; without one the
    calendar queue realizes the same FIFO contract without per-event
    tuple traffic.
    """

    __slots__ = ()

    def tiebreak(self, event: "Event") -> float:
        """Tiebreak key for one newly scheduled event (lower pops first)."""
        return 0.0


class SeededOrder(SchedulingOrder):
    """Deterministic pseudo-random tie permutation.

    Draws each tiebreak from an inline xorshift64* stream so the kernel
    needs no RNG dependency and two runs with the same seed replay the
    same schedule exactly.  Seed 0 is reserved for the FIFO baseline.
    """

    __slots__ = ("seed", "_state")

    _MASK = (1 << 64) - 1
    _MIX = 0x2545F4914F6CDD1D
    _GOLDEN = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        self.seed = int(seed)
        if self.seed == 0:
            self._state = None  # FIFO baseline: constant tiebreak
        else:
            self._state = (self.seed ^ self._GOLDEN) & self._MASK or self._MIX

    def tiebreak(self, event: "Event") -> float:
        if self._state is None:
            return 0.0
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & self._MASK
        x ^= x >> 27
        self._state = x or self._GOLDEN
        return ((x * self._MIX) & self._MASK) / float(1 << 64)


class Environment:
    """The simulation clock and event scheduler.

    Example::

        env = Environment()

        def proc(env):
            yield env.timeout(5)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == 5.0

    Under the default FIFO order the scheduler is a calendar queue:

    ``_buckets``
        ``{time: [normal_lane, normal_cursor, urgent_lane, urgent_cursor]}``
        — one bucket per *exact* float timestamp.  Lanes are append-only
        lists of int handles; cursors index the next undelivered handle.
        The urgent lane is lazily allocated (URGENT events are only ever
        scheduled at the current time, so far-future buckets never carry
        one).
    ``_times``
        Min-heap of the *unique* live bucket timestamps — the sorted
        overflow structure.  A time is pushed exactly once (bucket
        creation) and popped only when its bucket has fully drained, so
        ``_times[0]`` is always the next delivery time.
    ``_table`` / ``_free``
        Handle table and its freelist.  A handle is a bare slot index
        (``~slot`` marks a callback-pair head, urgent lanes only); the
        object lives at ``_table[slot]`` until its handle is consumed,
        then the slot is recycled.  Pushing a handle reuses the slot
        int from the freelist (or ``len(table)``), so steady-state
        scheduling allocates nothing.
    ``_bnow`` / ``_bcur``
        Cache of the bucket at ``_now`` (its normal lane, and the bucket
        itself) or ``None`` — the target of the inlined
        :meth:`Event.succeed` / zero-delay :class:`Timeout` fast paths
        and of the inline succeed→resume consumption in
        :meth:`Process._resume`.
    """

    __slots__ = (
        "_now",
        "_heap",
        "_seq",
        "_order",
        "_fast",
        "_prov",
        "_cause",
        "_buckets",
        "_times",
        "_table",
        "_free",
        "_bnow",
        "_bcur",
        "_bpool",
        "_solo",
        "_active_process",
        "_live",
        "events_processed",
    )

    def __init__(
        self,
        initial_time: float = 0.0,
        order: Optional[SchedulingOrder] = None,
    ):
        self._now = float(initial_time)
        # Legacy engine (any SchedulingOrder installed): heap entries are
        # ``(time, priority, tiebreak, seq, event)`` 5-tuples.  Under the
        # default FIFO order the heap stays empty and the calendar-queue
        # fields below carry the schedule instead.
        self._heap: list[tuple] = []
        self._seq = 0
        self._order = order
        #: Event-provenance hook (``hook(cause, event, when)``) and the
        #: event whose callbacks are currently being delivered.  Both are
        #: observation-only: installing a hook never changes event order.
        self._prov: Optional[Callable] = None
        self._cause: Optional[Event] = None
        # The inlined scheduling fast paths (Event.succeed and
        # Timeout.__init__) are legal only when neither a tiebreak order
        # nor a provenance hook needs to see the schedule.
        self._fast = order is None
        # Calendar queue (see class docstring).
        self._buckets: dict[float, list] = {}
        self._times: list[float] = []
        self._table: list[Optional[Event]] = []
        self._free: list[int] = []
        self._bnow: Optional[list[int]] = None
        self._bcur: Optional[list] = None
        #: Drained bucket objects, recycled by ``_insert``.  Workloads
        #: with mostly-unique timestamps (the overflow-heap stress case)
        #: would otherwise allocate three fresh lists per event.
        self._bpool: list[list] = []
        #: True while the delivery loop is running the *last* callback of
        #: the current event with the inline resume chain enabled — the
        #: per-delivery gate of the succeed→resume fast path.
        self._solo = False
        self._active_process: Optional[Process] = None
        #: Processes whose generator has not returned or raised, oldest
        #: first (a dict for its insertion order); :meth:`close` ends them.
        self._live: dict[Process, None] = {}
        #: Events popped and delivered so far (read by ``jets bench``).
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    def close(self) -> None:
        """End the run: drop everything the environment still holds.

        A run's daemon loops (heartbeats, accept loops, schedulers) stay
        parked when its main process returns, and through them the
        calendar reaches every node, socket and store of the platform.
        ``close`` closes each parked generator, oldest first, and marks
        its process finished; then it clears the callbacks of every
        event still in the calendar and empties the calendar.  A closed
        generator runs its ``finally:`` blocks once, outside simulated
        time, so a ``finally:`` must not record, journal, schedule or
        respawn (lint rule SK004).  ``now`` and ``events_processed`` do
        not change, no callback runs, and a second call does nothing.
        """
        live = self._live
        while live:
            # Not a for loop: a process started by a finally: (which
            # SK004 forbids) would otherwise stay registered.
            proc = next(iter(live))
            del live[proc]
            generator = proc._generator
            proc._target = proc._presume = proc._gsend = None
            proc._value = None
            proc.callbacks = None
            generator.close()
        for event in self._table:
            if isinstance(event, Event):
                event.callbacks = None
        for entry in self._heap:
            entry[-1].callbacks = None
        self._table.clear()
        self._free.clear()
        self._buckets.clear()
        self._times.clear()
        self._heap.clear()
        self._bnow = self._bcur = None

    # -- event factories ---------------------------------------------------

    def event(self) -> Event:
        """Create an untriggered event."""
        # Inlined Event.__init__ (no super-chain dispatch): this factory
        # sits on the succeed→resume fast path of relay-style workloads.
        ev = _new(Event)
        ev.env = self
        ev.callbacks = []
        ev._value = PENDING
        ev._ok = True
        ev._defused = False
        return ev

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` seconds from now."""
        # Inlined Timeout.__init__ (the extra call frame is measurable in
        # timeout-dominated campaigns); guarded or negative delays fall
        # through to the constructor and its error handling.
        if self._fast and delay >= 0:
            ev = _new(Timeout)
            ev.env = self
            ev.callbacks = []
            ev._value = value
            ev._ok = True
            ev._defused = False
            ev.delay = delay
            t = self._now + delay
            free = self._free
            if free:
                slot = free.pop()
                self._table[slot] = ev
            else:
                slot = len(self._table)
                self._table.append(ev)
            bucket = self._buckets.get(t)
            if bucket is not None:
                bucket[0].append(slot)
            else:
                # Inlined bucket-miss path (the common case for
                # irregular far-future delays): pooled bucket + overflow
                # registration, mirroring _insert for NORMAL priority.
                pool = self._bpool
                if pool:
                    bucket = pool.pop()
                    bucket[0].append(slot)
                else:
                    bucket = [[slot], 0, None, 0]
                self._buckets[t] = bucket
                _heappush(self._times, t)
                if t == self._now:
                    self._bnow = bucket[0]
                    self._bcur = bucket
            return ev
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all of ``events`` have succeeded."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when any of ``events`` has succeeded."""
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------

    def set_provenance(self, hook: Optional[Callable]) -> None:
        """Install (or clear, with ``None``) the event-provenance hook.

        ``hook(cause, event, when)`` is invoked for every scheduled
        event: ``cause`` is the event whose callbacks were being
        delivered at schedule time (``None`` for events scheduled from
        outside the delivery loop, e.g. setup code), ``event`` the newly
        scheduled one, and ``when`` its delivery time.  Together these
        calls expose the kernel's true causal forest — event B scheduled
        during the delivery of A cannot happen without A — which the
        happens-before checker (:mod:`repro.analysis.hbmodel`) folds
        into vector clocks.

        Observation-only: scheduler data structure and event ordering
        follow the :class:`SchedulingOrder` exactly as without a hook,
        so the default FIFO schedule stays byte-identical.  Installing a
        hook mid-``run()`` takes effect for scheduling immediately but
        for cause tracking only at the next ``run()``/``step()`` call.
        """
        self._prov = hook
        self._fast = self._order is None and hook is None

    def _insert(self, event: Event, priority: int, t: float) -> None:
        """Calendar-queue insert: handle allocation + bucket append.

        The general (non-inlined) path: creates the bucket and registers
        its time in the ``_times`` overflow heap on first use, and keeps
        the ``_bnow``/``_bcur`` current-bucket cache coherent.
        """
        if priority != NORMAL and priority != URGENT:
            raise SimulationError(f"unsupported priority {priority!r}")
        free = self._free
        if free:
            slot = free.pop()
            self._table[slot] = event
        else:
            slot = len(self._table)
            self._table.append(event)
        buckets = self._buckets
        bucket = buckets.get(t)
        if bucket is None:
            pool = self._bpool
            if pool:
                bucket = pool.pop()
                if priority == NORMAL:
                    bucket[0].append(slot)
                else:
                    bucket[2] = [slot]
            elif priority == NORMAL:
                bucket = [[slot], 0, None, 0]
            else:
                bucket = [[], 0, [slot], 0]
            buckets[t] = bucket
            heapq.heappush(self._times, t)
        elif priority == NORMAL:
            bucket[0].append(slot)
        else:
            lane = bucket[2]
            if lane is None:
                bucket[2] = [slot]
            else:
                lane.append(slot)
        if t == self._now:
            self._bnow = bucket[0]
            self._bcur = bucket

    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        if delay < 0.0:
            raise ValueError(f"negative delay {delay}")
        t = self._now + delay
        if self._order is None:
            self._insert(event, priority, t)
        else:
            self._seq += 1
            heapq.heappush(
                self._heap,
                (t, priority, self._order.tiebreak(event), self._seq, event),
            )
        if self._prov is not None:
            self._prov(self._cause, event, t)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._order is not None:
            return self._heap[0][0] if self._heap else float("inf")
        return self._times[0] if self._times else float("inf")

    def _bucket_drained(self, bucket: list) -> bool:
        return bucket[1] >= len(bucket[0]) and (
            bucket[2] is None or bucket[3] >= len(bucket[2])
        )

    def _retire_bucket(self, when: float) -> None:
        bucket = self._buckets.pop(when)
        heapq.heappop(self._times)
        bucket[0].clear()
        bucket[1] = 0
        bucket[2] = None
        bucket[3] = 0
        self._bpool.append(bucket)
        self._bnow = None
        self._bcur = None

    def step(self) -> None:
        """Process the next scheduled event."""
        if self._order is not None:
            if not self._heap:
                raise SimulationError("no more events")
            entry = heapq.heappop(self._heap)
            when, event = entry[0], entry[-1]
            self._now = when
            callbacks, event.callbacks = event.callbacks, None
        else:
            times = self._times
            bucket = None
            while times:
                when = times[0]
                bucket = self._buckets[when]
                if not self._bucket_drained(bucket):
                    break
                self._retire_bucket(when)
                bucket = None
            if bucket is None:
                raise SimulationError("no more events")
            self._now = when
            self._bnow = bucket[0]
            self._bcur = bucket
            lane = bucket[2]
            if lane is not None and bucket[3] < len(lane):
                slot = lane[bucket[3]]
                if slot < 0:
                    # Two-entry callback pair: first slot holds the
                    # listener, second the already-processed origin.
                    slot = ~slot
                    oslot = lane[bucket[3] + 1]
                    bucket[3] += 2
                    callbacks = [self._table[slot]]
                    event = self._table[oslot]
                    self._table[slot] = None
                    self._table[oslot] = None
                    self._free.append(slot)
                    self._free.append(oslot)
                else:
                    bucket[3] += 1
                    event = self._table[slot]
                    self._table[slot] = None
                    self._free.append(slot)
                    callbacks, event.callbacks = event.callbacks, None
            else:
                slot = bucket[0][bucket[1]]
                bucket[1] += 1
                event = self._table[slot]
                self._table[slot] = None
                self._free.append(slot)
                callbacks, event.callbacks = event.callbacks, None
        self.events_processed += 1
        if self._prov is not None:
            self._cause = event
        for callback in callbacks:
            callback(event)
        self._cause = None
        if self._order is None:
            bucket = self._buckets.get(self._now)
            if bucket is not None and self._bucket_drained(bucket):
                self._retire_bucket(self._now)
        if not event._ok and not event._defused:
            exc = event._value
            raise exc if isinstance(exc, BaseException) else SimulationError(
                repr(exc)
            )

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), a time
        (run up to that time), or an :class:`Event` (run until it fires and
        return its value).
        """
        if self._order is not None:
            return self._run_ordered(until)
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise ValueError("until is in the past")

        # Inlined hot loop (equivalent to repeated `step()` calls): one
        # outer iteration drains one calendar bucket — every event at
        # that timestamp, urgent lane first — skipping the per-event
        # peek/stop checks that can't change within a batch.  Events
        # scheduled by a callback are never earlier than `now`, so
        # same-time arrivals append to the live bucket and join the
        # current batch in exactly the order `step()` would have popped
        # them; the stop event is still re-checked after every event so
        # `until`-capped runs process precisely the same prefix.
        times = self._times
        buckets = self._buckets
        table = self._table
        free = self._free
        bpool = self._bpool
        heappop = heapq.heappop
        # Hoisted: cause tracking is only paid for when a provenance hook
        # is installed (a hook installed mid-run starts tracking at the
        # next run() call).  The inline succeed→resume chain is enabled
        # only for uncapped-by-event, untracked runs: with a stop event
        # it could run events past the stop point, and with cause
        # tracking the consumed delivery would go unattributed.
        track = self._prov is not None
        chain = stop_event is None and not track
        try:
            while times:
                # `callbacks is None` is the inlined `processed` property.
                if stop_event is not None and stop_event.callbacks is None:
                    if not stop_event._ok:
                        stop_event._defused = True
                        raise stop_event._value
                    return stop_event._value
                when = times[0]
                if when > stop_time:
                    self._now = stop_time
                    return None
                self._now = when
                bucket = buckets[when]
                lane = bucket[0]
                self._bnow = lane
                self._bcur = bucket
                # Cached lane length: refreshed only when the cursor
                # catches up, so same-time arrivals appended mid-drain
                # are still seen.  The solo gate may read it stale — it
                # is a heuristic; the resume fast path revalidates
                # against live bucket state before consuming anything.
                n = len(lane)
                while True:
                    # The urgent lane drains first; within it, a
                    # negative handle (``~slot``) heads a two-entry pair
                    # (late listener on an already-processed event) and
                    # is delivered directly — the zero-alloc equivalent
                    # of a _Relay event in the same lane position.  A
                    # normal-lane pop implies the urgent lane is
                    # exhausted, so the solo gate there only has to
                    # check its own lane.
                    urgent = bucket[2]
                    if urgent is not None and bucket[3] < len(urgent):
                        i = bucket[3]
                        slot = urgent[i]
                        if slot < 0:
                            bucket[3] = i + 2
                            slot = ~slot
                            callback = table[slot]
                            table[slot] = None
                            free.append(slot)
                            oslot = urgent[i + 1]
                            event = table[oslot]
                            table[oslot] = None
                            free.append(oslot)
                            self.events_processed += 1
                            if track:
                                self._cause = event
                            self._solo = False
                            callback(event)
                            if not event._ok and not event._defused:
                                if self._bucket_drained(bucket):
                                    self._retire_bucket(when)
                                exc = event._value
                                raise exc if isinstance(
                                    exc, BaseException
                                ) else SimulationError(repr(exc))
                            if (
                                stop_event is not None
                                and stop_event.callbacks is None
                            ):
                                break
                            continue
                        bucket[3] = i + 1
                        solo = (
                            chain
                            and i + 1 >= len(urgent)
                            and bucket[1] >= n
                        )
                    else:
                        i = bucket[1]
                        if i >= n:
                            n = len(lane)
                            if i >= n:
                                break
                        bucket[1] = i + 1
                        slot = lane[i]
                        solo = chain and i + 1 >= n
                    event = table[slot]
                    table[slot] = None
                    free.append(slot)
                    self.events_processed += 1
                    if track:
                        self._cause = event
                    callbacks = event.callbacks
                    event.callbacks = None
                    if solo and len(callbacks) == 1:
                        self._solo = True
                        callbacks[0](event)
                    else:
                        self._solo = False
                        for callback in callbacks:
                            callback(event)
                    if not event._ok and not event._defused:
                        if self._bucket_drained(bucket):
                            self._retire_bucket(when)
                        exc = event._value
                        raise exc if isinstance(
                            exc, BaseException
                        ) else SimulationError(repr(exc))
                    if stop_event is not None and stop_event.callbacks is None:
                        break
                # Inlined _bucket_drained: once per bucket, but there is
                # one bucket per event in unique-timestamp workloads.
                if bucket[1] >= len(lane) and (
                    bucket[2] is None or bucket[3] >= len(bucket[2])
                ):
                    del buckets[when]
                    heappop(times)
                    lane.clear()
                    bucket[1] = 0
                    bucket[2] = None
                    bucket[3] = 0
                    bpool.append(bucket)
                self._bnow = None
                self._bcur = None
        finally:
            self._solo = False
            if track:
                self._cause = None

        if stop_event is not None:
            if stop_event.processed:
                if not stop_event._ok:
                    stop_event._defused = True
                    raise stop_event._value
                return stop_event._value
            raise SimulationError(
                "simulation ran out of events before `until` event fired"
            )
        if stop_time != float("inf"):
            self._now = stop_time
        return None

    def _run_ordered(self, until: Optional[float | Event] = None) -> Any:
        """Legacy heap engine: :meth:`run` under a :class:`SchedulingOrder`.

        Kept verbatim from the pre-calendar kernel so ``jets explore``
        schedule permutations (and their digests) replay exactly.
        """
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise ValueError("until is in the past")

        heap = self._heap
        heappop = heapq.heappop
        track = self._prov is not None
        try:
            while heap:
                if stop_event is not None and stop_event.callbacks is None:
                    if not stop_event._ok:
                        stop_event._defused = True
                        raise stop_event._value
                    return stop_event._value
                when = heap[0][0]
                if when > stop_time:
                    self._now = stop_time
                    return None
                self._now = when
                while heap and heap[0][0] == when:
                    event = heappop(heap)[-1]
                    self.events_processed += 1
                    if track:
                        self._cause = event
                    callbacks, event.callbacks = event.callbacks, None
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        exc = event._value
                        raise exc if isinstance(
                            exc, BaseException
                        ) else SimulationError(repr(exc))
                    if stop_event is not None and stop_event.callbacks is None:
                        break
        finally:
            if track:
                self._cause = None

        if stop_event is not None:
            if stop_event.processed:
                if not stop_event._ok:
                    stop_event._defused = True
                    raise stop_event._value
                return stop_event._value
            raise SimulationError(
                "simulation ran out of events before `until` event fired"
            )
        if stop_time != float("inf"):
            self._now = stop_time
        return None
