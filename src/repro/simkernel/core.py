"""Discrete-event simulation kernel.

A small, deterministic, generator-based DES engine in the style of SimPy.
Every other subsystem in this reproduction (cluster nodes, network fabric,
the JETS dispatcher, MPI bootstrap, the Swift dataflow engine) is expressed
as :class:`Process` coroutines scheduled by an :class:`Environment`.

Determinism: events are ordered by ``(time, priority, tiebreak, sequence)``
where the sequence is schedule order, so two runs with the same seed
produce identical traces.  The ``tiebreak`` term is 0.0 by default (pure
FIFO among same-time, same-priority events — the historical ordering,
bit-identical to older kernels); a pluggable :class:`SchedulingOrder` may
perturb it to systematically explore alternative legal schedules (``jets
explore``), exactly because any ordering of simultaneous events is a
schedule the real system could exhibit.

One calendar queue realizes that contract.  Events live in per-timestamp
buckets addressed by an exact-float time key, with a small heap of
*unique* bucket times as the sorted overflow for far-future/irregular
timestamps.  A bucket holds an urgent and a normal lane of events, and
popping one is a cursor bump.  Without an order a lane is append-ordered;
under one, each event is sorted into the undelivered part of its lane by
its tiebreak, after equal keys, so ties keep schedule order.  Exact-float
keys are the tie criterion the old heap used (``==`` on the time column),
which keeps every schedule byte-identical to the heap-based kernels.

See DESIGN.md §16 for the data layout and the legality argument for the
inline succeed→resume fast path.
"""

from __future__ import annotations

import functools
import heapq
from bisect import insort_right
from operator import attrgetter
from typing import Any, Callable, Generator, Iterable, Optional

import numpy as np

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

#: Hoisted allocator for the inlined event factories.
_new = object.__new__
_heappush = heapq.heappush
#: Sort key of an ordered lane: the tiebreak :meth:`Environment._insert`
#: drew for the event.
_by_key = attrgetter("_key")


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
    chained ``__init__`` double-writes.  ``_key`` is set only under a
    :class:`SchedulingOrder`: the tiebreak that sorts the event into its
    calendar lane.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused", "_key")

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
        # hottest scheduling site): append to the current bucket's normal
        # lane.  The tiebreak and provenance branches stay out of line
        # (_fast is False whenever either is installed).
        env = self.env
        if env._fast:
            lane = env._bnow
            if lane is not None:
                lane.append(self)
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
            # scheduler so ordering stays deterministic.  Fast mode puts a
            # ``(callback, origin)`` pair on the current bucket's urgent
            # lane, in exactly the lane position a relay event would
            # occupy.  Outside fast mode (an order or a provenance hook
            # installed, or no live current bucket) the :class:`_Relay`
            # bridge is a scheduled event, which the hook sees and the
            # order keys.
            env = self.env
            bucket = env._bcur
            if env._fast and bucket is not None:
                lane = bucket[2]
                if lane is None:
                    bucket[2] = [(callback, self)]
                else:
                    lane.append((callback, self))
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
        # append with no heap traffic at all.
        if env._fast:
            t = env._now + delay
            bucket = env._buckets.get(t)
            if bucket is not None:
                bucket[0].append(self)
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
                # (_solo), and it sits at the current bucket's
                # normal-lane cursor with the urgent lane exhausted — so
                # the scheduler's very next pop would deliver exactly
                # this event to exactly this process.  Consume the entry
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
                            and lane[i] is next_target
                            and (
                                bucket[2] is None
                                or bucket[3] >= len(bucket[2])
                            )
                        ):
                            lane[i] = None
                            bucket[1] = i + 1
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

    The calendar queue realizes the key: an installed order (even the
    FIFO-equivalent base class) draws one tiebreak per scheduled event,
    and the event is sorted into its lane by it, after equal keys.  It
    also turns off the inline append paths, which only FIFO allows.
    """

    __slots__ = ()

    def tiebreak(self, event: "Event") -> float:
        """Tiebreak key for one newly scheduled event (lower pops first)."""
        return 0.0


#: xorshift64* constants of :class:`SeededOrder`'s stream.
_MASK = (1 << 64) - 1
_MIX = 0x2545F4914F6CDD1D
_GOLDEN = 0x9E3779B97F4A7C15
_MIX64 = np.uint64(_MIX)
#: Draws per :class:`SeededOrder` block.
_BLOCK = 256


@functools.cache
def _step_table() -> np.ndarray:
    """``[b, k]`` is bit ``b`` alone after ``k + 1`` state steps (64 x
    ``_BLOCK`` uint64, 128 KB), built by the first refill."""
    # Shift amounts typed np.uint64: under numpy 1.x promotion, uint64
    # mixed with a Python int can become float64.
    a, b, c = np.uint64(12), np.uint64(25), np.uint64(27)
    x = np.uint64(1) << np.arange(64, dtype=np.uint64)
    steps = np.empty((64, _BLOCK), dtype=np.uint64)
    for k in range(_BLOCK):
        x ^= x >> a
        x ^= x << b
        x ^= x >> c
        steps[:, k] = x
    return steps


class SeededOrder(SchedulingOrder):
    """Deterministic pseudo-random tie permutation.

    Draws each tiebreak from a xorshift64* stream, so two runs with the
    same seed replay the same schedule exactly and the kernel stays off
    the process-global ``random``.  Seed 0 is reserved for the FIFO
    baseline.

    The stream is made in exact blocks of ``_BLOCK`` draws.  The state
    step ``x ^= x >> 12; x ^= x << 25; x ^= x >> 27`` (mod 2**64) is
    linear over GF(2), so the next ``_BLOCK`` states are the XOR of the
    ``_step_table()`` rows picked out by the current state's set bits.
    Each output ``(x * MIX mod 2**64) / 2**64`` comes from uint64
    wraparound, a correctly rounded uint64 -> float64 conversion and an
    exact scaling by 2**-64, bit-identical to the scalar ``int /
    float(1 << 64)``.  The step is invertible, so a nonzero state never
    steps to zero.
    """

    __slots__ = ("seed", "_state", "_block")

    def __init__(self, seed: int):
        self.seed = int(seed)
        #: The current block, next draw last; ``_state`` made ``_block[0]``.
        self._block: list[float] = []
        if self.seed == 0:
            self._state = None  # FIFO baseline: constant tiebreak
        else:
            self._state = (self.seed ^ _GOLDEN) & _MASK or _MIX

    def tiebreak(self, event: "Event") -> float:
        block = self._block
        if not block:
            if self._state is None:
                return 0.0
            self._refill()
        return block.pop()

    def _refill(self) -> None:
        x = self._state
        states = np.bitwise_xor.reduce(
            _step_table()[[b for b in range(64) if x >> b & 1]], axis=0
        )
        self._state = int(states[-1])
        draws = np.ldexp((states * _MIX64).astype(np.float64), -64)
        self._block.extend(draws[::-1].tolist())


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

    The scheduler is a calendar queue:

    ``_buckets``
        ``{time: [normal_lane, normal_cursor, urgent_lane, urgent_cursor]}``
        — one bucket per *exact* float timestamp.  Lanes are lists of
        events; cursors index the next undelivered one, and delivery
        stores ``None`` over the entry it takes.  Without an order a lane
        is append-only; under one it is sorted by ``Event._key`` from its
        cursor on.  A ``(callback, origin)`` tuple on an urgent lane is a
        late listener on a processed event (fast mode only).  The urgent
        lane is lazily allocated (URGENT events are only ever scheduled at
        the current time, so far-future buckets never carry one).
    ``_times``
        Min-heap of the *unique* live bucket timestamps — the sorted
        overflow structure.  A time is pushed exactly once (bucket
        creation) and popped only when its bucket has fully drained, so
        ``_times[0]`` is always the next delivery time.
    ``_bnow`` / ``_bcur``
        Cache of the bucket at ``_now`` (its normal lane, and the bucket
        itself) or ``None`` — the target of the inlined
        :meth:`Event.succeed` / zero-delay :class:`Timeout` fast paths
        and of the inline succeed→resume consumption in
        :meth:`Process._resume`.
    """

    __slots__ = (
        "_now",
        "_order",
        "_fast",
        "_prov",
        "_cause",
        "_buckets",
        "_times",
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
        self._bnow: Optional[list[Event]] = None
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
        # Deleting keys one at a time leaves the dict its peak table, and
        # the pool holds the run's drained buckets: a closed environment
        # that a session keeps (``Trace.env``) would keep both.
        self._live = {}
        self._bpool.clear()
        for bucket in self._buckets.values():
            # Delivered entries are None and late-listener pairs hold a
            # processed origin: only undelivered events keep callbacks.
            for entry in bucket[0] + (bucket[2] or []):
                if isinstance(entry, Event):
                    entry.callbacks = None
        self._buckets.clear()
        self._times.clear()
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
            bucket = self._buckets.get(t)
            if bucket is not None:
                bucket[0].append(ev)
            else:
                # Inlined bucket-miss path (the common case for
                # irregular far-future delays): pooled bucket + overflow
                # registration, mirroring _insert for NORMAL priority.
                pool = self._bpool
                if pool:
                    bucket = pool.pop()
                    bucket[0].append(ev)
                else:
                    bucket = [[ev], 0, None, 0]
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

        Observation-only: event ordering follows the
        :class:`SchedulingOrder` exactly as without a hook, so the
        default FIFO schedule stays byte-identical.  Installing a
        hook mid-``run()`` takes effect for scheduling immediately but
        for cause tracking only at the next ``run()``/``step()`` call.
        """
        self._prov = hook
        self._fast = self._order is None and hook is None

    def _insert(self, event: Event, priority: int, t: float) -> None:
        """Calendar-queue insert: one event into its bucket's lane.

        The general (non-inlined) path: creates the bucket and registers
        its time in the ``_times`` overflow heap on first use, and keeps
        the ``_bnow``/``_bcur`` current-bucket cache coherent.  Under an
        order the event takes its tiebreak as ``_key``; a new bucket takes
        it as its only entry, and a live lane sorts it into its
        undelivered part after equal keys, which is the heap's
        ``(tiebreak, seq)`` order.
        """
        if priority != NORMAL and priority != URGENT:
            raise SimulationError(f"unsupported priority {priority!r}")
        order = self._order
        if order is not None:
            event._key = order.tiebreak(event)
        buckets = self._buckets
        bucket = buckets.get(t)
        if bucket is None:
            pool = self._bpool
            bucket = pool.pop() if pool else [[], 0, None, 0]
            if priority == NORMAL:
                bucket[0].append(event)
            else:
                bucket[2] = [event]
            buckets[t] = bucket
            heapq.heappush(self._times, t)
        else:
            at = 0 if priority == NORMAL else 2
            lane = bucket[at]
            if lane is None:
                bucket[2] = [event]
            elif order is None:
                lane.append(event)
            else:
                insort_right(lane, event, bucket[at + 1], key=_by_key)
        if t == self._now:
            self._bnow = bucket[0]
            self._bcur = bucket

    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        if delay < 0.0:
            raise ValueError(f"negative delay {delay}")
        t = self._now + delay
        self._insert(event, priority, t)
        if self._prov is not None:
            self._prov(self._cause, event, t)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
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
            i = bucket[3]
            bucket[3] = i + 1
        else:
            lane = bucket[0]
            i = bucket[1]
            bucket[1] = i + 1
        event = lane[i]
        lane[i] = None
        if event.__class__ is tuple:
            callback, event = event
            callbacks = (callback,)
        else:
            callbacks, event.callbacks = event.callbacks, None
        self.events_processed += 1
        if self._prov is not None:
            self._cause = event
        for callback in callbacks:
            callback(event)
        self._cause = None
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
        # same-time arrivals join the live bucket at or after its cursor
        # and the current batch in exactly the order `step()` would have
        # popped them; the stop event is still re-checked after every
        # event so `until`-capped runs process precisely the same prefix.
        times = self._times
        buckets = self._buckets
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
                # catches up, so same-time arrivals added mid-drain are
                # still seen.  The solo gate may read it stale — it is a
                # heuristic; the resume fast path revalidates against
                # live bucket state before consuming anything.
                n = len(lane)
                while True:
                    # The urgent lane drains first; a tuple there is a
                    # late listener on an already-processed event, and
                    # its origin goes to that one callback, as a _Relay
                    # in the same lane position would deliver it.  A
                    # normal-lane pop implies the urgent lane is
                    # exhausted, so the solo gate there only has to
                    # check its own lane.
                    urgent = bucket[2]
                    if urgent is not None and bucket[3] < len(urgent):
                        i = bucket[3]
                        bucket[3] = i + 1
                        event = urgent[i]
                        urgent[i] = None
                        if event.__class__ is tuple:
                            callback, event = event
                            callbacks = (callback,)
                            solo = False
                        else:
                            callbacks = event.callbacks
                            event.callbacks = None
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
                        event = lane[i]
                        lane[i] = None
                        callbacks = event.callbacks
                        event.callbacks = None
                        solo = chain and i + 1 >= n
                    self.events_processed += 1
                    if track:
                        self._cause = event
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
