"""The calendar queue under an order against the heap engine it replaced.

:class:`HeapEnvironment` below is the ordered engine as it stood before
orders moved into the calendar lanes: one flat heap of ``(time,
priority, tiebreak, seq, event)`` 5-tuples, popped one at a time.  It is
kept here, and only here, as the reference.  Under an order ``_fast`` is
False, so every event the kernel schedules reaches its ``_schedule``, and
its ``run`` never sets ``_solo``, so the inline succeed→resume chain
never fires on it.  :class:`~repro.simkernel.Environment` must deliver
the same events in the same order on every small random program: the
same log, event count, provenance calls, raised exceptions and clock.
"""

from __future__ import annotations

import heapq
from typing import Any, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel import (
    Environment,
    Event,
    Interrupt,
    SchedulingOrder,
    SeededOrder,
    SimulationError,
)


class HeapEnvironment(Environment):
    """Reference: the pre-fold 5-tuple heap engine (needs an order)."""

    __slots__ = ("_heap", "_seq")

    def __init__(self, order: SchedulingOrder):
        super().__init__(order=order)
        self._heap: list[tuple] = []
        self._seq = 0

    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        if delay < 0.0:
            raise ValueError(f"negative delay {delay}")
        t = self._now + delay
        self._seq += 1
        heapq.heappush(
            self._heap,
            (t, priority, self._order.tiebreak(event), self._seq, event),
        )
        if self._prov is not None:
            self._prov(self._cause, event, t)

    def peek(self) -> float:
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        if not self._heap:
            raise SimulationError("no more events")
        entry = heapq.heappop(self._heap)
        when, event = entry[0], entry[-1]
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        self.events_processed += 1
        if self._prov is not None:
            self._cause = event
        for callback in callbacks:
            callback(event)
        self._cause = None
        if not event._ok and not event._defused:
            exc = event._value
            raise exc if isinstance(exc, BaseException) else SimulationError(
                repr(exc)
            )

    def run(self, until: Optional[float | Event] = None) -> Any:
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise ValueError("until is in the past")

        heap = self._heap
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
                    event = heapq.heappop(heap)[-1]
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


#: Shared delays, and two that differ in the last ulp (0.1 + 0.2 > 0.3).
DELAYS = (0.0, 0.5, 1.0, 0.3, 0.1 + 0.2)
SHARED = 3

OPS = st.one_of(
    st.tuples(st.just("timeout"), st.sampled_from(DELAYS)),
    st.tuples(st.just("succeed"), st.none()),
    st.tuples(st.just("wait"), st.integers(0, SHARED - 1)),
    st.tuples(st.just("fire"), st.integers(0, SHARED - 1)),
    st.tuples(st.just("interrupt"), st.integers(0, 7)),
    st.tuples(st.just("all_of"), st.lists(st.sampled_from(DELAYS), max_size=3)),
    st.tuples(st.just("late"), st.integers(0, SHARED)),
    st.tuples(st.just("fail"), st.none()),
    st.tuples(st.just("crash"), st.none()),
)
PROGRAMS = st.lists(st.lists(OPS, max_size=6), min_size=1, max_size=5)
MODES = st.sampled_from(["run", "until_time", "until_event", "step", "prov"])
SEEDS = st.integers(min_value=1, max_value=(1 << 64) - 1)


def _body(env, pid, ops, shared, procs, log):
    for k, (kind, arg) in enumerate(ops):
        try:
            got: Any = None
            if kind == "timeout":
                got = yield env.timeout(arg, value=(pid, k))
            elif kind == "succeed":
                ev = env.event()
                ev.succeed((pid, k))
                got = yield ev
            elif kind == "wait":
                got = yield shared[arg]
            elif kind == "fire":
                if not shared[arg].triggered:
                    shared[arg].succeed((pid, k))
            elif kind == "interrupt":
                target = procs[arg % len(procs)]
                if target.is_alive and target is not env.active_process:
                    target.interrupt((pid, k))
            elif kind == "all_of":
                fired = yield env.all_of(
                    [env.timeout(d, value=(pid, k, j)) for j, d in enumerate(arg)]
                )
                got = sorted(fired.values())
            elif kind == "late":
                # A late listener on a processed event: a fresh one, or a
                # shared one once it has fired.
                ev = shared[arg] if arg < SHARED else env.event()
                if not ev.triggered:
                    ev.succeed((pid, k))
                got = yield ev
                ev._add_callback(
                    lambda e, k=k: log.append(("late", pid, k, env.now, e.value))
                )
            elif kind == "fail":
                ev = env.event()
                ev.fail(ValueError(f"fail {pid}.{k}"))
                try:
                    yield ev
                except ValueError as exc:
                    got = str(exc)
            else:
                raise RuntimeError(f"crash {pid}.{k}")
        except Interrupt as intr:
            got = ("interrupted", intr.cause)
        log.append((pid, k, kind, env.now, got))
    return pid


def _drive(env: Environment, program, mode: str, until: float) -> dict:
    """Run ``program`` on ``env`` in ``mode``; everything observable."""
    log: list = []
    calls: list = []
    seen: dict = {}

    def name(ev):
        if ev is None:
            return None
        if ev not in seen:
            seen[ev] = (len(seen), type(ev).__name__)
        return seen[ev]

    if mode == "prov":
        env.set_provenance(
            lambda cause, ev, when: calls.append((name(cause), name(ev), when))
        )
    shared = [env.event() for _ in range(SHARED)]
    procs: list = []
    for pid, ops in enumerate(program):
        procs.append(env.process(_body(env, pid, ops, shared, procs, log)))
    outcome: list = []
    for _attempt in range(3):
        try:
            if mode == "step":
                while env.peek() < float("inf"):
                    env.step()
            elif mode == "until_time":
                env.run(until=until)
                outcome.append(("paused", env.now, len(log)))
                env.run()
            elif mode == "until_event":
                outcome.append(("value", env.run(until=procs[0])))
                env.run()
            else:
                env.run()
            outcome.append("drained")
            break
        except Exception as exc:
            outcome.append((type(exc).__name__, str(exc)))
    return {
        "log": log,
        "outcome": outcome,
        "events": env.events_processed,
        "calls": calls,
        "now": env.now,
    }


@settings(max_examples=300, deadline=None)
@given(program=PROGRAMS, mode=MODES, seed=SEEDS, until=st.sampled_from(DELAYS))
def test_ordered_calendar_matches_heap_engine(program, mode, seed, until):
    want = _drive(HeapEnvironment(SeededOrder(seed)), program, mode, until)
    got = _drive(Environment(order=SeededOrder(seed)), program, mode, until)
    assert got == want


@settings(max_examples=100, deadline=None)
@given(program=PROGRAMS, mode=MODES, until=st.sampled_from(DELAYS))
def test_fifo_forms_agree(program, mode, until):
    """The FIFO calendar (inline paths and chain on), the calendar under
    the constant base order, and the heap reference at seed 0."""
    want = _drive(HeapEnvironment(SeededOrder(0)), program, mode, until)
    assert _drive(Environment(), program, mode, until) == want
    assert _drive(Environment(order=SchedulingOrder()), program, mode, until) == want
