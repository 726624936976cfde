"""Tests for the DES kernel: events, processes, conditions, interrupts."""

import gc

import pytest

from repro.simkernel import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Resource,
    SeededOrder,
    SimulationError,
    Store,
)


class TestEvent:
    def test_succeed_carries_value(self, env):
        ev = env.event()
        ev.succeed(42)
        assert ev.triggered and ev.ok
        assert ev.value == 42

    def test_double_trigger_rejected(self, env):
        ev = env.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()
        with pytest.raises(SimulationError):
            ev.fail(RuntimeError("x"))

    def test_value_before_trigger_raises(self, env):
        ev = env.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_fail_requires_exception(self, env):
        ev = env.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_failed_event_raises_in_process(self, env):
        ev = env.event()
        caught = []

        def proc():
            try:
                yield ev
            except ValueError as exc:
                caught.append(exc)

        env.process(proc())
        ev.fail(ValueError("boom"))
        env.run()
        assert len(caught) == 1


class TestTimeout:
    def test_timeout_advances_clock(self, env):
        def proc():
            yield env.timeout(3.5)
            return env.now

        p = env.process(proc())
        env.run()
        assert p.value == 3.5

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_timeout_value_passthrough(self, env):
        def proc():
            v = yield env.timeout(1, value="hello")
            return v

        p = env.process(proc())
        env.run()
        assert p.value == "hello"

    def test_timeouts_fire_in_order(self, env):
        order = []

        def waiter(d, tag):
            yield env.timeout(d)
            order.append(tag)

        env.process(waiter(3, "c"))
        env.process(waiter(1, "a"))
        env.process(waiter(2, "b"))
        env.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo_by_creation(self, env):
        order = []

        def waiter(tag):
            yield env.timeout(1)
            order.append(tag)

        for tag in "abc":
            env.process(waiter(tag))
        env.run()
        assert order == ["a", "b", "c"]


class TestProcess:
    def test_return_value(self, env):
        def proc():
            yield env.timeout(1)
            return "done"

        p = env.process(proc())
        env.run()
        assert p.value == "done"

    def test_process_is_waitable_event(self, env):
        def inner():
            yield env.timeout(2)
            return 10

        def outer():
            v = yield env.process(inner())
            return v + 1

        p = env.process(outer())
        env.run()
        assert p.value == 11

    def test_yield_from_composition(self, env):
        def inner():
            yield env.timeout(1)
            return 5

        def outer():
            v = yield from inner()
            yield env.timeout(1)
            return v * 2

        p = env.process(outer())
        env.run()
        assert p.value == 10
        assert env.now == 2

    def test_non_generator_rejected(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_yield_non_event_raises_in_process(self, env):
        def proc():
            yield 42

        env.process(proc())
        with pytest.raises(SimulationError):
            env.run()

    def test_exception_propagates_to_run(self, env):
        def proc():
            yield env.timeout(1)
            raise RuntimeError("kaboom")

        env.process(proc())
        with pytest.raises(RuntimeError, match="kaboom"):
            env.run()

    def test_exception_caught_by_waiter_is_defused(self, env):
        def bad():
            yield env.timeout(1)
            raise RuntimeError("inner")

        def waiter():
            try:
                yield env.process(bad())
            except RuntimeError:
                return "handled"

        p = env.process(waiter())
        env.run()
        assert p.value == "handled"

    def test_is_alive(self, env):
        def proc():
            yield env.timeout(5)

        p = env.process(proc())
        assert p.is_alive
        env.run()
        assert not p.is_alive

    def test_yield_already_processed_event(self, env):
        ev = env.event()
        ev.succeed(7)

        def proc():
            yield env.timeout(1)
            v = yield ev  # already processed by now
            return v

        p = env.process(proc())
        env.run()
        assert p.value == 7

    def test_finished_process_holds_no_bound_method_to_itself(self, env):
        # A bound method of a finished process would make it a reference
        # cycle, leaving every terminated process to the cycle collector.
        def returns():
            yield env.timeout(1)

        def raises():
            yield env.timeout(1)
            raise RuntimeError("x")

        def waiter(p):
            try:
                yield p
            except RuntimeError:
                pass

        done = env.process(returns())
        failed = env.process(raises())
        env.process(waiter(failed))
        assert any(_bound_to(r, done) for r in gc.get_referents(done))
        env.run()
        for p in (done, failed):
            assert not p.is_alive
            assert not any(_bound_to(r, p) for r in gc.get_referents(p))


def _bound_to(obj, target) -> bool:
    return getattr(obj, "__self__", None) is target


class TestInterrupt:
    def test_interrupt_delivers_cause(self, env):
        causes = []

        def victim():
            try:
                yield env.timeout(100)
            except Interrupt as i:
                causes.append(i.cause)
                return "interrupted"

        def killer(p):
            yield env.timeout(1)
            p.interrupt("die")

        p = env.process(victim())
        env.process(killer(p))
        result = env.run(p)
        assert result == "interrupted"
        assert causes == ["die"]
        assert env.now == 1  # the stale timeout has not fired yet

    def test_interrupt_terminated_raises(self, env):
        def victim():
            yield env.timeout(1)

        p = env.process(victim())
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_self_interrupt_rejected(self, env):
        def victim():
            yield env.timeout(0)
            me = env.active_process
            me.interrupt()

        env.process(victim())
        with pytest.raises(SimulationError):
            env.run()

    def test_stale_target_after_interrupt_ignored(self, env):
        """The original wait target firing later must not resume the process."""
        log = []

        def victim():
            try:
                yield env.timeout(10)
            except Interrupt:
                log.append(("interrupted", env.now))
            yield env.timeout(50)
            log.append(("done", env.now))

        def killer(p):
            yield env.timeout(2)
            p.interrupt()

        p = env.process(victim())
        env.process(killer(p))
        env.run()
        assert log == [("interrupted", 2), ("done", 52)]


class TestConditions:
    def test_all_of_waits_for_all(self, env):
        def proc():
            e1, e2 = env.timeout(1), env.timeout(3)
            yield env.all_of([e1, e2])
            return env.now

        p = env.process(proc())
        env.run()
        assert p.value == 3

    def test_any_of_fires_on_first(self, env):
        def proc():
            e1, e2 = env.timeout(5), env.timeout(2)
            result = yield env.any_of([e1, e2])
            return env.now, e2 in result

        p = env.process(proc())
        env.run(10)
        assert p.value == (2, True)

    def test_all_of_empty_fires_immediately(self, env):
        def proc():
            yield env.all_of([])
            return env.now

        p = env.process(proc())
        env.run()
        assert p.value == 0

    def test_all_of_fails_on_member_failure(self, env):
        def bad():
            yield env.timeout(1)
            raise ValueError("member")

        def proc():
            try:
                yield env.all_of([env.process(bad()), env.timeout(10)])
            except ValueError:
                return "failed"

        p = env.process(proc())
        env.run(20)
        assert p.value == "failed"

    def test_condition_value_maps_events(self, env):
        def proc():
            e1 = env.timeout(1, value="a")
            e2 = env.timeout(2, value="b")
            result = yield env.all_of([e1, e2])
            return sorted(result.values())

        p = env.process(proc())
        env.run()
        assert p.value == ["a", "b"]

    def test_fired_condition_drops_its_events(self, env):
        # The untriggered side keeps the condition's callback; a kept
        # event list would close that into a cycle.
        pending = env.event()
        cond = env.any_of([pending, env.timeout(1)])
        env.run()
        assert cond.triggered and cond._events is None
        assert list(cond.value.values()) == [None]


class TestRun:
    def test_run_until_time(self, env):
        def proc():
            while True:
                yield env.timeout(1)

        env.process(proc())
        env.run(until=5.5)
        assert env.now == 5.5

    def test_run_until_event_returns_value(self, env):
        def proc():
            yield env.timeout(2)
            return "finished"

        p = env.process(proc())
        assert env.run(p) == "finished"

    def test_run_until_past_rejected(self, env):
        env.process(iter_timeout(env))
        env.run(5)
        with pytest.raises(ValueError):
            env.run(1)

    def test_run_exhausts_events(self, env):
        def proc():
            yield env.timeout(7)

        env.process(proc())
        env.run()
        assert env.now == 7
        assert env.peek() == float("inf")

    def test_run_until_unreachable_event_raises(self, env):
        ev = env.event()  # never triggered

        def proc():
            yield env.timeout(1)

        env.process(proc())
        with pytest.raises(SimulationError):
            env.run(ev)

    def test_determinism(self):
        """Identical setups produce identical completion traces."""

        def build():
            e = Environment()
            log = []

            def worker(tag, d):
                yield e.timeout(d)
                log.append((tag, e.now))

            for i in range(20):
                e.process(worker(i, (i * 7) % 5 + 0.5))
            e.run()
            return log

        assert build() == build()


def iter_timeout(env):
    yield env.timeout(10)


class TestRelay:
    """Late callbacks on already-processed events (the relay path)."""

    def test_late_callback_delivers_origin(self, env):
        ev = env.event()
        ev.succeed(42)
        env.run()
        assert ev.processed
        seen = []
        ev._add_callback(seen.append)
        env.run()
        # The listener receives the origin (with its value), not the
        # internal relay event.
        assert seen == [ev]
        assert seen[0].value == 42

    def test_late_callback_fires_at_current_time(self, env):
        ev = env.event()
        ev.succeed()
        env.run()
        fired_at = []
        ev._add_callback(lambda e: fired_at.append(env.now))
        env.process(iter_timeout(env))  # something later on the heap
        env.run()
        assert fired_at == [0]

    def test_late_listener_on_defused_failure_does_not_reraise(self, env):
        """Regression: the relay must copy the origin's ``_defused``.

        A failed event whose exception was already caught is settled; a
        late passive listener must not make the scheduler re-raise it.
        """
        ev = env.event()
        caught = []

        def first():
            try:
                yield ev
            except RuntimeError as exc:
                caught.append(exc)

        env.process(first())
        ev.fail(RuntimeError("boom"))
        env.run()
        assert len(caught) == 1
        seen = []
        ev._add_callback(seen.append)
        env.run()  # must not raise RuntimeError("boom") again
        assert seen == [ev]

    def test_listener_defusing_during_relay_suppresses_reraise(self, env):
        """A late process that catches the failure defuses the relay too."""
        ev = env.event()
        ev.fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError):
            env.run()
        assert ev.processed and not ev._defused
        caught = []

        def late():
            try:
                yield ev
            except RuntimeError as exc:
                caught.append(exc)

        env.process(late())
        env.run()  # the catch above must settle the relay as well
        assert len(caught) == 1

    def test_late_listener_ignoring_failure_still_raises(self, env):
        """An un-handled relayed failure keeps crashing the run."""
        ev = env.event()
        ev.fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError):
            env.run()
        ev._add_callback(lambda e: None)  # looks, does not catch
        with pytest.raises(RuntimeError):
            env.run()


class TestClose:
    """``Environment.close()`` ends a run without running any of it."""

    @pytest.fixture(params=["fifo", "seeded"])
    def parked(self, request):
        env = Environment(
            order=SeededOrder(7) if request.param == "seeded" else None
        )
        finals: list[str] = []
        fired: list[object] = []
        untriggered = env.event()
        resource = Resource(env, capacity=1)
        store = Store(env)

        def parks(name, make):
            try:
                yield make()
            finally:
                finals.append(name)

        def holder():
            req = resource.request()
            yield req
            try:
                yield env.timeout(50)
            finally:
                finals.append("holder")

        env.process(holder())
        procs = [
            env.process(parks("timeout", lambda: env.timeout(10))),
            env.process(parks("event", lambda: untriggered)),
            env.process(parks("request", resource.request)),
            env.process(parks("store", store.get)),
            env.process(
                parks(
                    "any_of",
                    lambda: env.any_of([untriggered, env.timeout(20)]),
                )
            ),
        ]
        env.run(until=1)
        for proc in procs:
            proc.callbacks.append(fired.append)
        untriggered.callbacks.append(fired.append)
        env.timeout(3).callbacks.append(fired.append)
        # Created after the run stopped: closed before it ever starts.
        env.process(parks("unstarted", lambda: env.timeout(1)))
        return env, procs, finals, fired

    def test_close_ends_every_process_and_empties_calendar(self, parked):
        env, procs, _finals, _fired = parked
        assert all(p.is_alive for p in procs)
        env.close()
        assert not any(p.is_alive for p in procs)
        assert not env._live
        assert env.peek() == float("inf")
        env.run()  # nothing left to deliver
        assert env.now == 1

    def test_each_finally_runs_once_and_no_callback_runs(self, parked):
        env, _procs, finals, fired = parked
        env.close()
        assert sorted(finals) == sorted(
            ["holder", "timeout", "event", "request", "store", "any_of"]
        )
        assert fired == []

    def test_clock_and_event_count_unchanged(self, parked):
        env = parked[0]
        now, processed = env.now, env.events_processed
        env.close()
        assert (env.now, env.events_processed) == (now, processed)

    def test_second_close_is_a_no_op(self, parked):
        env, _procs, finals, fired = parked
        env.close()
        ran = list(finals)
        env.close()
        assert finals == ran and fired == []
        assert env.peek() == float("inf")

    def test_closed_processes_free_by_reference_counting(self, parked):
        env, procs, _finals, _fired = parked
        env.close()
        for proc in procs:
            assert proc._generator.gi_frame is None
            assert not any(_bound_to(r, proc) for r in gc.get_referents(proc))
