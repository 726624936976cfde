"""Edge cases of the calendar-queue scheduler.

The engine keeps events in per-timestamp buckets of lanes with a heap
of unique bucket times as the sorted overflow; these tests pin down its
boundary behavior — negative delays, float-precision time keys, rollover
past sparse far-future horizons, lanes that keep no delivered event
(including after condition defusal), and the same buckets under a
:class:`SchedulingOrder`.
"""

import pytest

from repro.simkernel import (
    AllOf,
    AnyOf,
    Environment,
    SchedulingOrder,
    SeededOrder,
    SimulationError,
)


def _lanes_are_clean(env: Environment) -> bool:
    """No event outlives its delivery: every lane entry before its cursor
    is ``None``, and a pooled bucket holds nothing."""
    for normal, ncur, urgent, ucur in env._buckets.values():
        if any(e is not None for e in normal[:ncur] + (urgent or [])[:ucur]):
            return False
    return all(not b[0] and b[2] is None for b in env._bpool)


class TestNegativeDelay:
    def test_timeout_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-0.5)

    def test_timeout_negative_delay_rejected_mid_run(self, env):
        seen = []

        def proc(env):
            yield env.timeout(1.0)
            try:
                yield env.timeout(-1e-9)
            except ValueError:
                seen.append(env.now)

        env.process(proc(env))
        env.run()
        assert seen == [1.0]

    def test_negative_delay_rejected_under_order_too(self):
        env = Environment(order=SchedulingOrder())
        with pytest.raises(ValueError):
            env.timeout(-2.0)


class TestFloatPrecisionTies:
    def test_accumulated_and_direct_times_are_distinct_buckets(self):
        """0.1 + 0.2 != 0.3 in floats: the calendar must not merge them.

        The bucket key is the exact float timestamp — the same tie
        criterion the legacy heap's ``==`` comparison used — so two
        events whose times differ in the last ulp fire in float order,
        not insertion order.
        """
        env = Environment()
        order = []

        def late(env):  # scheduled first, fires second (0.1+0.2 > 0.3)
            yield env.timeout(0.1)
            yield env.timeout(0.2)
            order.append(("late", env.now))

        def early(env):
            yield env.timeout(0.3)
            order.append(("early", env.now))

        env.process(late(env))
        env.process(early(env))
        env.run()
        assert [name for name, _t in order] == ["early", "late"]
        times = [t for _name, t in order]
        assert times[0] == 0.3 and times[1] == 0.1 + 0.2
        assert times[0] != times[1]

    def test_equal_float_times_share_a_bucket_fifo(self):
        env = Environment()
        order = []

        def proc(env, tag, delay):
            yield env.timeout(delay)
            order.append(tag)

        # 0.5 + 0.25 is exact in binary; both land in the 0.75 bucket
        # and fire in schedule order.
        env.process(proc(env, "a", 0.75))
        env.process(proc(env, "b", 0.5 + 0.25))
        env.run()
        assert order == ["a", "b"]
        assert not env._buckets and not env._times

    def test_peek_reports_earliest_bucket(self, env):
        env.timeout(2.0)
        env.timeout(1.0)
        env.timeout(3.0)
        assert env.peek() == pytest.approx(1.0)
        env.run()
        assert env.peek() == float("inf")


class TestHorizonRollover:
    def test_sparse_far_future_times_fire_in_order(self):
        """Far-apart irregular timestamps exercise the overflow heap."""
        env = Environment()
        fired = []
        delays = [9000.0, 1.0, 123456.789, 7.25, 31557600.0, 0.125]

        def proc(env, d):
            yield env.timeout(d)
            fired.append(env.now)

        for d in delays:
            env.process(proc(env, d))
        env.run()
        assert fired == sorted(delays)
        assert env.now == max(delays)
        assert _lanes_are_clean(env)

    def test_dense_near_and_sparse_far_interleave(self):
        env = Environment()
        fired = []

        def near(env):
            for _ in range(100):
                yield env.timeout(0.5)
                fired.append(env.now)

        def far(env):
            yield env.timeout(40.0)
            fired.append(env.now)

        env.process(near(env))
        env.process(far(env))
        env.run()
        assert fired == sorted(fired)
        assert fired.count(40.0) == 2  # near's 80th tick ties with far
        assert not env._buckets and not env._times

    def test_run_until_between_buckets_advances_clock(self):
        env = Environment()
        ticks = []

        def proc(env):
            while True:
                yield env.timeout(10.0)
                ticks.append(env.now)

        env.process(proc(env))
        env.run(until=35.0)
        assert ticks == [10.0, 20.0, 30.0]
        assert env.now == 35.0
        # The 40.0 bucket is still pending; resuming picks it up.
        env.run(until=45.0)
        assert ticks[-1] == 40.0


class TestHandleRecycling:
    def test_slots_recycled_after_run(self):
        env = Environment()

        def worker(env):
            for _ in range(50):
                ev = env.event()
                ev.succeed()
                yield ev
                yield env.timeout(0.25)

        procs = [env.process(worker(env)) for _ in range(8)]
        # Stopping on the first worker's end leaves its bucket part-drained.
        env.run(until=procs[0])
        assert any(b[1] for b in env._buckets.values())
        assert _lanes_are_clean(env)
        env.run()
        assert _lanes_are_clean(env)

    def test_allof_defusal_recycles_slots(self):
        env = Environment()
        outcome = []

        def failer(env):
            yield env.timeout(1.0)
            raise RuntimeError("boom")

        def waiter(env):
            procs = [env.process(failer(env)) for _ in range(3)]
            try:
                yield AllOf(env, procs)
            except RuntimeError:
                outcome.append("failed")
            # Remaining failures are already-defused stale wakeups.
            yield env.timeout(5.0)

        env.process(waiter(env))
        env.run()
        assert outcome == ["failed"]
        assert _lanes_are_clean(env)

    def test_anyof_defusal_recycles_slots(self):
        env = Environment()
        got = []

        def quick(env):
            yield env.timeout(1.0)
            return "quick"

        def slow(env):
            yield env.timeout(3.0)
            return "slow"

        def waiter(env):
            winner = yield AnyOf(
                env, [env.process(quick(env)), env.process(slow(env))]
            )
            got.append(sorted(winner.values()))

        env.process(waiter(env))
        env.run()
        assert got == [["quick"]]
        assert _lanes_are_clean(env)

    def test_late_listener_pair_slots_recycled(self):
        env = Environment()
        hits = []

        def proc(env):
            ev = env.event()
            ev.succeed("v")
            yield ev
            # ev is processed now: late listeners ride the urgent lane
            # as (callback, origin) pairs (or a relay outside fast mode).
            ev._add_callback(lambda e: hits.append(e.value))
            ev._add_callback(lambda e: hits.append(e.value))
            yield env.timeout(1.0)

        env.process(proc(env))
        env.run()
        assert hits == ["v", "v"]
        assert _lanes_are_clean(env)


class TestEngineCoexistence:
    @staticmethod
    def _workload(env):
        log = []

        def worker(env, i):
            for r in range(10):
                yield env.timeout((i % 3) * 0.5)
                ev = env.event()
                ev.succeed((i, r))
                got = yield ev
                log.append((env.now, got))

        for i in range(6):
            env.process(worker(env, i))
        env.run()
        return log, env.events_processed

    def test_seed_zero_order_matches_calendar_engine(self):
        """SeededOrder(0) (ordered lanes, FIFO tiebreak) == calendar FIFO."""
        fifo_log, fifo_events = self._workload(Environment())
        heap_log, heap_events = self._workload(
            Environment(order=SeededOrder(0))
        )
        assert fifo_log == heap_log
        assert fifo_events == heap_events

    def test_seeded_permutations_replay_exactly(self):
        logs = {}
        for seed in (7, 7, 19):
            log, _events = self._workload(
                Environment(order=SeededOrder(seed))
            )
            logs.setdefault(seed, []).append(log)
        assert logs[7][0] == logs[7][1]  # same seed: identical replay
        # Different seeds permute simultaneous events but process the
        # same multiset of deliveries.
        assert sorted(logs[7][0]) == sorted(logs[19][0])

    def test_order_routes_to_calendar_buckets(self):
        env = Environment(order=SeededOrder(3))
        a, b, c = env.timeout(1.0), env.timeout(1.0), env.timeout(2.0)
        (lane, cursor, urgent, _), later = env._buckets.values()
        # The 1.0 lane is sorted by the drawn keys, not schedule order.
        assert sorted(lane, key=lambda e: e._key) == lane
        assert set(lane) == {a, b} and later[0] == [c]
        assert cursor == 0 and urgent is None and env._times == [1.0, 2.0]
        env.run()
        assert not env._buckets and not env._times

    def test_fifo_routes_to_calendar_engine(self, env):
        env.timeout(1.0)
        assert env._buckets and env._times == [1.0]
        env.run()
        assert not env._buckets
