"""Tests for Trace, Counter and Gauge instrumentation."""

import pytest

from repro.simkernel import Counter, Gauge, Trace


class TestTrace:
    def test_log_records_time_and_category(self, env):
        trace = Trace(env)

        def proc():
            trace.log("a", 1)
            yield env.timeout(2)
            trace.log("b", {"x": 2})

        env.process(proc())
        env.run()
        assert len(trace) == 2
        assert trace.select("a")[0].time == 0
        assert trace.select("b")[0].data == {"x": 2}
        assert trace.times("b") == [2]

    def test_select_filters(self, env):
        trace = Trace(env)
        trace.log("x")
        trace.log("y")
        trace.log("x")
        assert len(trace.select("x")) == 2
        assert trace.select("z") == []


class TestCounter:
    def test_incr(self):
        c = Counter("n")
        assert c.incr() == 1
        assert c.incr(4) == 5
        assert c.value == 5


class TestGauge:
    def test_step_integral(self, env):
        g = Gauge(env, 0)

        def proc():
            yield env.timeout(2)
            g.set(10)
            yield env.timeout(3)
            g.set(0)
            yield env.timeout(1)

        env.process(proc())
        env.run()
        assert g.integral() == pytest.approx(30.0)
        assert g.mean() == pytest.approx(5.0)
        assert g.max() == 10

    def test_add(self, env):
        g = Gauge(env, 1)
        g.add(2)
        g.add(-1)
        assert g.value == 2

    def test_partial_window_integral(self, env):
        g = Gauge(env, 4)

        def proc():
            yield env.timeout(10)
            g.set(0)
            yield env.timeout(10)

        env.process(proc())
        env.run()
        assert g.integral(5, 15) == pytest.approx(4 * 5)
        assert g.mean(5, 15) == pytest.approx(2.0)

    def test_empty_window(self, env):
        g = Gauge(env, 1)
        assert g.integral(5, 5) == 0.0
        assert g.mean(3, 3) == 0.0


class TestTracePrefixSelect:
    def test_prefix_matches_category_family(self, env):
        trace = Trace(env)
        trace.log("job.queued")
        trace.log("job.done")
        trace.log("jobless")
        trace.log("worker.idle")
        assert len(trace.select("job.", prefix=True)) == 2
        assert trace.times("job.", prefix=True) == [0, 0]

    def test_exact_match_stays_default(self, env):
        trace = Trace(env)
        trace.log("job.queued")
        trace.log("job.queued.extra")
        assert len(trace.select("job.queued")) == 1
        assert len(trace.select("job.queued", prefix=True)) == 2


class TestCounterTraceHookup:
    def test_connect_mirrors_increments(self, env):
        trace = Trace(env)
        c = Counter("ops").connect(trace)
        assert c.connected

        def proc():
            c.incr()
            yield env.timeout(1)
            c.incr(2)

        env.process(proc())
        env.run()
        recs = trace.select("counter.ops")
        assert [(r.time, r.data["value"]) for r in recs] == [(0, 1), (1, 3)]
        assert recs[0].data["counter"] == "ops"

    def test_custom_category(self, env):
        trace = Trace(env)
        c = Counter("n", trace=trace, category="my.cat")
        c.incr()
        assert len(trace.select("my.cat")) == 1

    def test_unconnected_counter_does_not_log(self, env):
        c = Counter("quiet")
        assert not c.connected
        c.incr()  # no trace attached; must not raise


class TestGaugeCoalescing:
    def test_same_timestamp_keeps_last_value(self, env):
        g = Gauge(env, 0)
        g.set(5)
        g.set(7)  # same sim time: replaces, not appends
        assert g.series() == [(0, 7)]

    def test_distinct_timestamps_append(self, env):
        g = Gauge(env, 0)

        def proc():
            g.set(1)
            yield env.timeout(2)
            g.set(2)
            g.set(3)

        env.process(proc())
        env.run()
        assert g.series() == [(0, 1), (2, 3)]

    def test_integral_unaffected_by_transients(self, env):
        g = Gauge(env, 0)

        def proc():
            g.set(100)  # transient at t=0...
            g.set(2)    # ...settles to 2 in the same instant
            yield env.timeout(5)

        env.process(proc())
        env.run()
        assert g.integral() == pytest.approx(10.0)


class TestTraceIndex:
    """Category queries agree with a linear scan over the records."""

    def _fill(self, env):
        trace = Trace(env)

        def proc():
            for i in range(30):
                trace.log(f"job.s{i % 3}", {"i": i})
                trace.log("worker.tick", i)
                yield env.timeout(1)

        env.process(proc())
        env.run()
        return trace

    def test_select_matches_linear_scan(self, env):
        trace = self._fill(env)
        for cat in ("job.s0", "job.s1", "worker.tick", "nope"):
            expected = [r for r in trace.records if r.category == cat]
            assert trace.select(cat) == expected

    def test_prefix_select_matches_linear_scan_in_time_order(self, env):
        trace = self._fill(env)
        expected = [
            r for r in trace.records if r.category.startswith("job.")
        ]
        assert trace.select("job.", prefix=True) == expected
        assert trace.times("job.", prefix=True) == [r.time for r in expected]

    def test_categories_in_first_appearance_order(self, env):
        trace = self._fill(env)
        assert trace.categories() == [
            "job.s0", "worker.tick", "job.s1", "job.s2"
        ]
        assert trace.categories("job.") == ["job.s0", "job.s1", "job.s2"]

    def test_index_stays_live_after_new_logs(self, env):
        trace = Trace(env)
        trace.log("a", 1)
        assert len(trace.select("a")) == 1
        trace.log("a", 2)  # a log after a query is seen by the next one
        assert [r.data for r in trace.select("a")] == [1, 2]

    def test_categories_are_interned(self, env):
        trace = Trace(env)
        trace.log("job." + "dispatch", None)  # dynamically-built string
        trace.log("job." + "dispatch", None)
        a, b = (r.category for r in trace.records)
        assert a is b


class TestGaugeWindowedIntegral:
    """The bisect-windowed integral must equal the full-scan answer."""

    def _reference(self, samples, t0, t1):
        # Mirrors the historical full-scan formulation: the last sample
        # extends to the window end (the gauge holds its value).
        total = 0.0
        for (ta, va), (tb, _vb) in zip(samples, samples[1:]):
            lo, hi = max(ta, t0), min(tb, t1)
            if hi > lo:
                total += va * (hi - lo)
        ta, va = samples[-1]
        lo = max(ta, t0)
        if t1 > lo:
            total += va * (t1 - lo)
        return total

    def _fill(self, env, n=40):
        g = Gauge(env, 0)

        def proc():
            for i in range(n):
                g.set((i * 7) % 11)
                yield env.timeout(1.5)

        env.process(proc())
        env.run()
        return g

    def test_windows_match_full_scan(self, env):
        g = self._fill(env)
        samples = g.series()
        now = env.now
        windows = [
            (0.0, now), (3.0, 9.0), (2.25, 2.26), (0.0, 0.0),
            (10.0, 55.0), (-5.0, 3.0), (now - 1.0, now + 10.0),
        ]
        for t0, t1 in windows:
            assert g.integral(t0, t1) == pytest.approx(
                self._reference(samples, t0, t1)
            ), (t0, t1)

    def test_window_before_first_sample_is_zero(self, env):
        g = Gauge(env, 0)

        def proc():
            yield env.timeout(5)
            g.set(3)
            yield env.timeout(5)

        env.process(proc())
        env.run()
        # Gauge records its initial value at construction time (t=0),
        # so the early window integrates the initial 0.
        assert g.integral(0.0, 4.0) == pytest.approx(0.0)
        assert g.integral(6.0, 8.0) == pytest.approx(6.0)

    def test_degenerate_and_inverted_windows(self, env):
        g = self._fill(env, n=5)
        assert g.integral(3.0, 3.0) == 0.0
        assert g.integral(9.0, 2.0) == 0.0
