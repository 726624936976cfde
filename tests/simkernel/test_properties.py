"""Property-based tests (hypothesis) for the simulation kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel import Environment, Gauge, Resource, Store


@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=60, deadline=None)
def test_events_fire_in_nondecreasing_time_order(delays):
    """Completion times observed by processes never go backwards."""
    env = Environment()
    seen = []

    def waiter(d):
        yield env.timeout(d)
        seen.append(env.now)

    for d in delays:
        env.process(waiter(d))
    env.run()
    assert seen == sorted(seen)
    assert len(seen) == len(delays)


@given(
    holds=st.lists(
        st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
        min_size=1,
        max_size=25,
    ),
    capacity=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_resource_never_exceeds_capacity(holds, capacity):
    """At no instant do more than `capacity` holders exist."""
    env = Environment()
    res = Resource(env, capacity)
    violations = []

    def proc(hold):
        with res.request() as req:
            yield req
            if res.count > capacity:
                violations.append(res.count)
            yield env.timeout(hold)

    for h in holds:
        env.process(proc(h))
    env.run()
    assert not violations
    assert res.count == 0  # everything released


@given(
    items=st.lists(st.integers(), min_size=1, max_size=50),
)
@settings(max_examples=60, deadline=None)
def test_store_conserves_items(items):
    """Everything put into a store comes out exactly once, in order."""
    env = Environment()
    store = Store(env)
    out = []

    def producer():
        for it in items:
            yield store.put(it)

    def consumer():
        for _ in items:
            v = yield store.get()
            out.append(v)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert out == items


@given(
    steps=st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=10, allow_nan=False),
            st.floats(min_value=-5, max_value=5, allow_nan=False),
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=60, deadline=None)
def test_gauge_integral_matches_manual_sum(steps):
    """Gauge integration equals the hand-computed rectangle sum."""
    env = Environment()
    g = Gauge(env, 0.0)
    expected = 0.0
    now = 0.0
    level = 0.0

    def proc():
        nonlocal expected, now, level
        for dt, delta in steps:
            yield env.timeout(dt)
            expected += level * dt
            now += dt
            level += delta
            g.add(delta)

    env.process(proc())
    env.run()
    assert abs(g.integral(0.0, now) - expected) < 1e-6
