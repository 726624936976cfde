"""Tests for Resource, Store and FilterStore."""

import gc

import pytest

from repro.simkernel import FilterStore, Resource, Store
from tests.conftest import bytes_per_instance


class TestResource:
    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Resource(env, 0)

    def test_grant_within_capacity_immediate(self, env):
        res = Resource(env, 2)
        got = []

        def proc(tag):
            req = res.request()
            yield req
            got.append((tag, env.now))
            yield env.timeout(1)
            res.release(req)

        env.process(proc("a"))
        env.process(proc("b"))
        env.run()
        assert [t for _tag, t in got] == [0, 0]

    def test_granted_request_is_not_its_own_value(self, env):
        # A request carrying itself as its value is a reference cycle per
        # grant; the grant carries no value.
        res = Resource(env, 1)
        req = res.request()
        env.run()
        assert req.triggered and req.ok
        assert req.value is None
        assert req not in gc.get_referents(req)

    def test_fifo_queueing(self, env):
        res = Resource(env, 1)
        order = []

        def proc(tag, hold):
            with res.request() as req:
                yield req
                order.append(tag)
                yield env.timeout(hold)

        for tag in "abc":
            env.process(proc(tag, 1))
        env.run()
        assert order == ["a", "b", "c"]

    def test_count_and_queue_length(self, env):
        res = Resource(env, 1)

        def holder():
            with res.request() as req:
                yield req
                yield env.timeout(5)

        def waiter():
            with res.request() as req:
                yield req

        env.process(holder())
        env.process(waiter())
        env.run(1)
        assert res.count == 1
        assert res.queue_length == 1

    def test_release_pending_cancels(self, env):
        res = Resource(env, 1)

        def holder():
            with res.request() as r:
                yield r
                yield env.timeout(10)

        env.process(holder())
        env.run(1)
        req = res.request()
        res.release(req)  # cancel before grant
        assert res.queue_length == 0

    def test_context_manager_releases(self, env):
        res = Resource(env, 1)

        def proc():
            with res.request() as req:
                yield req
                yield env.timeout(1)

        env.process(proc())
        env.run()
        assert res.count == 0


class TestStore:
    def test_put_then_get(self, env):
        store = Store(env)

        def proc():
            yield store.put("x")
            item = yield store.get()
            return item

        p = env.process(proc())
        env.run()
        assert p.value == "x"

    def test_get_blocks_until_put(self, env):
        store = Store(env)

        def getter():
            item = yield store.get()
            return env.now, item

        def putter():
            yield env.timeout(3)
            yield store.put("late")

        p = env.process(getter())
        env.process(putter())
        env.run()
        assert p.value == (3, "late")

    def test_fifo_item_order(self, env):
        store = Store(env)
        out = []

        def producer():
            for i in range(5):
                yield store.put(i)

        def consumer():
            for _ in range(5):
                item = yield store.get()
                out.append(item)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert out == [0, 1, 2, 3, 4]

    def test_capacity_blocks_put(self, env):
        store = Store(env, capacity=1)
        times = []

        def producer():
            yield store.put("a")
            times.append(env.now)
            yield store.put("b")
            times.append(env.now)

        def consumer():
            yield env.timeout(4)
            yield store.get()

        env.process(producer())
        env.process(consumer())
        env.run()
        assert times == [0, 4]

    def test_cancel_get(self, env):
        store = Store(env)
        get_ev = store.get()
        store.cancel_get(get_ev)
        store.put("x")
        env.run()
        assert store.items == ["x"]
        assert not get_ev.triggered

    def test_len_and_items(self, env):
        store = Store(env)
        store.put(1)
        store.put(2)
        env.run()
        assert len(store) == 2
        assert store.items == [1, 2]

    def test_waiting_getters_served_in_arrival_order(self, env):
        store = Store(env)
        gets = [store.get() for _ in range(3)]
        for item in "abc":
            store.put(item)
        env.run()
        assert [g.value for g in gets] == ["a", "b", "c"]

    def test_blocked_putters_admitted_in_arrival_order(self, env):
        store = Store(env, capacity=1)
        puts = [store.put(i) for i in range(4)]
        out = []

        def consumer():
            for _ in range(4):
                out.append((yield store.get()))

        env.process(consumer())
        env.run()
        assert out == [0, 1, 2, 3]
        assert all(p.triggered for p in puts)

    def test_idle_store_costs_at_most_1_kb(self, env):
        # List-backed queues: 289 B on CPython 3.11, against 2,401 B
        # with three preallocated deques; the bound leaves room for
        # 3.10's larger instance dicts.
        assert bytes_per_instance(lambda _: Store(env)) <= 1_000


class TestFilterStore:
    def test_filtered_get(self, env):
        store = FilterStore(env)

        def proc():
            yield store.put(("a", 1))
            yield store.put(("b", 2))
            item = yield store.get(lambda it: it[0] == "b")
            return item

        p = env.process(proc())
        env.run()
        assert p.value == ("b", 2)
        assert store.items == [("a", 1)]

    def test_unmatched_get_waits(self, env):
        store = FilterStore(env)

        def getter():
            item = yield store.get(lambda it: it == "wanted")
            return env.now, item

        def putter():
            yield store.put("other")
            yield env.timeout(2)
            yield store.put("wanted")

        p = env.process(getter())
        env.process(putter())
        env.run()
        assert p.value == (2, "wanted")

    def test_multiple_getters_matched_independently(self, env):
        store = FilterStore(env)
        out = {}

        def getter(key):
            item = yield store.get(lambda it, key=key: it[0] == key)
            out[key] = item[1]

        env.process(getter("x"))
        env.process(getter("y"))

        def putter():
            yield env.timeout(1)
            yield store.put(("y", 20))
            yield store.put(("x", 10))

        env.process(putter())
        env.run()
        assert out == {"x": 10, "y": 20}

    def test_serving_a_later_getter_keeps_the_others_in_order(self, env):
        store = FilterStore(env)
        gets = [store.get(lambda it, k=k: it[0] == k) for k in "xyx"]
        store.put(("y", 0))  # serves the middle getter only
        store.put(("x", 1))
        store.put(("x", 2))
        env.run()
        assert [g.value for g in gets] == [("x", 1), ("y", 0), ("x", 2)]
