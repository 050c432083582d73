"""Tests for DES resources: Resource, Store."""

import pytest

from repro.des import Environment, Resource, Store
from repro.util.errors import SimulationError


class TestResource:
    def test_capacity_respected(self):
        env = Environment()
        res = Resource(env, capacity=2)
        trace = []

        def worker(name, hold):
            req = res.request()
            yield req
            trace.append((env.now, name, "start"))
            yield env.timeout(hold)
            res.release()
            trace.append((env.now, name, "end"))

        for i, hold in enumerate([3.0, 3.0, 3.0]):
            env.process(worker(i, hold))
        env.run()
        starts = {name: t for t, name, kind in trace if kind == "start"}
        assert starts[0] == 0.0 and starts[1] == 0.0
        assert starts[2] == 3.0  # third waits for a slot

    def test_fifo_order(self):
        env = Environment()
        res = Resource(env, capacity=1)
        order = []

        def worker(name):
            yield res.request()
            order.append(name)
            yield env.timeout(1.0)
            res.release()

        for name in "abc":
            env.process(worker(name))
        env.run()
        assert order == ["a", "b", "c"]

    def test_release_without_hold_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            Resource(env).release()

    def test_counters(self):
        env = Environment()
        res = Resource(env, capacity=1)
        res.request()
        res.request()
        assert res.queued == 1

    def test_invalid_capacity(self):
        with pytest.raises(SimulationError):
            Resource(Environment(), capacity=0)


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)
        store.put("x")
        ev = store.get()
        env.run()
        assert ev.value == "x"

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)
        got = []

        def consumer():
            item = yield store.get()
            got.append((env.now, item))

        def producer():
            yield env.timeout(2.0)
            store.put("late")

        env.process(consumer())
        env.process(producer())
        env.run()
        assert got == [(2.0, "late")]

    def test_fifo_items_and_getters(self):
        env = Environment()
        store = Store(env)
        store.put(1)
        store.put(2)
        a, b = store.get(), store.get()
        env.run()
        assert (a.value, b.value) == (1, 2)
        assert len(store) == 0

