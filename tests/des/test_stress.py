"""Stress and interaction tests for the DES kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment, Resource, Store


class TestManyProcesses:
    def test_thousand_timers_in_order(self):
        env = Environment()
        fired = []
        for i in range(1000):
            env.timeout((1000 - i) * 0.001).add_callback(
                lambda _e, j=i: fired.append(j)
            )
        env.run()
        assert fired == list(range(999, -1, -1))

    def test_producer_consumer_pipeline(self):
        env = Environment()
        stage1: Store = Store(env)
        stage2: Store = Store(env)
        results = []

        def producer():
            for i in range(50):
                yield env.timeout(0.1)
                stage1.put(i)

        def worker():
            while True:
                item = yield stage1.get()
                yield env.timeout(0.05)
                stage2.put(item * 2)

        def consumer():
            for _ in range(50):
                item = yield stage2.get()
                results.append(item)

        env.process(producer())
        env.process(worker())
        done = env.process(consumer())
        env.run(done)
        assert results == [i * 2 for i in range(50)]

    def test_resource_throughput_accounting(self):
        env = Environment()
        resource = Resource(env, capacity=3)
        completed = []

        def job(i):
            req = resource.request()
            yield req
            yield env.timeout(1.0)
            resource.release()
            completed.append((i, env.now))

        for i in range(30):
            env.process(job(i))
        env.run()
        # 30 unit jobs on 3 servers: makespan exactly 10.
        assert max(t for _, t in completed) == pytest.approx(10.0)
        assert len(completed) == 30


class TestDeterminism:
    @given(st.lists(st.floats(0.001, 10.0, allow_nan=False), min_size=1,
                    max_size=50))
    @settings(max_examples=40)
    def test_event_order_is_reproducible(self, delays):
        def run_once():
            env = Environment()
            order = []
            for i, d in enumerate(delays):
                env.timeout(d).add_callback(lambda _e, j=i: order.append(j))
            env.run()
            return order

        assert run_once() == run_once()

    @given(st.lists(st.floats(0.0, 5.0, allow_nan=False), min_size=2,
                    max_size=30))
    @settings(max_examples=40)
    def test_clock_is_monotone(self, delays):
        env = Environment()
        stamps = []

        def proc():
            for d in delays:
                yield env.timeout(d)
                stamps.append(env.now)

        env.process(proc())
        env.run()
        assert stamps == sorted(stamps)
        assert env.now == pytest.approx(sum(delays))
