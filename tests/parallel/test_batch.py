"""schedule_batch: bit-identical to the serial path, clear failures."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import ScheduleCache, cached_schedule
from repro.core.schedule import Schedule
from repro.graph.bipartite import BipartiteGraph
from repro.parallel import make_schedule_pool, schedule_batch
from repro.parallel.pool import WorkerTaskError
from repro.util.errors import ConfigError
from tests.conftest import bipartite_graphs

ALGORITHMS = ("ggp", "oggp", "greedy")
ENGINES = ("fast", "vector", "reference")


def flat(schedule: Schedule) -> tuple:
    """Every observable field, for exact equality checks."""
    return (
        schedule.k,
        schedule.beta,
        tuple(
            (
                step.duration,
                tuple(
                    (t.edge_id, t.left, t.right, t.amount)
                    for t in step.transfers
                ),
            )
            for step in schedule.steps
        ),
    )


@st.composite
def graph_batches(draw):
    """A small batch with deliberate duplicates (same pattern, new ids)."""
    base = draw(st.lists(bipartite_graphs(), min_size=1, max_size=4))
    graphs = list(base)
    for index in draw(
        st.lists(st.integers(0, len(base) - 1), min_size=0, max_size=3)
    ):
        graphs.append(base[index].copy())
    return graphs


class TestBitIdentical:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("engine", ENGINES)
    @given(graphs=graph_batches(), k=st.integers(1, 6), beta=st.sampled_from([0.0, 1.0]))
    @settings(max_examples=8, deadline=None)
    def test_batch_equals_serial_cached_loop(
        self, algorithm, engine, graphs, k, beta
    ):
        serial_cache = ScheduleCache()
        serial = [
            cached_schedule(
                g, k=k, beta=beta, algorithm=algorithm, engine=engine,
                cache=serial_cache,
            )
            for g in graphs
        ]
        batch_cache = ScheduleCache()
        batch = schedule_batch(
            graphs, algorithm, k=k, beta=beta, engine=engine, jobs=2,
            cache=batch_cache, min_parallel_items=0,
        )
        assert [flat(s) for s in serial] == [flat(b) for b in batch]
        assert serial_cache.stats()["hits"] == batch_cache.stats()["hits"]
        assert serial_cache.stats()["misses"] == batch_cache.stats()["misses"]

    def test_uncached_batch_equals_plain_loop(self):
        graphs = [
            BipartiteGraph.from_edges([(0, 0, 4), (0, 1, 2), (1, 1, 3)]),
            BipartiteGraph.from_edges([(0, 0, 5), (1, 0, 1)]),
        ]
        serial = [
            cached_schedule(g, k=2, beta=1.0, algorithm="oggp", cache=None)
            for g in graphs
        ]
        batch = schedule_batch(graphs, "oggp", k=2, beta=1.0, jobs=2, cache=None)
        assert [flat(s) for s in serial] == [flat(b) for b in batch]

    def test_jobs_one_is_serial(self):
        graphs = [BipartiteGraph.from_edges([(0, 0, 2)])]
        cache = ScheduleCache()
        batch = schedule_batch(graphs, "oggp", k=1, beta=0.0, jobs=1, cache=cache)
        assert flat(batch[0]) == flat(
            cached_schedule(graphs[0], k=1, beta=0.0, algorithm="oggp")
        )

    def test_empty_batch(self):
        assert schedule_batch([], "oggp", k=1, beta=0.0, jobs=2) == []

    def test_reused_pool_across_batches(self):
        g1 = BipartiteGraph.from_edges([(0, 0, 4), (0, 1, 2)])
        g2 = BipartiteGraph.from_edges([(0, 0, 3), (1, 1, 3)])
        with make_schedule_pool(jobs=2) as pool:
            first = schedule_batch(
                [g1, g2], "oggp", k=2, beta=1.0, pool=pool, cache=None
            )
            second = schedule_batch(
                [g1], "ggp", k=2, beta=1.0, pool=pool, cache=None
            )
        assert flat(first[0]) == flat(
            cached_schedule(g1, k=2, beta=1.0, algorithm="oggp", cache=None)
        )
        assert flat(second[0]) == flat(
            cached_schedule(g1, k=2, beta=1.0, algorithm="ggp", cache=None)
        )

    def test_schedules_validate(self):
        graphs = [
            BipartiteGraph.from_edges([(0, 0, 4), (0, 1, 2), (1, 1, 3)]),
            BipartiteGraph.from_edges([(0, 0, 1), (1, 1, 6), (1, 0, 2)]),
        ]
        for schedule, graph in zip(
            schedule_batch(graphs, "oggp", k=2, beta=1.0, jobs=2, cache=None),
            graphs,
        ):
            schedule.validate(graph)


class TestMetricsPort:
    def test_result_equals_the_call_without_a_port(self, monkeypatch):
        import repro.obs.server as server

        served = []

        class Recording(server.MetricsServer):
            def __enter__(self):
                running = super().__enter__()
                served.append(running.port)
                return running

        monkeypatch.setattr(server, "MetricsServer", Recording)
        graphs = [
            BipartiteGraph.from_edges([(0, 0, 4), (0, 1, 2), (1, 1, 3)]),
            BipartiteGraph.from_edges([(0, 0, 1), (1, 1, 6), (1, 0, 2)]),
        ]
        plain = schedule_batch(graphs, "oggp", k=2, beta=1.0, cache=None)
        assert served == []
        live = schedule_batch(
            graphs, "oggp", k=2, beta=1.0, cache=None, metrics_port=0
        )
        assert len(served) == 1 and served[0] > 0
        assert [flat(s) for s in live] == [flat(s) for s in plain]


class TestValidation:
    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError, match="unknown algorithm"):
            schedule_batch([], "simplex", k=1, beta=0.0)

    def test_unknown_engine_lists_valid_ones(self):
        with pytest.raises(ConfigError, match="fast.*vector.*approx.*reference"):
            schedule_batch([], "oggp", k=1, beta=0.0, engine="warp")

    def test_removed_resume_engine_rejected(self):
        graph = BipartiteGraph.from_edges([(0, 0, 2)])
        with pytest.raises(ConfigError, match="valid engines"):
            schedule_batch([graph], "oggp", k=1, beta=0.0, engine="resume")


class TestFailureSurfacing:
    def test_worker_error_names_graph_index(self):
        good = BipartiteGraph.from_edges([(0, 0, 2)])
        # wrgp requires a square weight-regular graph; this one is not,
        # so the worker raises and the error must name graph 1.
        bad = BipartiteGraph.from_edges([(0, 0, 2), (0, 1, 5)])
        with pytest.raises(WorkerTaskError, match="graph 1 of the batch") as exc:
            schedule_batch(
                [good, bad], "wrgp", k=1, beta=0.0, jobs=2, cache=None,
                min_parallel_items=0,
            )
        assert exc.value.index == 1
        assert "wrgp" in str(exc.value)


class TestFaultTolerance:
    def test_bit_identical_under_injected_crashes(self):
        """Crashed workers are respawned and retried; the output must
        still match the serial path exactly."""
        from repro.graph.generators import random_bipartite
        from repro.resilience import FaultSpec, RetryPolicy

        graphs = [random_bipartite(s, max_side=5, max_edges=15) for s in range(8)]
        plan = FaultSpec(seed=13, worker_crash_rate=0.35).plan()
        retry = RetryPolicy(max_attempts=6, backoff_base=0.0, jitter=0.0)
        faulted = schedule_batch(
            graphs, "oggp", k=3, beta=1.0, jobs=2, cache=None,
            retry=retry, fault_plan=plan, min_parallel_items=0,
        )
        serial = schedule_batch(graphs, "oggp", k=3, beta=1.0, jobs=1, cache=None)
        assert [flat(s) for s in faulted] == [flat(s) for s in serial]

    def test_crashes_without_retry_fail_loudly(self):
        from repro.parallel.pool import WorkerCrashError
        from repro.resilience import FaultSpec

        g = BipartiteGraph.from_edges([(0, 0, 2)])
        plan = FaultSpec(seed=1, worker_crash_rate=1.0).plan()
        with pytest.raises(WorkerCrashError):
            schedule_batch(
                [g], "oggp", k=1, beta=0.0, jobs=2, cache=None, fault_plan=plan,
                min_parallel_items=0,
            )


class TestSerialFallback:
    """Tiny batches skip worker fan-out (cost cutoff) but stay identical."""

    def _tiny_batch(self):
        from repro.graph.generators import random_bipartite

        return [random_bipartite(s, max_side=4, max_edges=10) for s in range(4)]

    def test_small_batch_falls_back_to_serial(self):
        from repro import obs

        graphs = self._tiny_batch()
        with obs.observed() as (reg, _tr):
            batched = schedule_batch(graphs, "oggp", k=3, beta=1.0, jobs=4, cache=None)
        assert reg.counter("parallel.batch.serial_fallback").value == 1
        serial = schedule_batch(graphs, "oggp", k=3, beta=1.0, jobs=1, cache=None)
        assert [flat(s) for s in batched] == [flat(s) for s in serial]

    def test_min_parallel_items_zero_forces_fanout(self):
        from repro import obs

        graphs = self._tiny_batch()
        with obs.observed() as (reg, _tr):
            schedule_batch(
                graphs, "oggp", k=3, beta=1.0, jobs=2, cache=None,
                min_parallel_items=0,
            )
        assert reg.counter("parallel.batch.serial_fallback").value == 0

    def test_min_parallel_items_threshold(self):
        from repro import obs

        graphs = self._tiny_batch()
        with obs.observed() as (reg, _tr):
            schedule_batch(
                graphs, "oggp", k=3, beta=1.0, jobs=2, cache=None,
                min_parallel_items=len(graphs) + 1,
            )
        assert reg.counter("parallel.batch.serial_fallback").value == 1

    def test_explicit_pool_never_falls_back(self):
        from repro import obs

        graphs = self._tiny_batch()
        with make_schedule_pool(jobs=2) as pool:
            with obs.observed() as (reg, _tr):
                batched = schedule_batch(
                    graphs, "oggp", k=3, beta=1.0, pool=pool, cache=None
                )
        assert reg.counter("parallel.batch.serial_fallback").value == 0
        serial = schedule_batch(graphs, "oggp", k=3, beta=1.0, jobs=1, cache=None)
        assert [flat(s) for s in batched] == [flat(s) for s in serial]
