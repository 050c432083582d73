"""Schedule cache: canonical keying, remapping, isolation, LRU."""

import pytest
from hypothesis import given, settings

from repro import obs
from repro.core.cache import DEFAULT_SCHEDULE_CACHE, ScheduleCache, cached_schedule
from repro.core.oggp import oggp
from repro.graph.bipartite import BipartiteGraph
from repro.util.errors import ConfigError
from tests.conftest import bipartite_graphs, betas, ks


def reinserted(graph: BipartiteGraph, reverse: bool = True) -> BipartiteGraph:
    """Same edge multiset, different insertion order (hence edge ids)."""
    edges = list(graph.edges())
    if reverse:
        edges = edges[::-1]
    out = BipartiteGraph()
    for e in edges:
        out.add_edge(e.left, e.right, e.weight)
    return out


class TestHitSemantics:
    @given(bipartite_graphs(), ks, betas)
    @settings(max_examples=40, deadline=None)
    def test_hit_equals_fresh_run(self, g, k, beta):
        cache = ScheduleCache()
        first = cached_schedule(g, k=k, beta=beta, cache=cache)
        second = cached_schedule(g, k=k, beta=beta, cache=cache)
        assert cache.stats()["hits"] == 1
        assert second.to_dict() == first.to_dict() == oggp(g, k, beta).to_dict()
        second.validate(g)

    def test_hit_is_independent_of_previous_results(self):
        g = BipartiteGraph.from_edges([(0, 0, 4), (0, 1, 2), (1, 1, 3), (1, 0, 5)])
        cache = ScheduleCache()
        first = cached_schedule(g, k=2, beta=1.0, cache=cache)
        reference = first.to_dict()
        hit = cached_schedule(g, k=2, beta=1.0, cache=cache)
        # Steps carry a mutable ``duration``; stretching a returned copy
        # must not leak into the cache or into other returned copies.
        hit.steps[0].duration += 100.0
        again = cached_schedule(g, k=2, beta=1.0, cache=cache)
        assert again.to_dict() == reference
        assert first.to_dict() == reference
        assert hit.steps[0] is not again.steps[0]

    def test_put_detaches_from_the_stored_schedule(self):
        g = BipartiteGraph.from_edges([(0, 0, 3), (1, 1, 2)])
        cache = ScheduleCache()
        computed = cached_schedule(g, k=2, beta=0.5, cache=cache)
        reference = computed.to_dict()
        computed.steps[0].duration += 7.0
        assert cached_schedule(g, k=2, beta=0.5, cache=cache).to_dict() == reference


class TestCanonicalKey:
    @given(bipartite_graphs(), ks, betas)
    @settings(max_examples=40, deadline=None)
    def test_insertion_order_does_not_miss(self, g, k, beta):
        cache = ScheduleCache()
        cached_schedule(g, k=k, beta=beta, cache=cache)
        g2 = reinserted(g)
        hit = cached_schedule(g2, k=k, beta=beta, cache=cache)
        assert cache.stats() == {"hits": 1, "misses": 1, "evictions": 0, "size": 1}
        # The remapped schedule must be valid *for the new graph's ids*.
        hit.validate(g2)
        assert hit.cost == cached_schedule(g, k=k, beta=beta, cache=cache).cost

    def test_different_parameters_miss(self):
        g = BipartiteGraph.from_edges([(0, 0, 4), (0, 1, 2), (1, 1, 3), (1, 0, 5)])
        cache = ScheduleCache()
        cached_schedule(g, k=2, beta=1.0, cache=cache)
        cached_schedule(g, k=1, beta=1.0, cache=cache)  # different k
        cached_schedule(g, k=2, beta=2.0, cache=cache)  # different beta
        cached_schedule(g, k=2, beta=1.0, algorithm="ggp", cache=cache)
        bigger = g.copy()
        bigger.add_edge(0, 0, 1)
        cached_schedule(bigger, k=2, beta=1.0, cache=cache)  # different graph
        assert cache.stats()["hits"] == 0
        assert cache.stats()["misses"] == 5

    def test_engines_of_one_code_path_share_an_entry(self):
        g = BipartiteGraph.from_edges([(0, 0, 4), (0, 1, 2), (1, 1, 3), (1, 0, 5)])
        for algorithm, first, second in (
            ("oggp", "fast", "vector"),
            ("ggp", "vector", "fast"),
            ("greedy", "fast", "approx"),
        ):
            cache = ScheduleCache()
            computed = cached_schedule(
                g, k=2, beta=1.0, algorithm=algorithm, engine=first, cache=cache
            )
            hit = cached_schedule(
                g, k=2, beta=1.0, algorithm=algorithm, engine=second, cache=cache
            )
            assert cache.stats() == {
                "hits": 1, "misses": 1, "evictions": 0, "size": 1,
            }, algorithm
            assert hit.to_dict() == computed.to_dict()

    @pytest.mark.parametrize("other", ["approx", "reference"])
    def test_other_engines_keep_their_own_entry(self, other):
        g = BipartiteGraph.from_edges([(0, 0, 4), (0, 1, 2), (1, 1, 3), (1, 0, 5)])
        cache = ScheduleCache()
        cached_schedule(g, k=2, beta=1.0, engine="fast", cache=cache)
        cached_schedule(g, k=2, beta=1.0, engine=other, cache=cache)
        assert cache.stats()["misses"] == 2
        assert cache.stats()["size"] == 2

    def test_wrgp_keeps_its_derived_k(self):
        from repro.graph.generators import random_weight_regular

        g = random_weight_regular(3, n=5)
        cache = ScheduleCache()
        first = cached_schedule(g, k=999, beta=0.5, algorithm="wrgp", cache=cache)
        hit = cached_schedule(g, k=999, beta=0.5, algorithm="wrgp", cache=cache)
        assert cache.stats()["hits"] == 1
        assert hit.k == first.k == 5  # wrgp derives k from the graph
        assert hit.to_dict() == first.to_dict()


class TestLruAndCounters:
    def test_eviction_is_lru(self):
        graphs = [BipartiteGraph.from_edges([(0, 0, w)]) for w in (1, 2, 3)]
        cache = ScheduleCache(maxsize=2)
        cached_schedule(graphs[0], k=1, beta=0.0, cache=cache)
        cached_schedule(graphs[1], k=1, beta=0.0, cache=cache)
        cached_schedule(graphs[0], k=1, beta=0.0, cache=cache)  # refresh 0
        cached_schedule(graphs[2], k=1, beta=0.0, cache=cache)  # evicts 1
        assert cache.stats()["evictions"] == 1
        cached_schedule(graphs[0], k=1, beta=0.0, cache=cache)  # still cached
        assert cache.stats()["hits"] == 2
        cached_schedule(graphs[1], k=1, beta=0.0, cache=cache)  # gone: miss
        assert cache.stats()["misses"] == 4

    def test_obs_counters_track_hits_and_misses(self):
        g = BipartiteGraph.from_edges([(0, 0, 2), (1, 1, 3)])
        cache = ScheduleCache()
        with obs.observed() as (registry, _tracer):
            cached_schedule(g, k=2, beta=1.0, cache=cache)
            cached_schedule(g, k=2, beta=1.0, cache=cache)
            assert registry.counter("schedule_cache.misses").value == 1
            assert registry.counter("schedule_cache.hits").value == 1

    def test_one_canonical_sort_per_lookup(self, monkeypatch):
        import repro.core.cache as cache_module

        calls = []
        canonical = cache_module._canonical

        def counted(graph):
            calls.append(graph)
            return canonical(graph)

        monkeypatch.setattr(cache_module, "_canonical", counted)
        g = BipartiteGraph.from_edges([(0, 0, 2), (1, 1, 3), (0, 1, 1)])
        cache = ScheduleCache()
        cached_schedule(g, k=2, beta=1.0, cache=cache)
        assert len(calls) == 1  # a miss sorts once for lookup and store
        cached_schedule(g, k=2, beta=1.0, cache=cache)
        assert len(calls) == 2  # a hit sorts once
        assert cache.stats() == {
            "hits": 1, "misses": 1, "evictions": 0, "size": 1,
        }

    def test_clear_and_len(self):
        g = BipartiteGraph.from_edges([(0, 0, 2)])
        cache = ScheduleCache()
        cached_schedule(g, k=1, beta=0.0, cache=cache)
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["misses"] == 1  # statistics survive clear

    def test_cache_none_bypasses(self):
        g = BipartiteGraph.from_edges([(0, 0, 2)])
        s = cached_schedule(g, k=1, beta=0.0, cache=None)
        s.validate(g)


class TestValidation:
    def test_bad_maxsize_rejected(self):
        with pytest.raises(ConfigError):
            ScheduleCache(maxsize=0)

    def test_unknown_algorithm_rejected(self):
        g = BipartiteGraph.from_edges([(0, 0, 2)])
        with pytest.raises(ConfigError):
            cached_schedule(g, k=1, beta=0.0, algorithm="magic")

    def test_default_cache_exists(self):
        assert isinstance(DEFAULT_SCHEDULE_CACHE, ScheduleCache)
        assert DEFAULT_SCHEDULE_CACHE.maxsize >= 1


class TestThreadSafety:
    def test_concurrent_get_put_hammer(self):
        """Two threads hammering get/put must not corrupt the LRU dict."""
        import threading

        graphs = [
            BipartiteGraph.from_edges(
                [(0, 0, w), (0, 1, w + 1), (1, 1, w + 2)]
            )
            for w in range(1, 9)
        ]
        cache = ScheduleCache(maxsize=4)  # small: constant evictions
        reference = {
            id(g): cached_schedule(g, k=2, beta=1.0, cache=None).to_dict()
            for g in graphs
        }
        errors = []
        barrier = threading.Barrier(2)

        def hammer(offset: int) -> None:
            try:
                barrier.wait()
                for round_number in range(60):
                    g = graphs[(offset + round_number) % len(graphs)]
                    out = cached_schedule(g, k=2, beta=1.0, cache=cache)
                    if out.to_dict() != reference[id(g)]:
                        errors.append(
                            f"round {round_number}: wrong schedule returned"
                        )
            except Exception as exc:  # pragma: no cover - the failure path
                errors.append(repr(exc))

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 120
        assert len(cache) <= 4
