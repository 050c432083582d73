"""The array-based matching core mirrors the object-based one exactly.

``hopcroft_karp_vec`` promises *bit-identity* with ``hopcroft_karp`` —
same edge ids in the matching, same counters-worthy behaviour on the
``allowed`` filter and warm starts.  The exact bottleneck peeler, whose
threshold sweep runs on the same array core, promises the same against
the stateless ``bottleneck_matching``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.matching.bottleneck import bottleneck_matching
from repro.matching.hopcroft_karp import hopcroft_karp
from repro.matching.vector import BottleneckPeeler, hopcroft_karp_vec
from tests.conftest import bipartite_graphs


def edge_ids(matching):
    return sorted(e.id for e in matching.edges())


class TestHopcroftKarpVec:
    @given(bipartite_graphs(max_side=8, max_edges=24))
    @settings(max_examples=100, deadline=None)
    def test_identical_matching(self, g):
        assert edge_ids(hopcroft_karp_vec(g)) == edge_ids(hopcroft_karp(g))

    @given(bipartite_graphs(max_side=8, max_edges=24), st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_identical_under_allowed_filter(self, g, rng):
        ids = g.edge_ids()
        allowed = {eid for eid in ids if rng.random() < 0.6}
        assert edge_ids(hopcroft_karp_vec(g, allowed=allowed)) == edge_ids(
            hopcroft_karp(g, allowed=allowed)
        )

    @given(bipartite_graphs(max_side=8, max_edges=24))
    @settings(max_examples=60, deadline=None)
    def test_identical_with_warm_start(self, g):
        seed = hopcroft_karp(g)
        assert edge_ids(hopcroft_karp_vec(g, initial=seed)) == edge_ids(
            hopcroft_karp(g, initial=seed)
        )

    @given(bipartite_graphs(max_side=8, max_edges=24))
    @settings(max_examples=40, deadline=None)
    def test_warm_start_with_stale_allowed_edges(self, g):
        # Warm matching containing edges outside `allowed` must be
        # pruned the same way by both implementations.
        seed = hopcroft_karp(g)
        allowed = set(g.edge_ids()[::2])
        assert edge_ids(hopcroft_karp_vec(g, allowed=allowed, initial=seed)) == (
            edge_ids(hopcroft_karp(g, allowed=allowed, initial=seed))
        )

    def test_posts_hk_counters(self, small_graph):
        with obs.observed() as (reg, _tr):
            hopcroft_karp_vec(small_graph)
        assert reg.counter("matching.hk.calls").value == 1
        assert reg.counter("matching.hk.bfs_phases").value >= 1


class TestBottleneckVectorEngine:
    @given(st.integers(0, 10**6), st.integers(2, 7))
    @settings(max_examples=60, deadline=None)
    def test_perfect_mode_identical(self, seed, n):
        from repro.graph.generators import random_weight_regular

        g = random_weight_regular(seed, n=n)
        py = bottleneck_matching(g, require="perfect")
        vec = BottleneckPeeler(g).next_matching()
        assert edge_ids(py) == edge_ids(vec)
        assert min(e.weight for e in py.edges()) == min(
            e.weight for e in vec.edges()
        )

    def test_probe_counters_posted(self):
        from repro.graph.generators import random_weight_regular

        g = random_weight_regular(3, n=5)
        with obs.observed() as (reg, _tr):
            BottleneckPeeler(g).next_matching()
        assert reg.counter("matching.bottleneck.calls").value == 1
        assert reg.counter("matching.bottleneck.threshold_probes").value >= 1
