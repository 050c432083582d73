"""Tests for WRGP (weight-regular graph peeling)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.wrgp import peel_weight_regular, wrgp
from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import complete_bipartite, random_weight_regular
from repro.util.errors import GraphError


class TestWrgpBasics:
    def test_rejects_irregular_graph(self):
        g = BipartiteGraph.from_edges([(0, 0, 2), (1, 1, 1)])
        with pytest.raises(GraphError):
            wrgp(g)

    def test_single_matching_graph_takes_one_step(self):
        g = BipartiteGraph.from_edges([(0, 0, 5), (1, 1, 5)])
        s = wrgp(g)
        assert s.num_steps == 1
        assert s.cost == 5.0
        s.validate(g)

    def test_diagonal_plus_offdiagonal(self):
        # 2-regular-ish: each node has weight 3.
        g = BipartiteGraph.from_edges(
            [(0, 0, 2), (0, 1, 1), (1, 1, 2), (1, 0, 1)]
        )
        s = wrgp(g, beta=1.0)
        s.validate(g)
        assert s.transmission_time == 3.0  # equals the regular weight
        assert s.num_steps == 2

    def test_every_step_is_a_perfect_matching(self):
        g = random_weight_regular(5, n=5, layers=3)
        s = wrgp(g)
        for step in s.steps:
            assert len(step) == 5

    def test_transmission_equals_node_weight(self):
        # Peeling a weight-regular graph uses exactly W(G) transmission:
        # every step removes its duration from every node simultaneously.
        for seed in range(10):
            g = random_weight_regular(seed, n=4, layers=4)
            s = wrgp(g)
            assert s.transmission_time == pytest.approx(g.max_node_weight())

    def test_uniform_complete_square(self):
        g = complete_bipartite(3, 3, weight=2)
        s = wrgp(g)
        s.validate(g)
        assert s.transmission_time == 6.0
        assert s.num_steps == 3

    def test_empty_graph(self):
        s = wrgp(BipartiteGraph())
        assert s.num_steps == 0

    def test_bottleneck_strategy_no_worse_steps(self):
        for seed in range(8):
            g = random_weight_regular(seed, n=5, layers=4)
            arbitrary = wrgp(g, matching="arbitrary")
            bottleneck = wrgp(g, matching="bottleneck")
            bottleneck.validate(g)
            assert bottleneck.transmission_time == pytest.approx(
                arbitrary.transmission_time
            )

    def test_max_weight_strategy(self):
        for seed in range(5):
            g = random_weight_regular(seed, n=4, layers=3)
            s = wrgp(g, matching="max_weight")
            s.validate(g)


class TestPeelCore:
    def test_peel_consumes_graph(self):
        g = random_weight_regular(3, n=3, layers=2)
        work = g.copy()
        steps = list(peel_weight_regular(work))
        assert work.is_empty()
        assert len(steps) >= 1

    def test_peel_amounts_positive_and_min(self):
        g = random_weight_regular(4, n=4, layers=3)
        for matching in ("arbitrary", "max_weight", "bottleneck"):
            for engine in ("fast", "approx", "reference"):
                work = g.copy()
                weight = {eid: w for eid, _l, _r, w, _k in g.iter_edge_data()}
                for eids, peel in peel_weight_regular(work, matching, engine):
                    assert peel > 0
                    assert peel == min(weight[eid] for eid in eids)
                    for eid in eids:
                        weight[eid] -= peel
                assert not any(weight.values())
                if matching != "arbitrary" and engine != "reference":
                    assert work == g  # the array peelers own their weights

    def test_non_square_rejected(self):
        g = BipartiteGraph.from_edges([(0, 0, 1), (1, 0, 1)])
        with pytest.raises(GraphError):
            list(peel_weight_regular(g))


class TestProperties:
    @given(st.integers(0, 10_000), st.integers(1, 6), st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_valid_schedule_on_random_regular_graphs(self, seed, n, layers):
        g = random_weight_regular(seed, n=n, layers=layers)
        s = wrgp(g, beta=1.0)
        s.validate(g)
        # Optimality of transmission for weight-regular inputs.
        assert s.transmission_time == pytest.approx(g.max_node_weight())
        # At most m steps (one edge dies per step).
        assert s.num_steps <= g.num_edges
