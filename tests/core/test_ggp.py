"""Tests for GGP — validity, approximation guarantee, realisation."""

import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.bounds import lower_bound
from repro.core.ggp import ggp
from repro.core.oggp import oggp
from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import random_bipartite
from repro.util.errors import ConfigError
from tests.conftest import bipartite_graphs, betas, ks

STRATEGIES = ("arbitrary", "max_weight", "bottleneck")


class TestBasics:
    def test_empty_graph(self):
        s = ggp(BipartiteGraph(), k=3, beta=1.0)
        assert s.num_steps == 0
        assert s.cost == 0.0

    def test_single_edge(self):
        # A single message is never preempted: one step, full weight.
        g = BipartiteGraph.from_edges([(0, 0, 7)])
        s = ggp(g, k=1, beta=2.0)
        s.validate(g)
        assert s.num_steps == 1
        assert s.cost == pytest.approx(2.0 + 7.0)

    def test_single_edge_exact_multiple(self):
        g = BipartiteGraph.from_edges([(0, 0, 8)])
        s = ggp(g, k=1, beta=2.0)
        s.validate(g)
        assert s.cost == pytest.approx(10.0)

    def test_invalid_params(self, small_graph):
        with pytest.raises(ConfigError):
            ggp(small_graph, k=0, beta=1.0)
        with pytest.raises(ConfigError):
            ggp(small_graph, k=1, beta=-1.0)

    def test_input_not_mutated(self, small_graph):
        snapshot = small_graph.to_json()
        ggp(small_graph, k=2, beta=1.0)
        assert small_graph.to_json() == snapshot

    def test_k_one_is_sequential_like(self, small_graph):
        s = ggp(small_graph, k=1, beta=1.0)
        s.validate(small_graph)
        assert s.max_step_size == 1
        # cost = P + beta*m at best (weights integral, beta 1).
        assert s.cost == pytest.approx(
            small_graph.total_weight() + small_graph.num_edges
        )

    def test_isolated_nodes_are_harmless(self):
        g = BipartiteGraph.from_edges([(0, 0, 3)])
        g.add_left_node(7)
        g.add_right_node(9)
        s = ggp(g, k=2, beta=1.0)
        s.validate(g)


class TestGuarantee:
    @given(bipartite_graphs(), ks, betas)
    @settings(max_examples=120, deadline=None)
    def test_two_approximation_and_validity(self, g, k, beta):
        s = ggp(g, k=k, beta=beta)
        s.validate(g)
        assert s.cost <= 2.0 * lower_bound(g, k, beta) + 1e-6

    @given(
        bipartite_graphs(integer_weights=False),
        ks,
        st.sampled_from([0.0, 0.3, 1.7]),
    )
    @settings(max_examples=80, deadline=None)
    def test_float_weights(self, g, k, beta):
        s = ggp(g, k=k, beta=beta)
        s.validate(g, rel_tol=1e-9)
        assert s.cost <= 2.0 * lower_bound(g, k, beta) + 1e-6

    @given(bipartite_graphs(), ks)
    @settings(max_examples=60, deadline=None)
    def test_all_strategies_valid(self, g, k):
        for strategy in STRATEGIES:
            s = ggp(g, k=k, beta=1.0, matching=strategy)
            s.validate(g)
            assert s.cost <= 2.0 * lower_bound(g, k, 1.0) + 1e-6

    @given(bipartite_graphs(), ks, betas)
    @settings(max_examples=60, deadline=None)
    def test_respects_k(self, g, k, beta):
        s = ggp(g, k=k, beta=beta)
        assert s.max_step_size <= k

    @given(bipartite_graphs())
    @settings(max_examples=40, deadline=None)
    def test_deterministic(self, g):
        a = ggp(g, k=3, beta=1.0)
        b = ggp(g, k=3, beta=1.0)
        assert a.to_json() == b.to_json()


class TestChunkRealisation:
    def test_no_chunk_shorter_than_beta_except_none(self):
        # With integer weights and beta=1, all chunks are >= 1.
        g = BipartiteGraph.from_edges([(0, 0, 5), (0, 1, 3), (1, 0, 2)])
        s = ggp(g, k=2, beta=1.0)
        for step in s.steps:
            for t in step.transfers:
                assert t.amount >= 1.0 - 1e-12

    def test_fractional_weights_only_last_chunk_shrinks(self):
        g = BipartiteGraph.from_edges([(0, 0, 7.3)])
        s = ggp(g, k=1, beta=2.0)
        s.validate(g)
        amounts = [t.amount for step in s.steps for t in step.transfers]
        assert sum(amounts) == pytest.approx(7.3)
        # all chunks except possibly the last are >= beta
        for a in amounts[:-1]:
            assert a >= 2.0 - 1e-12

    def test_large_weight_small_beta(self):
        g = BipartiteGraph.from_edges([(0, 0, 1000), (1, 1, 999)])
        s = ggp(g, k=2, beta=0.5)
        s.validate(g)
        assert s.transmission_time <= 1001


@pytest.mark.parametrize("scheduler", [ggp, oggp], ids=["ggp", "oggp"])
def test_every_round_comes_from_peel_weight_regular(monkeypatch, scheduler):
    # ``repro.core.ggp.peel_weight_regular`` is GGP's one round source
    # (the benchmark tracer counts peels there), so every peel WRGP
    # counts must pass through it.
    ggp_module = importlib.import_module("repro.core.ggp")
    source = ggp_module.peel_weight_regular
    rounds = []

    def counting(*args, **kwargs):
        for item in source(*args, **kwargs):
            rounds.append(item)
            yield item

    monkeypatch.setattr(ggp_module, "peel_weight_regular", counting)
    g = random_bipartite(3, max_side=12, max_edges=80)
    with obs.observed() as (reg, _tr):
        scheduler(g, k=3, beta=1.0).validate(g)
    assert len(rounds) == reg.counter("wrgp.peels").value > 0
