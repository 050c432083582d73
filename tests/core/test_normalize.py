"""Tests for β-normalisation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.normalize import normalize_weights
from repro.graph.bipartite import BipartiteGraph
from repro.util.errors import ConfigError
from tests.conftest import bipartite_graphs


class TestPositiveBeta:
    def test_round_up_to_integers(self):
        g = BipartiteGraph.from_edges([(0, 0, 2.5), (1, 1, 3.0)])
        problem = normalize_weights(g, beta=1.0)
        weights = sorted(e.weight for e in problem.graph.edges())
        assert weights == [3, 3]
        assert all(isinstance(w, int) for w in weights)
        assert problem.scale == 1.0

    def test_scale_is_beta(self):
        g = BipartiteGraph.from_edges([(0, 0, 10)])
        problem = normalize_weights(g, beta=4.0)
        assert problem.scale == 4.0
        assert next(iter(problem.graph.edges())).weight == math.ceil(10 / 4)

    def test_exact_division_no_inflation(self):
        g = BipartiteGraph.from_edges([(0, 0, 12)])
        problem = normalize_weights(g, beta=3.0)
        assert next(iter(problem.graph.edges())).weight == 4

    def test_float_roundup_artifacts_avoided(self):
        # 0.3 / 0.1 = 2.9999... in floats; exact rationals give 3 not 4.
        g = BipartiteGraph.from_edges([(0, 0, 0.3)])
        problem = normalize_weights(g, beta=0.1)
        assert next(iter(problem.graph.edges())).weight == 3

    def test_weights_below_beta_become_one(self):
        g = BipartiteGraph.from_edges([(0, 0, 0.01)])
        problem = normalize_weights(g, beta=5.0)
        assert next(iter(problem.graph.edges())).weight == 1

    def test_original_weights_recorded(self):
        g = BipartiteGraph.from_edges([(0, 0, 2.5), (1, 1, 7.0)])
        problem = normalize_weights(g, beta=2.0)
        assert sorted(problem.original_weights.values()) == [2.5, 7.0]

    @given(
        st.one_of(
            st.integers(1, 10**12),
            st.floats(1e-9, 1e9),
            st.integers(1, 10**12).map(np.int64),
            st.integers(1, 10**6).map(np.int32),
            st.floats(1e-9, 1e9).map(np.float64),
            st.fractions(min_value=Fraction(1, 10**9), max_value=10**9).filter(
                lambda f: f > 0
            ),
        ),
        st.one_of(
            st.sampled_from([0.1, 0.3, 0.5, 1, 1.0, 3.0, np.float64(0.7)]),
            st.floats(1e-6, 1e3),
        ),
    )
    @settings(max_examples=300)
    def test_integer_ceiling_matches_fraction_formula(self, w, beta):
        problem = normalize_weights(BipartiteGraph.from_edges([(0, 0, w)]), beta)
        got = problem.graph.edge_weight(0)
        assert type(got) is int
        # ``item()``: a Fraction of a NumPy int keeps NumPy parts, which
        # overflow in the division below.
        exact = Fraction(w.item() if isinstance(w, np.generic) else w)
        assert got == math.ceil(exact / Fraction(beta))


class TestZeroBeta:
    def test_fraction_conversion(self):
        g = BipartiteGraph.from_edges([(0, 0, 2.5)])
        problem = normalize_weights(g, beta=0.0)
        w = next(iter(problem.graph.edges())).weight
        assert isinstance(w, Fraction)
        assert w == Fraction(5, 2)
        assert problem.scale == 1.0

    def test_exact_for_binary_floats(self):
        g = BipartiteGraph.from_edges([(0, 0, 0.1)])
        problem = normalize_weights(g, beta=0.0)
        w = next(iter(problem.graph.edges())).weight
        assert float(w) == 0.1  # exact binary representation preserved


class TestValidation:
    def test_negative_beta_rejected(self):
        g = BipartiteGraph.from_edges([(0, 0, 1)])
        with pytest.raises(ConfigError):
            normalize_weights(g, beta=-1.0)

    @given(bipartite_graphs(integer_weights=False), st.sampled_from([0.5, 1.0, 2.0]))
    @settings(max_examples=40)
    def test_inflation_below_beta_per_edge(self, g, beta):
        problem = normalize_weights(g, beta)
        for e in g.edges():
            normalized = problem.graph.edge(e.id).weight
            inflated = normalized * beta
            assert inflated >= e.weight - 1e-12
            assert inflated < e.weight + beta + 1e-12

    @given(bipartite_graphs())
    @settings(max_examples=40)
    def test_structure_preserved(self, g):
        problem = normalize_weights(g, 1.0)
        assert problem.graph.num_edges == g.num_edges
        assert problem.graph.left_nodes() == g.left_nodes()
        assert problem.graph.right_nodes() == g.right_nodes()
