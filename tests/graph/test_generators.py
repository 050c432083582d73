"""Tests for the graph generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import (
    complete_bipartite,
    from_traffic_matrix,
    paper_figure2_graph,
    random_bipartite,
    random_weight_regular,
)
from repro.util.errors import GraphError


def traffic_of(graph, speed=1):
    """The traffic matrix a graph carries (parallel edges summed)."""
    out = np.zeros((graph.num_left, graph.num_right))
    for _eid, left, right, weight, _kind in graph.iter_edge_data():
        out[left, right] += weight * speed
    return out


class TestRandomBipartite:
    def test_deterministic_given_seed(self):
        a = random_bipartite(123)
        b = random_bipartite(123)
        assert a == b

    def test_different_seeds_differ(self):
        assert random_bipartite(1) != random_bipartite(2)

    def test_respects_bounds(self):
        for seed in range(30):
            g = random_bipartite(seed, max_side=5, max_edges=9,
                                 weight_low=2, weight_high=4)
            assert g.num_left <= 5 and g.num_right <= 5
            assert 1 <= g.num_edges <= 9
            for e in g.edges():
                assert 2 <= e.weight <= 4
                assert isinstance(e.weight, int)

    def test_no_duplicate_pairs(self):
        for seed in range(20):
            g = random_bipartite(seed, max_side=4, max_edges=16)
            pairs = [(e.left, e.right) for e in g.edges()]
            assert len(set(pairs)) == len(pairs)

    def test_no_isolated_nodes(self):
        for seed in range(20):
            g = random_bipartite(seed, max_side=6, max_edges=6)
            for node in g.left_nodes():
                assert g.degree(node, "left") >= 1
            for node in g.right_nodes():
                assert g.degree(node, "right") >= 1

    def test_float_weights(self):
        g = random_bipartite(0, integer_weights=False,
                             weight_low=1, weight_high=2)
        assert all(isinstance(e.weight, float) for e in g.edges())

    def test_invalid_sides_raise(self):
        with pytest.raises(GraphError):
            random_bipartite(0, max_side=2, min_side=3)


class TestRandomWeightRegular:
    @given(st.integers(0, 1000), st.integers(1, 6), st.integers(1, 4))
    @settings(max_examples=40)
    def test_always_weight_regular(self, seed, n, layers):
        g = random_weight_regular(seed, n=n, layers=layers)
        assert g.is_weight_regular()
        assert g.num_left == g.num_right == n

    def test_unmerged_parallel_edges(self):
        g = random_weight_regular(7, n=3, layers=3, merge_parallel=False)
        assert g.num_edges == 9  # n * layers
        assert g.is_weight_regular()

    def test_invalid_params(self):
        with pytest.raises(GraphError):
            random_weight_regular(0, n=0)
        with pytest.raises(GraphError):
            random_weight_regular(0, n=2, layers=0)


class TestCompleteBipartite:
    def test_constant_weight(self):
        g = complete_bipartite(3, 4, weight=2)
        assert g.num_edges == 12
        assert g.total_weight() == 24
        assert g.is_weight_regular() is False  # 3 != 4 sides

    def test_callable_weight(self):
        g = complete_bipartite(2, 2, weight=lambda i, j: 1 + i + 2 * j)
        weights = sorted(e.weight for e in g.edges())
        assert weights == [1, 2, 3, 4]

    def test_square_uniform_is_regular(self):
        assert complete_bipartite(3, 3, weight=5).is_weight_regular()

    def test_invalid_sizes(self):
        with pytest.raises(GraphError):
            complete_bipartite(0, 3)


class TestTrafficMatrix:
    def test_zero_entries_make_no_edges(self):
        g = from_traffic_matrix([[0, 5], [3, 0]])
        assert g.num_edges == 2
        assert g.num_left == 2 and g.num_right == 2  # nodes materialised

    def test_speed_divides_weights(self):
        g = from_traffic_matrix([[10]], speed=4)
        assert next(iter(g.edges())).weight == 2.5

    def test_roundtrip(self):
        m = np.array([[0.0, 5.0], [3.0, 1.0]])
        assert np.allclose(traffic_of(from_traffic_matrix(m)), m)

    def test_roundtrip_with_speed(self):
        m = np.array([[8.0, 0.0]])
        g = from_traffic_matrix(m, speed=2)
        assert np.allclose(traffic_of(g, speed=2), m)

    def test_negative_entry_rejected(self):
        with pytest.raises(GraphError):
            from_traffic_matrix([[-1.0]])

    def test_wrong_ndim_rejected(self):
        with pytest.raises(GraphError):
            from_traffic_matrix([1.0, 2.0])

    def test_bad_speed_rejected(self):
        with pytest.raises(GraphError):
            from_traffic_matrix([[1.0]], speed=0)


class TestPaperFigure2:
    def test_shape_and_weights(self):
        g = paper_figure2_graph()
        assert g.num_left == 3 and g.num_right == 3
        assert g.num_edges == 5
        assert max(e.weight for e in g.edges()) == 8
        assert g.total_weight() == 23
