"""Tests for the Matching container."""

import pytest

from repro.graph.bipartite import BipartiteGraph, Edge
from repro.matching.base import Matching
from repro.util.errors import MatchingError


class TestMatchingContainer:
    def test_add_and_query(self):
        m = Matching([Edge(0, 0, 0, 2.0), Edge(1, 1, 1, 5.0)])
        assert len(m) == 2
        assert m.min_weight() == 2.0
        assert m.max_weight() == 5.0
        assert m.covers_left(0) and m.covers_right(1)
        assert m.edge_ids() == {0, 1}

    def test_conflicting_left_rejected(self):
        m = Matching([Edge(0, 0, 0, 1.0)])
        with pytest.raises(MatchingError):
            m.add(Edge(1, 0, 1, 1.0))

    def test_conflicting_right_rejected(self):
        m = Matching([Edge(0, 0, 0, 1.0)])
        with pytest.raises(MatchingError):
            m.add(Edge(1, 1, 0, 1.0))

    def test_contains_is_identity_based(self):
        e = Edge(0, 0, 0, 1.0)
        m = Matching([e])
        assert e in m
        assert Edge(9, 0, 0, 1.0) not in m

    def test_edges_sorted_by_id(self):
        m = Matching([Edge(5, 0, 0, 1.0), Edge(2, 1, 1, 1.0)])
        assert [e.id for e in m.edges()] == [2, 5]

    def test_empty_weights(self):
        m = Matching()
        assert m.min_weight() == 0
        assert m.max_weight() == 0

    def test_is_perfect_in(self):
        g = BipartiteGraph.from_edges([(0, 0, 1), (1, 1, 1)])
        edges = {(e.left, e.right): e for e in g.edges()}
        full = Matching(edges.values())
        assert full.is_perfect_in(g)
        partial = Matching([edges[(0, 0)]])
        assert not partial.is_perfect_in(g)

    def test_validate_against_graph(self):
        g = BipartiteGraph.from_edges([(0, 0, 3)])
        edge = next(iter(g.edges()))
        m = Matching([edge])
        m.validate(g)
        g.remove_edge(edge.id)
        with pytest.raises(MatchingError):
            m.validate(g)

    def test_validate_accepts_peeled_weights(self):
        g = BipartiteGraph.from_edges([(0, 0, 3)])
        edge = next(iter(g.edges()))
        m = Matching([edge])
        g.decrease_weight(edge.id, 1)  # weight changed, endpoints same
        m.validate(g)

    def test_copy_independent(self):
        m = Matching([Edge(0, 0, 0, 1.0)])
        c = m.copy()
        c.add(Edge(1, 1, 1, 1.0))
        assert len(m) == 1 and len(c) == 2

    def test_repr(self):
        assert "size=1" in repr(Matching([Edge(0, 0, 0, 1.0)]))
