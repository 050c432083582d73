"""Tests for graph accessor methods not covered elsewhere."""

from repro.graph.bipartite import BipartiteGraph


class TestAccessors:
    def graph(self) -> BipartiteGraph:
        return BipartiteGraph.from_edges(
            [(0, 0, 4), (0, 1, 2), (1, 1, 3), (2, 0, 1)]
        )

    def test_edges_sorted_default_is_id_order(self):
        g = self.graph()
        ids = [e.id for e in g.edges_sorted()]
        assert ids == sorted(ids)

    def test_edges_sorted_with_key(self):
        g = self.graph()
        weights = [e.weight for e in g.edges_sorted(key=lambda e: e.weight)]
        assert weights == sorted(weights)

    def test_edge_lookup(self):
        g = self.graph()
        eid = g.edge_ids()[0]
        assert g.edge(eid).id == eid

    def test_node_lists_sorted(self):
        g = self.graph()
        assert g.left_nodes() == [0, 1, 2]
        assert g.right_nodes() == [0, 1]

    def test_iter_edge_data_matches_edge_views(self):
        g = self.graph()
        flat = {eid: (l, r, w, k) for eid, l, r, w, k in g.iter_edge_data()}
        assert set(flat) == set(g.edge_ids())
        for e in g.edges():
            assert flat[e.id] == (e.left, e.right, e.weight, e.kind)

    def test_iter_edge_data_skips_removed_edges(self):
        g = self.graph()
        victim = g.edge_ids()[0]
        g.remove_edge(victim)
        assert victim not in {eid for eid, *_rest in g.iter_edge_data()}
