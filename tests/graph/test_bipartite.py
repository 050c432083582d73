"""Unit and property tests for the bipartite multigraph."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.bipartite import BipartiteGraph, Edge, EdgeKind, NodeKind
from repro.util.errors import GraphError
from tests.conftest import bipartite_graphs, raw_state


class TestConstruction:
    def test_empty_graph(self):
        g = BipartiteGraph()
        assert g.num_edges == 0
        assert g.num_left == 0
        assert g.num_right == 0
        assert g.is_empty()
        assert g.total_weight() == 0
        assert g.max_node_weight() == 0
        assert g.max_degree() == 0

    def test_from_edges(self):
        g = BipartiteGraph.from_edges([(0, 0, 4.0), (0, 1, 2.0), (1, 1, 3.0)])
        assert g.num_edges == 3
        assert g.num_left == 2
        assert g.num_right == 2
        assert g.total_weight() == 9.0

    def test_add_edge_returns_edge_with_unique_ids(self):
        g = BipartiteGraph()
        e1 = g.add_edge(0, 0, 1)
        e2 = g.add_edge(0, 0, 2)  # parallel edge allowed
        assert e1.id != e2.id
        assert g.num_edges == 2
        assert g.node_weight(0, "left") == 3

    def test_zero_weight_rejected(self):
        g = BipartiteGraph()
        with pytest.raises(GraphError):
            g.add_edge(0, 0, 0)

    def test_negative_weight_rejected(self):
        g = BipartiteGraph()
        with pytest.raises(GraphError):
            g.add_edge(0, 0, -1.5)

    def test_left_right_namespaces_are_independent(self):
        g = BipartiteGraph.from_edges([(0, 0, 1)])
        assert g.num_left == 1
        assert g.num_right == 1
        assert g.degree(0, "left") == 1
        assert g.degree(0, "right") == 1

    def test_isolated_nodes(self):
        g = BipartiteGraph()
        g.add_left_node(5)
        g.add_right_node(7)
        assert g.num_left == 1
        assert g.num_right == 1
        assert g.is_empty()
        assert g.node_weight(5, "left") == 0

    def test_node_kinds(self):
        g = BipartiteGraph()
        g.add_left_node(0, NodeKind.FILLER)
        g.add_right_node(1, NodeKind.PADDING)
        assert g.left_node_kind(0) is NodeKind.FILLER
        assert g.right_node_kind(1) is NodeKind.PADDING
        # add_left_node is idempotent and keeps the original kind
        g.add_left_node(0, NodeKind.ORIGINAL)
        assert g.left_node_kind(0) is NodeKind.FILLER


class TestAggregates:
    def test_paper_notations(self, small_graph):
        # edges: (0,0,4),(0,1,2),(1,1,3),(2,0,1),(2,2,5)
        assert small_graph.total_weight() == 15  # P(G)
        assert small_graph.max_node_weight() == 6  # w(left 0 or left 2) = 6
        assert small_graph.max_degree() == 2
        assert small_graph.node_weight(0, "left") == 6
        assert small_graph.node_weight(1, "right") == 5

    def test_weight_regularity_detection(self):
        regular = BipartiteGraph.from_edges(
            [(0, 0, 2), (0, 1, 1), (1, 1, 2), (1, 0, 1)]
        )
        assert regular.is_weight_regular()
        irregular = BipartiteGraph.from_edges([(0, 0, 2), (1, 1, 1)])
        assert not irregular.is_weight_regular()

    def test_empty_graph_is_weight_regular(self):
        assert BipartiteGraph().is_weight_regular()


class TestMutation:
    def test_remove_edge_updates_aggregates(self, small_graph):
        edge = next(iter(small_graph.edges()))
        before = small_graph.total_weight()
        small_graph.remove_edge(edge.id)
        assert small_graph.total_weight() == before - edge.weight
        assert not small_graph.has_edge_id(edge.id)
        small_graph.validate()

    def test_remove_missing_edge_raises(self):
        with pytest.raises(GraphError):
            BipartiteGraph().remove_edge(0)

    def test_decrease_weight_partial(self):
        g = BipartiteGraph.from_edges([(0, 0, 5)])
        eid = g.edge_ids()[0]
        updated = g.decrease_weight(eid, 2)
        assert updated is not None
        assert updated.weight == 3
        assert g.total_weight() == 3
        g.validate()

    def test_decrease_weight_to_zero_removes(self):
        g = BipartiteGraph.from_edges([(0, 0, 5)])
        eid = g.edge_ids()[0]
        assert g.decrease_weight(eid, 5) is None
        assert g.is_empty()
        g.validate()

    def test_decrease_weight_overshoot_raises(self):
        g = BipartiteGraph.from_edges([(0, 0, 5)])
        with pytest.raises(GraphError):
            g.decrease_weight(g.edge_ids()[0], 6)

    def test_decrease_weight_nonpositive_raises(self):
        g = BipartiteGraph.from_edges([(0, 0, 5)])
        with pytest.raises(GraphError):
            g.decrease_weight(g.edge_ids()[0], 0)

    def test_remove_isolated_nodes(self):
        g = BipartiteGraph.from_edges([(0, 0, 1)])
        g.add_left_node(9)
        g.add_right_node(8)
        left_gone, right_gone = g.remove_isolated_nodes()
        assert left_gone == [9]
        assert right_gone == [8]
        assert g.num_left == 1
        assert g.num_right == 1

    def test_copy_is_independent(self, small_graph):
        clone = small_graph.copy()
        eid = clone.edge_ids()[0]
        clone.remove_edge(eid)
        assert small_graph.has_edge_id(eid)
        assert clone.num_edges == small_graph.num_edges - 1


class TestTransform:
    def test_map_weights_preserves_ids_and_kinds(self, small_graph):
        doubled = small_graph.map_weights(lambda w: w * 2)
        assert doubled.edge_ids() == small_graph.edge_ids()
        assert doubled.total_weight() == 2 * small_graph.total_weight()
        for eid in small_graph.edge_ids():
            assert doubled.edge(eid).kind == small_graph.edge(eid).kind

    def test_map_weights_rejects_nonpositive(self, small_graph):
        with pytest.raises(GraphError):
            small_graph.map_weights(lambda w: w - 10)


class TestSerialization:
    def test_roundtrip(self, small_graph):
        restored = BipartiteGraph.from_json(small_graph.to_json())
        assert restored == small_graph
        restored.validate()

    def test_roundtrip_preserves_kinds(self):
        g = BipartiteGraph()
        g.add_edge(0, 0, 3, kind=EdgeKind.FILLER,
                   left_kind=NodeKind.FILLER, right_kind=NodeKind.FILLER)
        restored = BipartiteGraph.from_json(g.to_json())
        edge = restored.edge(g.edge_ids()[0])
        assert edge.kind is EdgeKind.FILLER
        assert restored.left_node_kind(0) is NodeKind.FILLER

    def test_duplicate_edge_id_rejected(self):
        data = {
            "edges": [
                {"id": 0, "left": 0, "right": 0, "weight": 1},
                {"id": 0, "left": 1, "right": 1, "weight": 2},
            ]
        }
        with pytest.raises(GraphError):
            BipartiteGraph.from_dict(data)

    @pytest.mark.parametrize("ids", [[-1], [0, -1]])
    def test_negative_edge_id_rejected(self, ids):
        data = {
            "edges": [
                {"id": i, "left": n, "right": n, "weight": 1}
                for n, i in enumerate(ids)
            ]
        }
        with pytest.raises(GraphError, match="edge id -1 is negative"):
            BipartiteGraph.from_dict(data)

    def test_edges_keep_their_listed_order(self):
        data = {
            "edges": [
                {"id": 2, "left": 0, "right": 0, "weight": 1},
                {"id": 0, "left": 1, "right": 1, "weight": 2},
            ]
        }
        g = BipartiteGraph.from_dict(data)
        g.validate()
        assert list(g._live) == [2, 0]
        assert (g.edge(2).weight, g.edge(0).weight) == (1, 2)
        assert g._next_edge_id == 3

    def test_new_edges_after_deserialization_get_fresh_ids(self, small_graph):
        restored = BipartiteGraph.from_json(small_graph.to_json())
        new = restored.add_edge(0, 0, 1)
        assert new.id not in small_graph.edge_ids()


class TestDunder:
    def test_len_and_repr(self, small_graph):
        assert len(small_graph) == 5
        assert "edges=5" in repr(small_graph)

    def test_equality_ignores_edge_ids(self):
        a = BipartiteGraph.from_edges([(0, 0, 1), (1, 1, 2)])
        b = BipartiteGraph.from_edges([(1, 1, 2), (0, 0, 1)])
        assert a == b

    def test_inequality_on_weights(self):
        a = BipartiteGraph.from_edges([(0, 0, 1)])
        b = BipartiteGraph.from_edges([(0, 0, 2)])
        assert a != b

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(BipartiteGraph())


class TestEdgeDataclass:
    def test_endpoints(self):
        assert Edge(0, 1, 2, 5.0).endpoints == (1, 2)


class TestProperties:
    @given(bipartite_graphs())
    @settings(max_examples=60)
    def test_invariants_hold_after_construction(self, g):
        g.validate()
        assert g.total_weight() == pytest.approx(
            sum(e.weight for e in g.edges())
        )
        assert g.max_degree() >= 1
        assert g.num_left >= 1 and g.num_right >= 1

    @given(bipartite_graphs(), st.data())
    @settings(max_examples=60)
    def test_peel_sequence_preserves_invariants(self, g, data):
        # Randomly peel weights / remove edges; caches must stay exact.
        for _ in range(min(5, g.num_edges)):
            if g.is_empty():
                break
            ids = g.edge_ids()
            eid = data.draw(st.sampled_from(ids))
            edge = g.edge(eid)
            if edge.weight > 1 and data.draw(st.booleans()):
                g.decrease_weight(eid, 1)
            else:
                g.remove_edge(eid)
            g.validate()

    @given(bipartite_graphs())
    @settings(max_examples=40)
    def test_serialization_roundtrip(self, g):
        restored = BipartiteGraph.from_json(g.to_json())
        assert restored == g
        assert raw_state(restored) == raw_state(g)

    @given(bipartite_graphs())
    @settings(max_examples=40)
    def test_identity_map_weights_keeps_the_stored_state(self, g):
        assert raw_state(g.map_weights(lambda w: w)) == raw_state(g)
