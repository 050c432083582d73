"""Matching container and validation."""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.graph.bipartite import BipartiteGraph, Edge, Number
from repro.util.errors import MatchingError


class Matching:
    """A set of edges with no shared endpoint.

    Stores full :class:`~repro.graph.bipartite.Edge` objects so weight
    queries need no graph lookup.  Construction enforces the matching
    property.
    """

    __slots__ = ("_by_left", "_by_right")

    def __init__(self, edges: Iterable[Edge] = ()) -> None:
        self._by_left: dict[int, Edge] = {}
        self._by_right: dict[int, Edge] = {}
        for edge in edges:
            self.add(edge)

    def add(self, edge: Edge) -> None:
        """Add an edge; raises MatchingError when an endpoint is taken."""
        if edge.left in self._by_left:
            raise MatchingError(f"left node {edge.left} already matched")
        if edge.right in self._by_right:
            raise MatchingError(f"right node {edge.right} already matched")
        self._by_left[edge.left] = edge
        self._by_right[edge.right] = edge

    def __len__(self) -> int:
        return len(self._by_left)

    def __iter__(self) -> Iterator[Edge]:
        return iter(self._by_left.values())

    def __contains__(self, edge: Edge) -> bool:
        return self._by_left.get(edge.left) is edge

    def edges(self) -> list[Edge]:
        """Edges sorted by id (deterministic order)."""
        return sorted(self._by_left.values(), key=lambda e: e.id)

    def edge_ids(self) -> set[int]:
        """Ids of the matched edges."""
        return {e.id for e in self._by_left.values()}

    def covers_left(self, left: int) -> bool:
        """True when the left node is matched."""
        return left in self._by_left

    def covers_right(self, right: int) -> bool:
        """True when the right node is matched."""
        return right in self._by_right

    def min_weight(self) -> Number:
        """Smallest edge weight (the WRGP peel amount); 0 when empty."""
        return min((e.weight for e in self._by_left.values()), default=0)

    def max_weight(self) -> Number:
        """Largest edge weight — the paper's :math:`W(M)`; 0 when empty."""
        return max((e.weight for e in self._by_left.values()), default=0)

    def is_perfect_in(self, graph: BipartiteGraph) -> bool:
        """True when every node of ``graph`` is matched."""
        return len(self) == graph.num_left == graph.num_right

    def validate(self, graph: BipartiteGraph | None = None) -> None:
        """Re-check the matching property; optionally check edge membership.

        When ``graph`` is given, every matched edge must still exist in the
        graph with the same endpoints (weights may differ after peeling).
        """
        for left, edge in self._by_left.items():
            if edge.left != left:
                raise MatchingError(f"index corruption at left {left}")
            if self._by_right.get(edge.right) is not edge:
                raise MatchingError(f"left/right views disagree at edge {edge.id}")
            if graph is not None:
                if not graph.has_edge_id(edge.id):
                    raise MatchingError(f"edge {edge.id} not in graph")
                actual = graph.edge(edge.id)
                if (actual.left, actual.right) != (edge.left, edge.right):
                    raise MatchingError(f"edge {edge.id} endpoints changed")
        if len(self._by_left) != len(self._by_right):
            raise MatchingError("left and right views have different sizes")

    def copy(self) -> "Matching":
        """Shallow copy (edges are immutable)."""
        m = Matching()
        m._by_left = dict(self._by_left)
        m._by_right = dict(self._by_right)
        return m

    def __repr__(self) -> str:
        return f"Matching(size={len(self)}, edges={sorted(self.edge_ids())})"
