"""Mutable weighted bipartite multigraph.

This module implements the graph representation used by every K-PBS
algorithm in the library.  Design notes:

- **Multigraph.** Parallel edges between the same (left, right) pair are
  allowed; each edge carries a unique integer id.  The schedulers peel
  weight off edges individually, so edge identity matters.
- **Two node namespaces.** Left nodes (senders) and right nodes
  (receivers) are integers in independent namespaces; ``(0, left)`` and
  ``(0, right)`` are different nodes.
- **Edge kinds.** Regularisation (paper §4.2.2) adds *deficiency* edges
  (connecting a real node to a padding node) and *filler* edges
  (connecting a fresh pair of padding nodes).  The kind is recorded on
  the edge so schedule extraction can drop non-original traffic.
- **Incremental aggregates.** Node weight sums ``w(s)`` and the total
  weight ``P(G)`` are maintained incrementally; the peeling loops query
  them every iteration.
- **Array-backed edge store.** Per-edge data lives in flat lists indexed
  by edge id (``_eleft``/``_eright``/``_eweight``/``_ekind``); liveness
  is tracked by the ``_live`` dict.  :class:`Edge` objects are
  lazily-materialised *views* of those arrays, cached until the edge's
  weight changes, so the peeling hot path (:meth:`peel_weight`,
  :meth:`edge_weight`) mutates numbers instead of replacing frozen
  dataclass instances.

Weights may be ``int`` or ``float``.  The GGP/OGGP pipeline normalises
weights to integers (multiples of β), so exact arithmetic is the common
case; float support exists for the β = 0 limit and for direct WRGP use.
"""

from __future__ import annotations

import enum
import json
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

from repro.util.errors import GraphError

Number = float  # int | float — documented alias


class EdgeKind(enum.Enum):
    """Provenance of an edge with respect to the original input graph."""

    ORIGINAL = "original"
    #: Added by regularisation case 1 to top node weights up to the target.
    DEFICIENCY = "deficiency"
    #: Added by regularisation case 2 between two fresh padding nodes.
    FILLER = "filler"


class NodeKind(enum.Enum):
    """Provenance of a node."""

    ORIGINAL = "original"
    #: Fresh endpoint of a filler edge (case 2).
    FILLER = "filler"
    #: Padding node absorbing deficiency (case 1).
    PADDING = "padding"


@dataclass(frozen=True)
class Edge:
    """A single message: ``weight`` units of traffic from ``left`` to ``right``.

    Immutable view of the graph's edge arrays; weight changes are
    performed by the owning graph, which invalidates the cached view.
    """

    id: int
    left: int
    right: int
    weight: Number
    kind: EdgeKind = EdgeKind.ORIGINAL

    @property
    def endpoints(self) -> tuple[int, int]:
        """``(left, right)`` pair."""
        return (self.left, self.right)


class BipartiteGraph:
    """Weighted bipartite multigraph with incremental weight aggregates.

    Nodes are created implicitly by :meth:`add_edge` or explicitly by
    :meth:`add_left_node` / :meth:`add_right_node` (isolated nodes are
    legal and occur transiently during regularisation).

    The class exposes the paper's notations directly:

    - :meth:`total_weight` — :math:`P(G) = \\sum_e f(e)`,
    - :meth:`node_weight` — :math:`w(s)`,
    - :meth:`max_node_weight` — :math:`W(G) = \\max_s w(s)`,
    - :meth:`degree` / :meth:`max_degree` — :math:`\\Delta`.
    """

    __slots__ = (
        "_live",
        "_eleft",
        "_eright",
        "_eweight",
        "_ekind",
        "_left_adj",
        "_right_adj",
        "_left_kind",
        "_right_kind",
        "_left_weight",
        "_right_weight",
        "_total_weight",
        "_next_edge_id",
    )

    def __init__(self) -> None:
        #: live edge id -> cached Edge view (None until materialised).
        self._live: dict[int, Edge | None] = {}
        # Flat per-edge stores indexed by edge id; slots for removed
        # edges keep their last values but are not live.
        self._eleft: list[int] = []
        self._eright: list[int] = []
        self._eweight: list[Number] = []
        self._ekind: list[EdgeKind] = []
        self._left_adj: dict[int, set[int]] = {}
        self._right_adj: dict[int, set[int]] = {}
        self._left_kind: dict[int, NodeKind] = {}
        self._right_kind: dict[int, NodeKind] = {}
        self._left_weight: dict[int, Number] = {}
        self._right_weight: dict[int, Number] = {}
        self._total_weight: Number = 0
        self._next_edge_id: int = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[int, int, Number]],
    ) -> "BipartiteGraph":
        """Build a graph from ``(left, right, weight)`` triples.

        >>> g = BipartiteGraph.from_edges([(0, 0, 4.0), (0, 1, 2.0)])
        >>> g.num_edges
        2
        """
        g = cls()
        for left, right, weight in edges:
            g.add_edge(left, right, weight)
        return g

    def add_left_node(self, node: int, kind: NodeKind = NodeKind.ORIGINAL) -> None:
        """Ensure left node ``node`` exists (no-op when present)."""
        if node not in self._left_adj:
            self._left_adj[node] = set()
            self._left_kind[node] = kind
            self._left_weight[node] = 0

    def add_right_node(self, node: int, kind: NodeKind = NodeKind.ORIGINAL) -> None:
        """Ensure right node ``node`` exists (no-op when present)."""
        if node not in self._right_adj:
            self._right_adj[node] = set()
            self._right_kind[node] = kind
            self._right_weight[node] = 0

    @classmethod
    def _from_columns(
        cls,
        left_kinds: dict[int, NodeKind],
        right_kinds: dict[int, NodeKind],
        ids: list[int],
        lefts: list[int],
        rights: list[int],
        weights: list[Number],
        kinds: list[EdgeKind],
        next_edge_id: int,
    ) -> "BipartiteGraph":
        """Bulk constructor from edge columns, with no per-edge call.

        Used by :meth:`from_dict`, :meth:`map_weights` and the KPBW
        decoder.  Builds the graph that adding the nodes of
        ``left_kinds`` and ``right_kinds`` (id -> kind, in order) and then
        each edge of the columns, in ``ids`` order, would build: same
        ``_live`` order, adjacency, padded slots and sums.  Callers check
        that weights are positive.  The ids are checked here (unique,
        non-negative, below ``next_edge_id``) before any slot is
        allocated, and an endpoint missing from the node maps raises
        :class:`GraphError`.  The node maps and columns are adopted, not
        copied.
        """
        live: dict[int, Edge | None] = dict.fromkeys(ids)
        size = len(ids)
        in_slot_order = ids == list(range(size))
        if not in_slot_order:
            if len(live) != size:
                ((duplicate, _),) = Counter(ids).most_common(1)
                raise GraphError(f"duplicate edge id {duplicate}")
            if min(ids) < 0:
                raise GraphError(f"edge id {min(ids)} is negative")
            size = max(ids) + 1
        if next_edge_id < size:
            raise GraphError(
                f"next_edge_id {next_edge_id} does not clear the highest "
                f"edge id {size - 1}"
            )
        left_adj: dict[int, set[int]] = {node: set() for node in left_kinds}
        right_adj: dict[int, set[int]] = {node: set() for node in right_kinds}
        left_weight: dict[int, Number] = dict.fromkeys(left_kinds, 0)
        right_weight: dict[int, Number] = dict.fromkeys(right_kinds, 0)
        total: Number = 0
        try:
            for edge_id, left, right, weight in zip(ids, lefts, rights, weights):
                left_adj[left].add(edge_id)
                right_adj[right].add(edge_id)
                left_weight[left] += weight
                right_weight[right] += weight
                total += weight
        except KeyError:
            side, node = ("left", left) if left not in left_adj else ("right", right)
            raise GraphError(
                f"graph is inconsistent: edge {edge_id} names missing "
                f"{side} node {node}"
            ) from None
        if in_slot_order:
            eleft, eright, eweight, ekind = lefts, rights, weights, kinds
        else:
            eleft = [0] * size
            eright = [0] * size
            eweight: list[Number] = [0] * size
            ekind = [EdgeKind.ORIGINAL] * size
            for edge_id, left, right, weight, kind in zip(
                ids, lefts, rights, weights, kinds
            ):
                eleft[edge_id] = left
                eright[edge_id] = right
                eweight[edge_id] = weight
                ekind[edge_id] = kind
        g = cls()
        g._live = live
        g._eleft = eleft
        g._eright = eright
        g._eweight = eweight
        g._ekind = ekind
        g._left_adj = left_adj
        g._right_adj = right_adj
        g._left_kind = left_kinds
        g._right_kind = right_kinds
        g._left_weight = left_weight
        g._right_weight = right_weight
        g._total_weight = total
        g._next_edge_id = next_edge_id
        return g

    def add_edge(
        self,
        left: int,
        right: int,
        weight: Number,
        kind: EdgeKind = EdgeKind.ORIGINAL,
        left_kind: NodeKind = NodeKind.ORIGINAL,
        right_kind: NodeKind = NodeKind.ORIGINAL,
    ) -> Edge:
        """Add an edge; creates endpoints as needed; returns the new Edge.

        Weights must be strictly positive: a zero-weight message is no
        message at all, and the peeling algorithms rely on positivity.
        """
        if weight <= 0:
            raise GraphError(
                f"edge weight must be positive, got {weight!r} for ({left},{right})"
            )
        self.add_left_node(left, left_kind)
        self.add_right_node(right, right_kind)
        edge_id = self._next_edge_id
        self._next_edge_id += 1
        store = self._eleft
        if edge_id >= len(store):
            pad = edge_id + 1 - len(store)
            store.extend([0] * pad)
            self._eright.extend([0] * pad)
            self._eweight.extend([0] * pad)
            self._ekind.extend([EdgeKind.ORIGINAL] * pad)
        self._eleft[edge_id] = left
        self._eright[edge_id] = right
        self._eweight[edge_id] = weight
        self._ekind[edge_id] = kind
        self._live[edge_id] = None
        self._left_adj[left].add(edge_id)
        self._right_adj[right].add(edge_id)
        self._left_weight[left] += weight
        self._right_weight[right] += weight
        self._total_weight += weight
        return self.edge(edge_id)

    def remove_edge(self, edge_id: int) -> Edge:
        """Remove and return an edge by id."""
        edge = self.edge(edge_id)  # raises GraphError when absent
        del self._live[edge_id]
        self._left_adj[edge.left].discard(edge_id)
        self._right_adj[edge.right].discard(edge_id)
        self._left_weight[edge.left] -= edge.weight
        self._right_weight[edge.right] -= edge.weight
        self._total_weight -= edge.weight
        return edge

    def peel_weight(self, edge_id: int, amount: Number) -> Number:
        """Peel ``amount`` off an edge; returns the remaining weight.

        Fast path for the peeling loops: mutates the flat weight array
        and the aggregates without materialising an :class:`Edge`.
        Returns 0 when the edge reached zero weight and was removed.
        Peeling more than the remaining weight is an error — the WRGP
        invariant guarantees it never happens.
        """
        if edge_id not in self._live:
            raise GraphError(f"no edge with id {edge_id}")
        if amount <= 0:
            raise GraphError(f"peel amount must be positive, got {amount!r}")
        remaining = self._eweight[edge_id] - amount
        if remaining < 0:
            raise GraphError(
                f"cannot peel {amount!r} off edge {edge_id} of weight "
                f"{self._eweight[edge_id]!r}"
            )
        if remaining == 0:
            left = self._eleft[edge_id]
            right = self._eright[edge_id]
            del self._live[edge_id]
            self._left_adj[left].discard(edge_id)
            self._right_adj[right].discard(edge_id)
            self._eweight[edge_id] = 0
        else:
            left = self._eleft[edge_id]
            right = self._eright[edge_id]
            self._eweight[edge_id] = remaining
            self._live[edge_id] = None  # invalidate the cached view
        self._left_weight[left] -= amount
        self._right_weight[right] -= amount
        self._total_weight -= amount
        return remaining

    def decrease_weight(self, edge_id: int, amount: Number) -> Edge | None:
        """Peel ``amount`` off an edge.

        Returns the updated edge, or ``None`` when the edge reached zero
        weight and was removed.  :meth:`peel_weight` is the equivalent
        fast path that skips materialising the returned Edge.
        """
        if self.peel_weight(edge_id, amount) == 0:
            return None
        return self.edge(edge_id)

    def remove_isolated_nodes(self) -> tuple[list[int], list[int]]:
        """Drop nodes with no adjacent edges.

        Returns the ``(left_ids, right_ids)`` that were removed.  Used by
        regularisation: isolated nodes carry no traffic, and padding them
        up to the regular weight would only add useless dummy work.
        """
        left_removed = sorted(n for n, s in self._left_adj.items() if not s)
        right_removed = sorted(n for n, s in self._right_adj.items() if not s)
        for n in left_removed:
            del self._left_adj[n]
            del self._left_kind[n]
            del self._left_weight[n]
        for n in right_removed:
            del self._right_adj[n]
            del self._right_kind[n]
            del self._right_weight[n]
        return left_removed, right_removed

    def copy(self) -> "BipartiteGraph":
        """Deep copy (edge views are immutable, so sharing them is safe)."""
        g = BipartiteGraph()
        g._live = dict(self._live)
        g._eleft = self._eleft.copy()
        g._eright = self._eright.copy()
        g._eweight = self._eweight.copy()
        g._ekind = self._ekind.copy()
        g._left_adj = {n: set(s) for n, s in self._left_adj.items()}
        g._right_adj = {n: set(s) for n, s in self._right_adj.items()}
        g._left_kind = dict(self._left_kind)
        g._right_kind = dict(self._right_kind)
        g._left_weight = dict(self._left_weight)
        g._right_weight = dict(self._right_weight)
        g._total_weight = self._total_weight
        g._next_edge_id = self._next_edge_id
        return g

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def num_edges(self) -> int:
        """Number of edges ``m``."""
        return len(self._live)

    @property
    def num_left(self) -> int:
        """Number of left (sender) nodes, including isolated ones."""
        return len(self._left_adj)

    @property
    def num_right(self) -> int:
        """Number of right (receiver) nodes, including isolated ones."""
        return len(self._right_adj)

    def left_nodes(self) -> list[int]:
        """Sorted left node ids."""
        return sorted(self._left_adj)

    def right_nodes(self) -> list[int]:
        """Sorted right node ids."""
        return sorted(self._right_adj)

    def has_edge_id(self, edge_id: int) -> bool:
        """True when an edge with this id is present."""
        return edge_id in self._live

    def edge(self, edge_id: int) -> Edge:
        """Edge by id (raises GraphError when absent)."""
        try:
            view = self._live[edge_id]
        except KeyError:
            raise GraphError(f"no edge with id {edge_id}") from None
        if view is None:
            view = Edge(
                edge_id,
                self._eleft[edge_id],
                self._eright[edge_id],
                self._eweight[edge_id],
                self._ekind[edge_id],
            )
            self._live[edge_id] = view
        return view

    def edge_weight(self, edge_id: int) -> Number:
        """Current weight of an edge — array read, no Edge materialisation."""
        if edge_id not in self._live:
            raise GraphError(f"no edge with id {edge_id}")
        return self._eweight[edge_id]

    def edge_endpoints(self, edge_id: int) -> tuple[int, int]:
        """``(left, right)`` of an edge without materialising a view."""
        if edge_id not in self._live:
            raise GraphError(f"no edge with id {edge_id}")
        return (self._eleft[edge_id], self._eright[edge_id])

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges (order unspecified)."""
        for edge_id in self._live:
            yield self.edge(edge_id)

    def edge_ids(self) -> list[int]:
        """Sorted list of edge ids (stable iteration order for algorithms)."""
        return sorted(self._live)

    def iter_edge_data(
        self,
    ) -> Iterator[tuple[int, int, int, Number, EdgeKind]]:
        """Iterate ``(id, left, right, weight, kind)`` tuples (order unspecified).

        Flat-array companion of :meth:`edges` for callers that only
        need the scalar fields: no :class:`Edge` views are materialised
        (or cached), which matters in the matching hot loops that scan
        every edge per call.
        """
        el = self._eleft
        er = self._eright
        ew = self._eweight
        ek = self._ekind
        for eid in self._live:
            yield (eid, el[eid], er[eid], ew[eid], ek[eid])

    def edges_sorted(self, key: Callable[[Edge], object] | None = None) -> list[Edge]:
        """Edges sorted by ``key`` (default: by id, i.e. insertion order)."""
        if key is None:
            return [self.edge(i) for i in sorted(self._live)]
        return sorted(self.edges(), key=key)  # type: ignore[arg-type]

    def left_node_kind(self, node: int) -> NodeKind:
        """Provenance of a left node."""
        return self._left_kind[node]

    def right_node_kind(self, node: int) -> NodeKind:
        """Provenance of a right node."""
        return self._right_kind[node]

    def degree(self, node: int, side: str) -> int:
        """Degree of ``node`` on ``side`` ('left' or 'right')."""
        adj = self._left_adj if side == "left" else self._right_adj
        return len(adj[node])

    def max_degree(self) -> int:
        """:math:`\\Delta(G)` — the maximum degree over all nodes."""
        degrees = [len(s) for s in self._left_adj.values()]
        degrees += [len(s) for s in self._right_adj.values()]
        return max(degrees, default=0)

    def node_weight(self, node: int, side: str) -> Number:
        """:math:`w(s)` — sum of weights of edges adjacent to ``node``."""
        weights = self._left_weight if side == "left" else self._right_weight
        return weights[node]

    def max_node_weight(self) -> Number:
        """:math:`W(G) = \\max_s w(s)` (0 for an empty graph)."""
        candidates = list(self._left_weight.values()) + list(self._right_weight.values())
        return max(candidates, default=0)

    def total_weight(self) -> Number:
        """:math:`P(G) = \\sum_e f(e)`."""
        return self._total_weight

    def is_empty(self) -> bool:
        """True when the graph has no edges."""
        return not self._live

    def is_weight_regular(self, tol: float = 1e-9) -> bool:
        """True when every *node* has the same weight sum :math:`w(s)`.

        Isolated nodes (weight 0) break regularity unless every node is
        isolated.  ``tol`` is an absolute tolerance for float weights.
        """
        weights = list(self._left_weight.values()) + list(self._right_weight.values())
        if not weights:
            return True
        lo, hi = min(weights), max(weights)
        return hi - lo <= tol

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------

    def map_weights(self, fn: Callable[[Number], Number]) -> "BipartiteGraph":
        """New graph with every weight replaced by ``fn(weight)``.

        Node ids, edge ids and kinds are preserved.  Used by the β
        normalisation step.
        """
        ids = sorted(self._live)
        weights = []
        for edge_id in ids:
            new_weight = fn(self._eweight[edge_id])
            if new_weight <= 0:
                raise GraphError(
                    f"map_weights produced non-positive weight {new_weight!r}"
                )
            weights.append(new_weight)
        return BipartiteGraph._from_columns(
            {node: self._left_kind[node] for node in self._left_adj},
            {node: self._right_kind[node] for node in self._right_adj},
            ids,
            [self._eleft[i] for i in ids],
            [self._eright[i] for i in ids],
            weights,
            [self._ekind[i] for i in ids],
            self._next_edge_id,
        )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-compatible representation."""
        return {
            "left_nodes": [
                {"id": n, "kind": self._left_kind[n].value} for n in self.left_nodes()
            ],
            "right_nodes": [
                {"id": n, "kind": self._right_kind[n].value} for n in self.right_nodes()
            ],
            "edges": [
                {
                    "id": e.id,
                    "left": e.left,
                    "right": e.right,
                    "weight": e.weight,
                    "kind": e.kind.value,
                }
                for e in self.edges_sorted()
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "BipartiteGraph":
        """Inverse of :meth:`to_dict`."""
        left_kinds: dict[int, NodeKind] = {}
        right_kinds: dict[int, NodeKind] = {}
        for node in data.get("left_nodes", []):
            left_kinds.setdefault(
                int(node["id"]), NodeKind(node.get("kind", "original"))
            )
        for node in data.get("right_nodes", []):
            right_kinds.setdefault(
                int(node["id"]), NodeKind(node.get("kind", "original"))
            )
        ids: list[int] = []
        lefts: list[int] = []
        rights: list[int] = []
        weights: list[Number] = []
        kinds: list[EdgeKind] = []
        for item in data["edges"]:
            edge_id = int(item["id"])
            weight = item["weight"]
            if weight <= 0:
                raise GraphError(f"edge {edge_id} has non-positive weight")
            left = int(item["left"])
            right = int(item["right"])
            left_kinds.setdefault(left, NodeKind.ORIGINAL)
            right_kinds.setdefault(right, NodeKind.ORIGINAL)
            ids.append(edge_id)
            lefts.append(left)
            rights.append(right)
            weights.append(weight)
            kinds.append(EdgeKind(item.get("kind", "original")))
        return cls._from_columns(
            left_kinds, right_kinds, ids, lefts, rights, weights, kinds,
            max(ids, default=-1) + 1,
        )

    def to_json(self) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "BipartiteGraph":
        """Deserialise from a JSON string."""
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # Validation / dunder
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check internal invariants; raises GraphError on corruption.

        Intended for tests and debugging — all public operations preserve
        these invariants.
        """
        total: Number = 0
        left_w: dict[int, Number] = {n: 0 for n in self._left_adj}
        right_w: dict[int, Number] = {n: 0 for n in self._right_adj}
        for edge_id, view in self._live.items():
            left = self._eleft[edge_id]
            right = self._eright[edge_id]
            weight = self._eweight[edge_id]
            if weight <= 0:
                raise GraphError(f"edge {edge_id} has non-positive weight")
            if view is not None and (
                view.left != left or view.right != right or view.weight != weight
            ):
                raise GraphError(f"stale cached view for edge {edge_id}")
            if edge_id not in self._left_adj.get(left, ()):  # type: ignore[operator]
                raise GraphError(f"edge {edge_id} missing from left adjacency")
            if edge_id not in self._right_adj.get(right, ()):  # type: ignore[operator]
                raise GraphError(f"edge {edge_id} missing from right adjacency")
            total += weight
            left_w[left] += weight
            right_w[right] += weight
        for side_adj, side in ((self._left_adj, "left"), (self._right_adj, "right")):
            for node, ids in side_adj.items():
                for eid in ids:
                    if eid not in self._live:
                        raise GraphError(f"stale edge id {eid} at {side} node {node}")
        if abs(total - self._total_weight) > 1e-6 * max(1.0, abs(total)):
            raise GraphError(
                f"total weight cache {self._total_weight!r} != recomputed {total!r}"
            )
        for node, w in left_w.items():
            if abs(w - self._left_weight[node]) > 1e-6 * max(1.0, abs(w)):
                raise GraphError(f"left weight cache wrong at node {node}")
        for node, w in right_w.items():
            if abs(w - self._right_weight[node]) > 1e-6 * max(1.0, abs(w)):
                raise GraphError(f"right weight cache wrong at node {node}")

    def __len__(self) -> int:
        return len(self._live)

    def __repr__(self) -> str:
        return (
            f"BipartiteGraph(left={self.num_left}, right={self.num_right}, "
            f"edges={self.num_edges}, P={self._total_weight!r})"
        )

    def __eq__(self, other: object) -> bool:
        """Structural equality: same nodes and same (left,right,weight,kind) multiset."""
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        if set(self._left_adj) != set(other._left_adj):
            return False
        if set(self._right_adj) != set(other._right_adj):
            return False
        mine = sorted(
            (self._eleft[i], self._eright[i], self._eweight[i], self._ekind[i].value)
            for i in self._live
        )
        theirs = sorted(
            (
                other._eleft[i],
                other._eright[i],
                other._eweight[i],
                other._ekind[i].value,
            )
            for i in other._live
        )
        return mine == theirs

    def __hash__(self) -> int:  # pragma: no cover - mutable, not hashable
        raise TypeError("BipartiteGraph is mutable and unhashable")
