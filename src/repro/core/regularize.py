"""Turning an arbitrary bipartite graph into a weight-regular one (§4.2.2).

The construction guarantees (paper Proposition 1) that **every perfect
matching of the regularised graph contains at most** ``k`` **edges of the
original graph**, so peeling perfect matchings automatically respects the
backbone constraint.

Two stages, exactly as in the paper:

*Stage A (case 2 fix-up).*  Add *filler* edges, each joining a fresh pair
of nodes, so that the total weight becomes ``R * k`` where
``R = max(W(G), ceil(P(G)/k))`` is the target per-node weight.  Filler
edges carry weight ``min(remaining, W(G))``, so the maximum node weight
never rises above ``R``.

*Stage B (case 1).*  Let ``n1'``/``n2'`` be the left/right node counts
after stage A.  Add ``n2' - k`` padding nodes to the left side and
``n1' - k`` to the right side, and *deficiency* edges connecting only
real-to-padding pairs, in a northwest-corner transportation fill, so
every node's weight becomes exactly ``R``.  The left-side total
deficiency is ``R*n1' - R*k = R*(n1' - k)`` — exactly the capacity of the
``n1' - k`` padding right nodes, so the fill closes exactly (all
arithmetic is exact: ``int`` or ``Fraction`` weights).

The resulting graph is square (both sides have ``n1' + n2' - k`` nodes)
and ``R``-weight-regular, hence admits a perfect matching (a classical
corollary of Hall's theorem used by the paper, [8]).

Proposition 1 then follows by counting: a perfect matching has
``n1' + n2' - k`` edges; padding nodes contribute ``(n1' - k) + (n2' - k)``
edges not in the stage-A graph, leaving exactly ``k`` stage-A edges, of
which at most ``k`` are original (filler edges may take some slots).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.graph.bipartite import BipartiteGraph, EdgeKind, NodeKind, Number
from repro.util.errors import GraphError


@dataclass
class RegularizationResult:
    """Output of :func:`regularize`.

    ``graph`` is the weight-regular graph J; ``target`` is the per-node
    weight R; ``k_eff`` the effective simultaneity bound after clamping
    to the side sizes (a matching can never exceed ``min(n1, n2)``
    original edges, so clamping loses nothing).
    """

    graph: BipartiteGraph
    target: Number
    k_eff: int
    num_filler_edges: int = 0
    num_deficiency_edges: int = 0
    dropped_left: list[int] = field(default_factory=list)
    dropped_right: list[int] = field(default_factory=list)

    def validate(self) -> None:
        """Assert the advertised invariants of the construction."""
        j = self.graph
        if not j.is_weight_regular():
            raise GraphError("regularized graph is not weight-regular")
        if j.num_left != j.num_right:
            raise GraphError(
                f"regularized graph is not square: {j.num_left} vs {j.num_right}"
            )
        if not j.is_empty():
            for node in j.left_nodes():
                if j.node_weight(node, "left") != self.target:
                    raise GraphError(
                        f"left node {node} has weight {j.node_weight(node, 'left')!r}"
                        f" != target {self.target!r}"
                    )


def regularize(graph: BipartiteGraph, k: int) -> RegularizationResult:
    """Regularise ``graph`` for the GGP pipeline.

    ``graph`` must carry exact weights (``int`` or ``Fraction``); the
    normalisation step guarantees this.  The input is not mutated.
    """
    if k < 1:
        raise GraphError(f"k must be >= 1, got {k}")
    j = graph.copy()
    dropped_left, dropped_right = j.remove_isolated_nodes()
    if j.is_empty():
        return RegularizationResult(
            graph=j,
            target=0,
            k_eff=1,
            dropped_left=dropped_left,
            dropped_right=dropped_right,
        )

    n1 = j.num_left
    n2 = j.num_right
    k_eff = min(k, n1, n2)
    total = j.total_weight()
    max_node_w = j.max_node_weight()

    integral = _all_integral(j)
    if integral:
        bandwidth = -(-total // k_eff)  # ceil for ints
    else:
        bandwidth = total / k_eff  # Fraction division is exact
    target = max(max_node_w, bandwidth)

    # ---- Stage A: filler edges between fresh node pairs -------------
    next_left = max(j.left_nodes()) + 1
    next_right = max(j.right_nodes()) + 1
    filler_count = 0
    remaining = target * k_eff - total
    if remaining < 0:  # pragma: no cover - arithmetic guarantee
        raise GraphError(f"negative filler requirement {remaining!r}")
    while remaining > 0:
        w = min(remaining, max_node_w)
        j.add_edge(
            next_left,
            next_right,
            w,
            kind=EdgeKind.FILLER,
            left_kind=NodeKind.FILLER,
            right_kind=NodeKind.FILLER,
        )
        next_left += 1
        next_right += 1
        filler_count += 1
        remaining -= w

    # ---- Stage B: deficiency fill to the target weight --------------
    deficiency_count = 0
    deficiency_count += _fill_side(j, side="left", target=target, next_id=next_right)
    next_left_after = max(j.left_nodes()) + 1
    deficiency_count += _fill_side(
        j, side="right", target=target, next_id=next_left_after
    )

    result = RegularizationResult(
        graph=j,
        target=target,
        k_eff=k_eff,
        num_filler_edges=filler_count,
        num_deficiency_edges=deficiency_count,
        dropped_left=dropped_left,
        dropped_right=dropped_right,
    )
    result.validate()

    # Virtual-structure accounting: how much scaffolding Proposition 1's
    # construction added on top of the real pattern.
    metrics = obs.metrics()
    metrics.counter("regularize.calls").inc()
    metrics.counter("regularize.filler_edges").inc(filler_count)
    metrics.counter("regularize.deficiency_edges").inc(deficiency_count)
    metrics.counter("regularize.added_left_nodes").inc(j.num_left - n1)
    metrics.counter("regularize.added_right_nodes").inc(j.num_right - n2)
    metrics.histogram("regularize.virtual_edge_fraction").observe(
        (filler_count + deficiency_count) / j.num_edges
    )
    # Proposition-1 invariant, by construction: a perfect matching of J
    # has n1' + n2' - k_eff edges, of which at most k_eff are original.
    metrics.gauge("regularize.k_eff").set(k_eff)
    metrics.gauge("regularize.target_weight").set(float(target))
    return result


def _all_integral(graph: BipartiteGraph) -> bool:
    """True when every weight is an int (the β > 0 normalised case)."""
    return all(isinstance(w, int) for _e, _l, _r, w, _k in graph.iter_edge_data())


def _fill_side(
    graph: BipartiteGraph,
    side: str,
    target: Number,
    next_id: int,
) -> int:
    """Northwest-corner deficiency fill for one side.

    ``side='left'`` tops every left node up to ``target`` by adding
    padding nodes on the *right* (and vice versa).  Returns the number
    of deficiency edges added.
    """
    nodes = graph.left_nodes() if side == "left" else graph.right_nodes()
    deficits = [
        (node, target - graph.node_weight(node, side))
        for node in nodes
    ]
    for node, d in deficits:
        if d < 0:
            raise GraphError(
                f"{side} node {node} exceeds target weight by {-d!r}"
            )

    edges_added = 0
    pad_node: int | None = None
    pad_capacity: Number = 0
    for node, deficit in deficits:
        while deficit > 0:
            if pad_capacity == 0:
                pad_node = next_id
                next_id += 1
                pad_capacity = target
                if side == "left":
                    graph.add_right_node(pad_node, NodeKind.PADDING)
                else:
                    graph.add_left_node(pad_node, NodeKind.PADDING)
            amount = min(deficit, pad_capacity)
            if side == "left":
                graph.add_edge(
                    node, pad_node, amount,
                    kind=EdgeKind.DEFICIENCY,
                    right_kind=NodeKind.PADDING,
                )
            else:
                graph.add_edge(
                    pad_node, node, amount,
                    kind=EdgeKind.DEFICIENCY,
                    left_kind=NodeKind.PADDING,
                )
            edges_added += 1
            deficit -= amount
            pad_capacity -= amount
    if pad_capacity != 0:
        raise GraphError(
            f"{side} deficiency fill left a padding node underfilled by "
            f"{pad_capacity!r} — the target/total arithmetic is inconsistent"
        )
    return edges_added
