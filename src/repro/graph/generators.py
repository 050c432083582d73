"""Bipartite graph generators.

Includes the random-instance generator used by the paper's simulations
(§5.1: "graphs are generated with a random number of nodes (up to 40) and
a random number of edges (up to 400)") and structured generators used by
the tests and examples.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.graph.bipartite import BipartiteGraph, Number
from repro.util.errors import GraphError
from repro.util.rng import RngStream, derive_rng


def random_bipartite(
    rng: RngStream | int | None,
    max_side: int = 20,
    max_edges: int = 400,
    weight_low: int = 1,
    weight_high: int = 20,
    min_side: int = 1,
    min_edges: int = 1,
    integer_weights: bool = True,
) -> BipartiteGraph:
    """Random instance in the style of the paper's simulations.

    Draws ``n1, n2 ~ U{min_side..max_side}`` (so up to ``2 * max_side``
    nodes total — the paper's "up to 40 nodes" with the default),
    ``m ~ U{min_edges..min(max_edges, n1*n2)}`` distinct sender/receiver
    pairs, and weights uniform in ``[weight_low, weight_high]``
    (integers by default, matching the paper's U{1..20} / U{1..10000}).

    Only nodes touched by an edge are created, so the graph never has
    isolated nodes.
    """
    rng = derive_rng(rng)
    if not (1 <= min_side <= max_side):
        raise GraphError(f"need 1 <= min_side <= max_side, got {min_side}, {max_side}")
    n1 = int(rng.integers(min_side, max_side + 1))
    n2 = int(rng.integers(min_side, max_side + 1))
    cap = n1 * n2
    lo = min(min_edges, cap)
    m = int(rng.integers(lo, min(max_edges, cap) + 1))
    pair_indices = rng.choice(cap, size=m, replace=False)
    if integer_weights:
        weights = rng.integers(weight_low, weight_high + 1, size=m)
    else:
        weights = rng.uniform(weight_low, weight_high, size=m)
    g = BipartiteGraph()
    for idx, w in zip(pair_indices, weights):
        left, right = divmod(int(idx), n2)
        g.add_edge(left, right, int(w) if integer_weights else float(w))
    return g


def random_weight_regular(
    rng: RngStream | int | None,
    n: int,
    layers: int = 3,
    weight_low: int = 1,
    weight_high: int = 10,
    merge_parallel: bool = True,
) -> BipartiteGraph:
    """Random weight-regular graph on ``n`` + ``n`` nodes.

    Built as a superposition of ``layers`` random perfect matchings, each
    with a single random weight: every node then carries exactly the sum
    of the layer weights, which makes the result weight-regular by
    construction (the WRGP precondition).

    With ``merge_parallel`` (default), parallel edges produced by two
    layers picking the same pair are merged into one edge of summed
    weight — regularity is unaffected.
    """
    rng = derive_rng(rng)
    if n < 1:
        raise GraphError(f"n must be >= 1, got {n}")
    if layers < 1:
        raise GraphError(f"layers must be >= 1, got {layers}")
    accumulated: dict[tuple[int, int], int] = {}
    g = BipartiteGraph()
    for _ in range(layers):
        perm = rng.permutation(n)
        w = int(rng.integers(weight_low, weight_high + 1))
        for left in range(n):
            pair = (left, int(perm[left]))
            if merge_parallel:
                accumulated[pair] = accumulated.get(pair, 0) + w
            else:
                g.add_edge(pair[0], pair[1], w)
    if merge_parallel:
        for (left, right), w in sorted(accumulated.items()):
            g.add_edge(left, right, w)
    return g


def complete_bipartite(
    n1: int,
    n2: int,
    weight: Number | Callable[[int, int], Number] = 1,
) -> BipartiteGraph:
    """Complete bipartite graph ``K(n1, n2)``.

    ``weight`` is either a constant or a callable ``(i, j) -> weight``.
    This is the all-to-all redistribution pattern of the paper's
    real-world experiments (§5.2).
    """
    if n1 < 1 or n2 < 1:
        raise GraphError(f"need n1, n2 >= 1, got {n1}, {n2}")
    fn = weight if callable(weight) else (lambda i, j: weight)  # type: ignore[misc]
    g = BipartiteGraph()
    for i in range(n1):
        for j in range(n2):
            g.add_edge(i, j, fn(i, j))
    return g


def _traffic_array(matrix) -> np.ndarray:
    """``matrix`` as a float array, checked 2-D, finite and non-negative."""
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2:
        raise GraphError(f"traffic matrix must be 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise GraphError("traffic matrix entries must be finite")
    if (arr < 0).any():
        raise GraphError("traffic matrix entries must be non-negative")
    return arr


def from_traffic_matrix(
    matrix: Sequence[Sequence[Number]] | np.ndarray,
    speed: Number = 1,
) -> BipartiteGraph:
    """Convert a traffic matrix ``M`` into a communication graph.

    Entry ``m[i][j]`` is the amount of data node ``i`` of cluster 1 sends
    to node ``j`` of cluster 2; the edge weight is the transfer *time*
    ``m[i][j] / speed`` (paper §2.2).  Zero entries produce no edge.
    All rows/columns are materialised as nodes even when empty, so node
    indexing matches the matrix.  Raises :class:`GraphError` unless the
    matrix is 2-D, finite and non-negative.
    """
    arr = _traffic_array(matrix)
    if speed <= 0:
        raise GraphError(f"speed must be positive, got {speed!r}")
    g = BipartiteGraph()
    n1, n2 = arr.shape
    for i in range(n1):
        g.add_left_node(i)
    for j in range(n2):
        g.add_right_node(j)
    for i in range(n1):
        for j in range(n2):
            if arr[i, j] > 0:
                g.add_edge(i, j, float(arr[i, j]) / speed)
    return g


def paper_figure2_graph() -> BipartiteGraph:
    """The worked example of the paper's Figure 2 (k = 3, β = 1).

    A 3 + 3 node graph with an edge of weight 8 that preemption splits
    into two chunks of 4, admitting a 3-step schedule of total cost
    ``(1+5) + (1+3) + (1+4) = 15``.
    """
    return BipartiteGraph.from_edges(
        [
            (0, 0, 8),
            (1, 1, 5),
            (2, 2, 4),
            (1, 2, 3),
            (2, 1, 3),
        ]
    )
