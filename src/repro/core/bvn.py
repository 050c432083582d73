"""Birkhoff–von Neumann decomposition via WRGP.

The classical theorem: a doubly stochastic matrix is a convex
combination of permutation matrices.  Constructively, any non-negative
square matrix whose rows and columns all sum to the same value ``R``
decomposes as a weighted sum of at most ``(n-1)^2 + 1`` permutation
matrices.

This is exactly the β = 0, unbounded-k special case of K-PBS on a
weight-regular graph — each WRGP peel is one permutation with the peel
amount as its coefficient — so the implementation simply drives
:func:`repro.core.wrgp.peel_weight_regular`, whose ``(edge ids, peel)``
rounds come (by default) from the exact bottleneck peeler over the
input's ``Fraction`` weights.  It is exposed as a standalone utility
because the decomposition is useful beyond scheduling (e.g. SS/TDMA
switch programs, the paper's §3 related work), and because it gives
WRGP an independent, classical correctness oracle: the weighted
permutations must reconstruct the input matrix exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from repro.core.wrgp import MatchingStrategy, peel_weight_regular
from repro.graph.bipartite import BipartiteGraph
from repro.util.errors import GraphError


def birkhoff_von_neumann(
    matrix: Sequence[Sequence[float]] | np.ndarray,
    matching: MatchingStrategy = "bottleneck",
    rel_tol: float = 1e-9,
) -> list[tuple[float, tuple[int, ...]]]:
    """Decompose a weight-regular matrix into weighted permutations.

    ``matrix`` must be square, non-negative, with all row sums and
    column sums equal (within ``rel_tol`` relative tolerance — entries
    are converted to exact Fractions internally, and the last column is
    *not* adjusted: genuinely irregular input raises
    :class:`GraphError`).

    Returns ``[(coefficient, perm), ...]`` where ``perm[i]`` is the
    column matched to row ``i``; the weighted permutation matrices sum
    back to ``matrix`` exactly (up to the float→Fraction conversion of
    the inputs).

    >>> import numpy as np
    >>> parts = birkhoff_von_neumann(np.array([[2.0, 1.0], [1.0, 2.0]]))
    >>> sorted((c, p) for c, p in parts)
    [(1.0, (1, 0)), (2.0, (0, 1))]
    """
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise GraphError(f"matrix must be square, got shape {arr.shape}")
    if (arr < 0).any():
        raise GraphError("matrix entries must be non-negative")
    n = arr.shape[0]
    rows = arr.sum(axis=1)
    cols = arr.sum(axis=0)
    target = rows[0]
    scale = max(1.0, abs(target))
    if (np.abs(rows - target) > rel_tol * scale).any() or (
        np.abs(cols - target) > rel_tol * scale
    ).any():
        raise GraphError(
            "matrix is not weight-regular: row/column sums differ "
            f"(rows {rows.tolist()}, cols {cols.tolist()})"
        )
    if target == 0:
        return []

    graph = BipartiteGraph()
    for i in range(n):
        for j in range(n):
            if arr[i, j] > 0:
                # Snap floats to nearby simple rationals (1/3-style
                # entries become exact), then demand exact regularity —
                # the peeling loop needs it, and silently "fixing" the
                # input would decompose a different matrix.
                weight = Fraction(float(arr[i, j])).limit_denominator(10**12)
                graph.add_edge(i, j, weight)
    if not graph.is_weight_regular(tol=0):
        raise GraphError(
            "matrix row/column sums are not exactly equal after exact "
            "rational conversion; pre-normalise the input (e.g. scale to "
            "integers) and retry"
        )

    # The rounds may consume ``graph``, so the endpoints are read first.
    endpoints = {
        eid: (left, right) for eid, left, right, _w, _kind in graph.iter_edge_data()
    }
    parts: list[tuple[float, tuple[int, ...]]] = []
    for eids, peel in peel_weight_regular(graph, matching=matching):
        perm = [-1] * n
        for eid in eids:
            left, right = endpoints[eid]
            perm[left] = right
        parts.append((float(peel), tuple(perm)))
    return parts


def reconstruct(
    parts: Sequence[tuple[float, tuple[int, ...]]],
    n: int | None = None,
) -> np.ndarray:
    """Sum weighted permutation matrices back into a matrix."""
    if not parts:
        return np.zeros((0, 0) if n is None else (n, n))
    size = n if n is not None else len(parts[0][1])
    out = np.zeros((size, size))
    for coefficient, perm in parts:
        if len(perm) != size:
            raise GraphError(
                f"permutation of length {len(perm)} in a size-{size} "
                "decomposition"
            )
        out[np.arange(size), list(perm)] += coefficient
    return out


def is_doubly_stochastic(
    matrix: np.ndarray,
    tol: float = 1e-9,
) -> bool:
    """True when ``matrix`` is square, non-negative, rows/cols sum to 1."""
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        return False
    if (arr < -tol).any():
        return False
    return bool(
        np.allclose(arr.sum(axis=0), 1.0, atol=tol)
        and np.allclose(arr.sum(axis=1), 1.0, atol=tol)
    )
