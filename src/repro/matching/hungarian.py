"""Maximum-weight perfect matching via the Hungarian method.

The paper's WRGP description finds perfect matchings "using the
Hungarian Method" [22].  A maximum-weight perfect matching tends to have
a larger *minimum* edge weight than an arbitrary one, so WRGP peels
bigger chunks and emits fewer steps — a middle ground between plain GGP
(arbitrary perfect matching) and OGGP (bottleneck-optimal matching).

Implementation: dense assignment problem solved by
:func:`scipy.optimize.linear_sum_assignment` on a matrix holding, for
each (left, right) pair, the heaviest parallel edge; pairs without an
edge get a large negative score.  Because the input graphs are
weight-regular (hence a perfect matching exists), the optimal assignment
never selects a missing pair.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.graph.bipartite import BipartiteGraph
from repro.matching.base import Matching
from repro.util.errors import MatchingError

try:  # SciPy is optional: prefer its C implementation when present.
    from scipy.optimize import linear_sum_assignment as _scipy_lsa
except ImportError:  # pragma: no cover - exercised via _solve_max tests
    _scipy_lsa = None


def _solve_max(score: np.ndarray) -> list[int]:
    """Max-score assignment: SciPy when available, pure Python otherwise."""
    if _scipy_lsa is not None:
        row, col = _scipy_lsa(score, maximize=True)
        out = np.full(score.shape[0], -1)
        out[row] = col
        return out.tolist()
    from repro.matching.assignment import solve_assignment_max

    return solve_assignment_max(score)


def hungarian_perfect_matching(graph: BipartiteGraph) -> Matching:
    """Maximum-weight perfect matching of a square bipartite graph.

    Raises :class:`MatchingError` when the graph is not square or has
    no perfect matching.
    """
    lefts = graph.left_nodes()
    rights = graph.right_nodes()
    if len(lefts) != len(rights):
        raise MatchingError(
            f"perfect matching impossible: {len(lefts)} left vs "
            f"{len(rights)} right nodes"
        )
    metrics = obs.metrics()
    metrics.counter("matching.hungarian.calls").inc()
    if not lefts:
        return Matching()
    n = len(lefts)
    metrics.histogram("matching.hungarian.size").observe(n)
    with obs.phase("matching.hungarian", n=n):
        left_pos = {node: i for i, node in enumerate(lefts)}
        right_pos = {node: j for j, node in enumerate(rights)}

        # Score matrix: heaviest parallel edge per pair; "missing" sentinel
        # far below any feasible total so a perfect matching avoids it.
        total = float(graph.total_weight())
        missing = -(total + 1.0) * (n + 1)
        score = np.full((n, n), missing, dtype=float)
        best_id: dict[tuple[int, int], int] = {}
        # Unsorted tuple iteration suffices: the winner per cell is pinned
        # by an explicit (max weight, then min id) comparison, so the
        # visiting order cannot change which parallel edge is recorded —
        # and no Edge views are built for the losing parallel edges.
        for eid, left, right, weight, _kind in graph.iter_edge_data():
            i, j = left_pos[left], right_pos[right]
            w = float(weight)
            cell = (i, j)
            best = best_id.get(cell)
            if best is None or w > score[i, j] or (w == score[i, j] and eid < best):
                score[i, j] = w
                best_id[cell] = eid

        assignment = _solve_max(score)
        edges = []
        for i, j in enumerate(assignment):
            eid = best_id.get((i, j))
            if eid is None:
                raise MatchingError("graph has no perfect matching")
            edges.append(graph.edge(eid))
        return Matching(edges)
