"""Warm-started matching engines for the WRGP/GGP/OGGP peeling loops.

The peeling loops call a matching routine up to ``m`` times on a graph
that changes only slightly between calls: one peel decreases the weight
of the ``n`` matched edges and deletes the exhausted ones.  The
stateless routines (:func:`repro.matching.bottleneck.bottleneck_matching`,
:func:`repro.matching.hungarian.hungarian_perfect_matching`) rebuild
everything from scratch per call — a full edge sort, a fresh adjacency,
a matching regrown from empty.  The peeler classes persist that state
across peels and return the same matchings:

- :class:`BottleneckPeeler` keeps the descending weight-class index (a
  sorted array, repaired incrementally — only the peeled edges move)
  and the dense node indexing, and re-runs the threshold sweep from the
  top class each peel on the int-array matcher.  It lives in
  :mod:`repro.matching.vector` beside that matcher and is re-exported
  here.
- :class:`HungarianPeeler` snapshots the graph into arrays it owns —
  exact per-edge weights, the dense score matrix and the per-cell
  best-parallel-edge table — and applies each peel to them itself, so
  a round is ``(matched edge ids, peel)`` with no ``Edge``/``Matching``
  built and no graph read.  The assignment solve sees a matrix
  identical to the one the stateless path would build, so its
  matchings are unchanged.
"""

from __future__ import annotations

from operator import add

import numpy as np

from repro import obs
from repro.graph.bipartite import BipartiteGraph, Number
from repro.matching.vector import BottleneckPeeler
from repro.util.errors import MatchingError

__all__ = ["BottleneckPeeler", "HungarianPeeler"]

#: ``-_INF`` starts the best-parallel-edge scan below every real score.
_INF = float("inf")


class HungarianPeeler:
    """Maximum-weight perfect matching rounds over arrays the peeler owns.

    Equivalent to peeling with
    :func:`~repro.matching.hungarian.hungarian_perfect_matching` every
    round.  The graph is read once, at construction: per edge its exact
    remaining weight (whatever number type the graph holds); per
    ``(left, right)`` cell a float score, a feasibility flag and the
    best edge id, with ascending id lists only for multi-edge cells.
    :meth:`next_matching` solves the matrix the stateless path would
    build from the peeled graph, then applies the peel to these arrays.
    """

    def __init__(self, graph: BipartiteGraph) -> None:
        lefts = graph.left_nodes()
        rights = graph.right_nodes()
        if len(lefts) != len(rights):
            raise MatchingError(
                f"perfect matching impossible: {len(lefts)} left vs "
                f"{len(rights)} right nodes"
            )
        self._n = n = len(lefts)
        row = {node: i * n for i, node in enumerate(lefts)}
        col = {node: j for j, node in enumerate(rights)}
        self._w: list[Number] = [0] * (max(graph.edge_ids(), default=-1) + 1)
        w = self._w
        by_cell: dict[int, list[int]] = {}
        for eid, left, right, weight, _kind in graph.iter_edge_data():
            w[eid] = weight
            by_cell.setdefault(row[left] + col[right], []).append(eid)
        #: Edges with weight left, and their exact total weight.
        self.live = graph.num_edges
        self.remaining: Number = graph.total_weight()
        #: cell -> ascending ids of its edges, for multi-edge cells only.
        self._parallel = {
            cell: sorted(ids) for cell, ids in by_cell.items() if len(ids) > 1
        }
        self._best = [-1] * (n * n)
        cells, scores = [], []
        for cell, ids in by_cell.items():
            if len(ids) > 1:
                eid, score = self._best_parallel(self._parallel[cell])
            else:
                eid = ids[0]
                score = float(w[eid])
            self._best[cell] = eid
            cells.append(cell)
            scores.append(score)
        self._score = np.zeros(n * n, dtype=float)
        self._score[cells] = scores
        self._feasible = np.zeros(n * n, dtype=bool)
        self._feasible[cells] = True
        #: Flat index of each row's first cell.
        self._rows = range(0, n * n, n)

    def _best_parallel(self, ids: list[int]) -> tuple[int, float]:
        """Live edge with the largest float weight, ties to the smaller id.

        ``ids`` ascend, so a strict ``>`` keeps the smallest id of a tie
        — the edge the stateless path records.  ``(-1, -inf)`` when no
        edge of the cell has weight left.
        """
        w = self._w
        best_eid = -1
        best_score = -_INF
        for eid in ids:
            if w[eid]:
                score = float(w[eid])
                if score > best_score:
                    best_eid = eid
                    best_score = score
        return best_eid, best_score

    def _refresh_parallel(self, cells: list[int]) -> None:
        """Re-pick the best edge of each touched multi-edge cell."""
        parallel = self._parallel
        for cell in cells:
            ids = parallel.get(cell)
            if ids is not None:
                eid, score = self._best_parallel(ids)
                self._best[cell] = eid
                if eid >= 0:
                    self._score[cell] = score
                    self._feasible[cell] = True

    def next_matching(self) -> tuple[list[int], Number]:
        """One peel round: ``(sorted matched edge ids, peel amount)``.

        Solves the maximum-weight perfect matching of the remaining
        weights, then peels its minimum weight off every matched edge.
        Raises :class:`MatchingError` when no perfect matching exists.
        """
        from repro.matching.hungarian import _solve_max

        n = self._n
        metrics = obs.metrics()
        metrics.counter("matching.hungarian.calls").inc()
        if n == 0:
            return [], 0
        metrics.histogram("matching.hungarian.size").observe(n)
        # Missing-pair sentinel far below any feasible total, from the
        # exact remaining total, exactly as the stateless path does.
        missing = -(float(self.remaining) + 1.0) * (n + 1)
        score = np.where(self._feasible, self._score, missing).reshape(n, n)
        cells = list(map(add, self._rows, _solve_max(score)))
        best = self._best
        eids = list(map(best.__getitem__, cells))
        if -1 in eids:
            raise MatchingError("graph has no perfect matching")
        w = self._w
        # Rows in order, like ``Matching.min_weight`` of the stateless
        # result: with mixed int/float weights a tie keeps the same type.
        peel = min(map(w.__getitem__, eids))
        rests = [w[eid] - peel for eid in eids]
        remaining = self.remaining
        for eid, rest in zip(eids, rests):
            w[eid] = rest
            remaining -= peel  # per edge, as the graph's running total
        self.remaining = remaining
        # Exhausted cells keep a stale score; the mask hides it.
        self._score[cells] = list(map(float, rests))
        if 0 in rests:
            dead = [cell for cell, rest in zip(cells, rests) if not rest]
            self.live -= len(dead)
            self._feasible[dead] = False
            for cell in dead:
                best[cell] = -1
        if self._parallel:
            self._refresh_parallel(cells)
        eids.sort()
        return eids, peel
