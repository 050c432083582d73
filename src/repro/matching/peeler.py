"""Warm-started matching engines for the WRGP/GGP/OGGP peeling loops.

The peeling loops call a matching routine up to ``m`` times on a graph
that changes only slightly between calls: one peel decreases the weight
of the ``n`` matched edges and deletes the exhausted ones.  The
stateless routines (:func:`repro.matching.bottleneck.bottleneck_matching`,
:func:`repro.matching.hungarian.hungarian_perfect_matching`) rebuild
everything from scratch per call — a full edge sort, a fresh adjacency,
a matching regrown from empty.  The peeler classes here persist that
state across peels:

- :class:`BottleneckPeeler` keeps the descending weight-class index (a
  sorted array, repaired incrementally — only the peeled edges move),
  the dense node indexing, and the Hopcroft–Karp scratch arrays.  Its
  default ``mode='replay'`` re-runs the threshold sweep from the top
  class each peel over int-indexed arrays, reproducing the stateless
  path's matchings *bitwise* (same admission order, same augmentation
  order), so schedules are unchanged while the constant factor drops.
  ``mode='resume'`` additionally persists the ``pair_left``/``pair_right``
  matching and the admitted-edge set across peels, resuming the
  threshold sweep from the last bottleneck value — valid because the
  bottleneck value never increases across peels (any perfect matching
  of the peeled graph was already a perfect matching before the peel,
  with edge weights at least as large).  Resume mode only evicts
  exhausted or under-threshold edges and re-augments, which is faster
  still, but the warm matching state steers the augmentation toward
  *different* (equally optimal) bottleneck matchings, so peel sequences
  — and occasionally step counts — can differ from the replay path.
- :class:`HungarianPeeler` snapshots the graph into arrays it owns —
  exact per-edge weights, the dense score matrix and the per-cell
  best-parallel-edge table — and applies each peel to them itself, so
  a round is ``(matched edge ids, peel)`` with no ``Edge``/``Matching``
  built and no graph read.  The assignment solve sees a matrix
  identical to the one the stateless path would build, so its
  matchings are unchanged.

Contract for :class:`BottleneckPeeler`: between two ``next_matching()``
calls, only the edges of the previously returned matching may change
(the WRGP peel invariant).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from operator import add
from typing import Literal

import numpy as np

from repro import obs
from repro.graph.bipartite import BipartiteGraph, Number
from repro.matching.base import Matching
from repro.util.errors import MatchingError

PeelMode = Literal["replay", "resume"]

#: Unreachable BFS distance; larger than any real layer index.
_INF = float("inf")


class BottleneckPeeler:
    """Cross-peel warm-started bottleneck perfect matchings.

    Finds, per call, a perfect matching whose minimum edge weight is
    maximum (paper Figure 6), like
    :func:`~repro.matching.bottleneck.bottleneck_matching` with
    ``require='perfect'`` — but keeps its data structures warm across
    the peeling loop.  See the module docstring for the two modes.
    """

    def __init__(self, graph: BipartiteGraph, mode: PeelMode = "replay") -> None:
        if mode not in ("replay", "resume"):
            raise MatchingError(f"unknown peel mode {mode!r}")
        if graph.num_left != graph.num_right:
            raise MatchingError(
                f"perfect matching impossible: {graph.num_left} left vs "
                f"{graph.num_right} right nodes"
            )
        self.graph = graph
        self.mode = mode
        lefts = graph.left_nodes()
        rights = graph.right_nodes()
        self._lefts = lefts
        self._n = len(lefts)
        lidx = {node: i for i, node in enumerate(lefts)}
        ridx = {node: j for j, node in enumerate(rights)}
        # Dense per-edge endpoint indices; edge ids are near-contiguous.
        size = max(graph.edge_ids(), default=-1) + 1
        self._el = el = [0] * size
        self._er = er = [0] * size
        for eid in graph.edge_ids():
            left, right = graph.edge_endpoints(eid)
            el[eid] = lidx[left]
            er[eid] = ridx[right]
        # Matching state: matched edge id per left/right index, -1 exposed.
        self._match_l = [-1] * self._n
        self._match_r = [-1] * self._n
        self._matched = 0
        # Scratch arrays reused by every Hopcroft–Karp run.
        self._dist = [_INF] * self._n
        self._chosen = [-1] * self._n
        self._adj: list[list[int]] = [[] for _ in range(self._n)]
        #: (edge id, weight at yield) of the last returned matching.
        self._last: list[tuple[int, Number]] = []
        if mode == "replay":
            # Descending weight-class index: ascending (-weight, id).
            self._order = sorted(
                (-graph.edge_weight(eid), eid) for eid in graph.edge_ids()
            )
        else:
            self._pending = [
                (-graph.edge_weight(eid), eid) for eid in graph.edge_ids()
            ]
            heapq.heapify(self._pending)
            self._threshold: Number | None = None

    # -- shared Hopcroft–Karp core over int arrays ---------------------

    def _augment_to_max(self) -> None:
        """Augment the current matching to maximum over the admitted edges.

        Faithful int-array translation of
        :func:`repro.matching.hopcroft_karp.hopcroft_karp_core`: same
        left iteration order (ascending node id), same adjacency order,
        same layered-BFS + pointer-DFS phase structure — so the matching
        it produces is identical, element for element.
        """
        n = self._n
        adj = self._adj
        el = self._el
        er = self._er
        match_l = self._match_l
        match_r = self._match_r
        dist = self._dist
        chosen = self._chosen
        bfs_phases = 0
        augmented = 0
        while True:
            # Layered BFS from exposed left nodes.
            queue: list[int] = []
            for u in range(n):
                if match_l[u] < 0:
                    dist[u] = 0
                    queue.append(u)
                else:
                    dist[u] = _INF
            reachable = False
            head = 0
            while head < len(queue):
                u = queue[head]
                head += 1
                du = dist[u]
                for eid in adj[u]:
                    meid = match_r[er[eid]]
                    if meid < 0:
                        reachable = True
                    else:
                        ml = el[meid]
                        if dist[ml] == _INF:
                            dist[ml] = du + 1
                            queue.append(ml)
            if not reachable:
                break
            bfs_phases += 1
            ptr = [0] * n
            for root in range(n):
                if match_l[root] >= 0:
                    continue
                # Iterative DFS for one augmenting path from ``root``.
                stack = [root]
                while stack:
                    u = stack[-1]
                    advanced = False
                    edges_u = adj[u]
                    while ptr[u] < len(edges_u):
                        eid = edges_u[ptr[u]]
                        ptr[u] += 1
                        r = er[eid]
                        meid = match_r[r]
                        if meid < 0:
                            # Exposed right: flip the alternating path.
                            chosen[u] = eid
                            for node in stack:
                                e = chosen[node]
                                match_l[node] = e
                                match_r[er[e]] = e
                            augmented += 1
                            self._matched += 1
                            stack = []
                            advanced = True
                            break
                        nxt = el[meid]
                        if dist[nxt] == dist[u] + 1:
                            chosen[u] = eid
                            stack.append(nxt)
                            advanced = True
                            break
                    if not advanced:
                        dist[u] = _INF  # dead end for this phase
                        stack.pop()
        metrics = obs.metrics()
        metrics.counter("matching.hk.bfs_phases").inc(bfs_phases)
        metrics.counter("matching.hk.augmenting_paths").inc(augmented)

    # -- replay mode ---------------------------------------------------

    def _refresh_order(self) -> None:
        """Repair the sorted class index after the last peel.

        Only the previously matched edges changed weight, so each one is
        located by its recorded key (binary search), removed, and
        re-inserted at its new position — or dropped when exhausted.
        """
        order = self._order
        graph = self.graph
        for eid, old_w in self._last:
            old_key = (-old_w, eid)
            pos = bisect_left(order, old_key)
            if pos < len(order) and order[pos] == old_key:
                del order[pos]
            if graph.has_edge_id(eid):
                insort(order, (-graph.edge_weight(eid), eid))

    def _next_matching_replay(self) -> Matching:
        graph = self.graph
        self._refresh_order()
        # The matching regrows from empty each peel — this is what keeps
        # the engine bitwise-faithful to the stateless sweep.
        match_l = self._match_l
        match_r = self._match_r
        for i in range(self._n):
            match_l[i] = -1
            match_r[i] = -1
        self._matched = 0
        adj = self._adj
        el = self._el
        for lst in adj:
            lst.clear()
        order = self._order
        m = len(order)
        target = self._n
        i = 0
        probes = 0
        while self._matched < target:
            if i >= m:
                raise MatchingError("graph has no perfect matching")
            # Admit the next weight class (ids ascending within it).
            neg_w = order[i][0]
            while i < m and order[i][0] == neg_w:
                eid = order[i][1]
                adj[el[eid]].append(eid)
                i += 1
            probes += 1
            self._augment_to_max()
        return self._finish(probes)

    # -- resume mode ---------------------------------------------------

    def _evict_stale(self) -> None:
        """Drop exhausted / under-threshold edges from the admitted set."""
        graph = self.graph
        adj = self._adj
        el = self._el
        er = self._er
        match_l = self._match_l
        match_r = self._match_r
        threshold = self._threshold
        for eid, _old_w in self._last:
            alive = graph.has_edge_id(eid)
            if alive and graph.edge_weight(eid) >= threshold:
                continue
            li = el[eid]
            adj[li].remove(eid)
            if match_l[li] == eid:
                match_l[li] = -1
                match_r[er[eid]] = -1
                self._matched -= 1
            if alive:
                # Re-enters the pending index at its reduced weight.
                heapq.heappush(self._pending, (-graph.edge_weight(eid), eid))

    def _next_matching_resume(self) -> Matching:
        if self._last:
            self._evict_stale()
        adj = self._adj
        el = self._el
        pending = self._pending
        target = self._n
        probes = 0
        while True:
            probes += 1
            self._augment_to_max()
            if self._matched == target:
                return self._finish(probes)
            if not pending:
                raise MatchingError("graph has no perfect matching")
            # Lower the threshold by one weight class.
            neg_w = pending[0][0]
            batch = []
            while pending and pending[0][0] == neg_w:
                batch.append(heapq.heappop(pending)[1])
            batch.sort()
            for eid in batch:
                adj[el[eid]].append(eid)
            self._threshold = -neg_w

    # -- common --------------------------------------------------------

    def _finish(self, probes: int) -> Matching:
        graph = self.graph
        edges = [graph.edge(eid) for eid in self._match_l]
        self._last = [(e.id, e.weight) for e in edges]
        metrics = obs.metrics()
        metrics.counter("matching.bottleneck.calls").inc()
        metrics.counter("matching.bottleneck.threshold_probes").inc(probes)
        return Matching(edges)

    def next_matching(self) -> Matching:
        """Bottleneck-optimal perfect matching of the graph's current state.

        Raises :class:`MatchingError` when no perfect matching exists.
        """
        if self.mode == "replay":
            return self._next_matching_replay()
        return self._next_matching_resume()


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
