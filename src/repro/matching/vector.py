"""Exact and approximate matching engines over flat int arrays.

Three engines live here, all built on one shared core
(:class:`_ArrayMatcher` — an int-array Hopcroft–Karp whose layered BFS
switches to numpy frontier-at-a-time form once the admitted edge set is
large enough to amortise the array overhead):

- :func:`hopcroft_karp_vec` — drop-in replacement for
  :func:`repro.matching.hopcroft_karp.hopcroft_karp` returning the
  *identical* matching (same adjacency order, same BFS layering, same
  pointer-DFS augmentation order) with no per-edge ``Edge`` objects in
  the hot loop.
- :class:`BottleneckPeeler` — the exact bottleneck peeler behind
  ``engine='fast'`` and its alias ``'vector'``: bit-identical matchings
  (and therefore schedules) to ``engine='reference'``, with several
  speedups layered on top: the numpy BFS, *exact probe skipping*
  (below), depth-1 flips for all-exposed weight classes, and a limit
  early-exit that skips the terminating failed BFS once a probe's batch
  is provably exhausted (both argued inline in :func:`_vector_sweep` /
  :meth:`_ArrayMatcher.augment_to_max`).
- :class:`ApproxPeelCore` / :class:`ApproxBottleneckPeeler` — the
  ``engine='approx'`` peeler: Etzold's dense-graph sparsification
  (arXiv cs/0306123 — keep only each node's heaviest few incident
  edges as matching candidates, growing the candidate set on demand)
  combined with a matching that persists across peels.  Schedules
  remain *valid* 2-approximations (every peeled matching is perfect, so
  any run is a legal GGP run), but are no longer bit-identical to the
  exact engines; the measured quality delta is reported by the bench.

Why the sweep can skip threshold probes *exactly*
-------------------------------------------------
The threshold sweep admits descending weight classes and re-runs
Hopcroft–Karp after each admission.  Most probes are unproductive: the
new class does not create any augmenting path.  A class can only be
productive if, starting from a new edge ``(u, r)`` with ``u`` already
reachable from an exposed left node by an alternating path, the
alternating expansion reaches an exposed right node.  The peeler keeps
that reachable-left set incrementally: a productive Hopcroft–Karp run
ends with a failed BFS whose finite-distance lefts are exactly the
reachable set (for free), and a skipped probe extends it through the
newly admitted edges in ``O(new edges + newly reached degree)``.  When
the expansion reaches no exposed right, running the full Hopcroft–Karp
would provably leave the matching untouched — so skipping it leaves
the engine in the *identical* state and bit-identity is preserved.

BFS layering note: the sequential FIFO BFS and the numpy
frontier-at-a-time BFS assign every left node the same layer distance
(both explore in non-decreasing distance order over the same edge
set), and the augmenting DFS — which is what actually picks edges — is
kept in faithful pointer form, so the two BFS implementations are
interchangeable without affecting which matching is produced.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from typing import Collection

import numpy as np

from repro import obs
from repro.graph.bipartite import BipartiteGraph, Number
from repro.matching.base import Matching
from repro.util.errors import MatchingError

__all__ = [
    "hopcroft_karp_vec",
    "BottleneckPeeler",
    "VectorBottleneckPeeler",
    "ApproxPeelCore",
    "ApproxBottleneckPeeler",
    "APPROX_DEGREE",
]

_INF = float("inf")

#: Admitted-edge count below which the pure-Python BFS wins over numpy
#: (array-op overhead dominates on small frontiers).  The DFS is always
#: pure Python — it is inherently sequential and must stay faithful.
_SMALL_ADMITTED = 1500

#: Missing-match count at or below which the approx engine repairs the
#: matching with per-hole Kuhn paths instead of full Hopcroft–Karp
#: phases.  Typical peel rounds evict ~ a dozen edges, and one
#: shortest-path BFS per hole repairs those without the layered
#: phases' per-round overhead; full phases only pay off for bulk
#: (re)builds.
_KUHN_HOLES = 64

#: Default Etzold sparsification degree: each node keeps its this-many
#: heaviest live incident edges as matching candidates.  The candidate
#: pool is ~2·degree·n edges instead of m, and is topped up whenever a
#: candidate is exhausted (or the sweep runs dry), so perfect matchings
#: always exist eventually.
APPROX_DEGREE = 3


class _ArrayMatcher:
    """Hopcroft–Karp state over dense int arrays, shared by the engines.

    Left/right nodes are dense indices; edges are referenced by graph
    edge id through ``el``/``er`` (edge id -> dense endpoint index).
    The admitted edge set grows via :meth:`admit` (and, for the approx
    engine, shrinks via :meth:`evict`); :meth:`augment_to_max`
    runs faithful Hopcroft–Karp phases over it.

    The authoritative state is plain Python lists (fast scalar access
    for the sequential parts); the numpy views used by the vector BFS
    are synced lazily — admitted-edge arrays up to a watermark, match
    arrays rebuilt per BFS — so small instances never pay array
    overhead.
    """

    __slots__ = (
        "nl",
        "nr",
        "el",
        "er",
        "adj",
        "adjr",
        "match_l",
        "match_r",
        "rml",
        "pel",
        "per",
        "peid",
        "pel_np",
        "per_np",
        "alive_np",
        "synced",
        "pos",
        "dead",
        "matched",
        "dist_np",
        "chosen",
        "reach_dist",
        "reach_stale",
        "force_py_bfs",
        "vis_r",
        "vis_stamp",
        "pre",
    )

    def __init__(
        self,
        n_left: int,
        n_right: int,
        el: list[int],
        er: list[int],
        track_pos: bool = False,
    ) -> None:
        self.nl = n_left
        self.nr = n_right
        self.el = el
        self.er = er
        self.adj: list[list[int]] = [[] for _ in range(n_left)]
        # Right-endpoint mirror of ``adj`` (same positions): the BFS/DFS
        # hot loops read rights without the eid -> er indirection.
        self.adjr: list[list[int]] = [[] for _ in range(n_left)]
        self.match_l = [-1] * n_left
        self.match_r = [-1] * n_right
        # rml[j] = dense left index matched to right j (-1 = exposed):
        # collapses the match_r[j] -> el[meid] double lookup to one.
        self.rml = [-1] * n_right
        # Admitted edges in admission order (parallel lists); numpy
        # mirrors are refreshed from ``synced`` onward on demand.
        self.pel: list[int] = []
        self.per: list[int] = []
        self.peid: list[int] | None = [] if track_pos else None
        self.pel_np = np.empty(0, dtype=np.int64)
        self.per_np = np.empty(0, dtype=np.int64)
        self.alive_np = np.empty(0, dtype=bool)
        self.synced = 0
        self.pos: dict[int, int] | None = {} if track_pos else None
        self.dead = 0
        self.matched = 0
        self.dist_np = np.empty(n_left, dtype=float)
        self.chosen = [-1] * n_left
        # Reachability scratch: finite entries mark left nodes reachable
        # from an exposed left by an alternating path (see may_augment).
        self.reach_dist: list[float] = [0.0] * n_left
        # Set when augment_to_max proved maximality without the final
        # failed BFS (limit early-exit); may_augment then answers True
        # conservatively until a failed BFS refreshes reach_dist.
        self.reach_stale = False
        # Sparse candidate graphs (Etzold) have long alternating paths;
        # the frontier-at-a-time numpy BFS re-scans every admitted edge
        # per level, so those engines pin the BFS to the Python form.
        self.force_py_bfs = False
        # Kuhn-repair scratch, stamp-versioned so per-hole searches
        # never reallocate: vis_r marks rights seen in the current BFS,
        # pre[v] records the edge through which left v was discovered.
        self.vis_r = [0] * n_right
        self.vis_stamp = 0
        self.pre = [0] * n_left

    # -- admitted set --------------------------------------------------

    def admit(self, eid: int) -> None:
        """Append one edge to the admitted set (adjacency order = call order)."""
        u = self.el[eid]
        r = self.er[eid]
        self.adj[u].append(eid)
        self.adjr[u].append(r)
        self.pel.append(u)
        self.per.append(r)
        if self.pos is not None:
            self.pos[eid] = len(self.peid)
            self.peid.append(eid)

    def evict(self, eid: int) -> None:
        """Remove an admitted edge (clearing its match entry if matched)."""
        u = self.el[eid]
        lst = self.adj[u]
        at = lst.index(eid)
        del lst[at]
        del self.adjr[u][at]
        if self.match_l[u] == eid:
            r = self.er[eid]
            self.match_l[u] = -1
            self.match_r[r] = -1
            self.rml[r] = -1
            self.matched -= 1
        slot = self.pos.pop(eid)
        self.pel[slot] = -1  # dead marker for the python arrays
        if slot < self.synced:
            self.alive_np[slot] = False
        self.dead += 1
        if self.dead * 2 > len(self.pel):
            self._compress()

    def _compress(self) -> None:
        """Drop dead slots from the admitted arrays (amortised O(1)/evict)."""
        pel = self.pel
        keep = [i for i, u in enumerate(pel) if u >= 0]
        self.pel = [pel[i] for i in keep]
        self.per = [self.per[i] for i in keep]
        self.peid = [self.peid[i] for i in keep]
        self.pos = {eid: i for i, eid in enumerate(self.peid)}
        self.synced = 0
        self.dead = 0

    def _sync_arrays(self) -> None:
        """Bring the numpy admitted-edge mirrors up to date."""
        total = len(self.pel)
        if len(self.pel_np) < total:
            cap = max(2 * len(self.pel_np), total, 16)
            for name in ("pel_np", "per_np", "alive_np"):
                old = getattr(self, name)
                grown = np.empty(cap, dtype=old.dtype)
                grown[: self.synced] = old[: self.synced]
                setattr(self, name, grown)
        s = self.synced
        if s < total:
            self.pel_np[s:total] = self.pel[s:total]
            self.per_np[s:total] = self.per[s:total]
            self.alive_np[s:total] = True
            if self.dead:
                # Dead-marked slots may sit above the old watermark.
                self.alive_np[s:total] = np.asarray(self.pel[s:total]) >= 0
            self.synced = total

    def reset_matching(self) -> None:
        """Empty the matching and the admitted set (the exact peel reset)."""
        ml = self.match_l
        mr = self.match_r
        rml = self.rml
        for i in range(self.nl):
            ml[i] = -1
        for j in range(self.nr):
            mr[j] = -1
            rml[j] = -1
        self.matched = 0
        self.pel.clear()
        self.per.clear()
        if self.peid is not None:
            self.peid.clear()
            self.pos.clear()
        self.synced = 0
        self.dead = 0
        for lst in self.adj:
            lst.clear()
        for lst in self.adjr:
            lst.clear()
        # Every left is exposed, hence trivially reachable.
        self.reach_dist = [0.0] * self.nl
        self.reach_stale = False

    def set_match(self, left: int, right: int, eid: int) -> None:
        """Install one matched pair (warm start)."""
        self.match_l[left] = eid
        self.match_r[right] = eid
        self.rml[right] = left
        self.matched += 1

    # -- probe skipping ------------------------------------------------

    def may_augment(self, new_eids: list[int]) -> bool:
        """Exact productivity test for newly admitted edges.

        Extends the alternating-reachability set (finite entries of
        ``reach_dist``) through the new edges; returns True iff an
        exposed right node becomes reachable (i.e. a full
        Hopcroft–Karp run could augment).  When this returns False,
        skipping the run leaves the matcher in the identical state a
        real (failed) run would.  Only valid while the matching changes
        exclusively through :meth:`augment_to_max` (exact sweeps) —
        eviction invalidates the reachability set.

        While ``reach_stale`` is set (a limit early-exit skipped the
        reach-refreshing failed BFS), the answer is a conservative
        True: the full run is then performed, which either augments
        (faithful work that had to happen anyway) or fails and
        refreshes ``reach_dist`` — both bit-identity-preserving.
        """
        if self.reach_stale:
            return True
        reach = self.reach_dist
        el = self.el
        er = self.er
        adjr = self.adjr
        rml = self.rml
        stack: list[int] = []
        for eid in new_eids:
            if reach[el[eid]] != _INF:
                v = rml[er[eid]]
                if v < 0:
                    return True
                if reach[v] == _INF:
                    reach[v] = 0.0  # value unused; finite = reachable
                    stack.append(v)
        while stack:
            u2 = stack.pop()
            for r in adjr[u2]:
                v = rml[r]
                if v < 0:
                    return True
                if reach[v] == _INF:
                    reach[v] = 0.0
                    stack.append(v)
        return False

    # -- Hopcroft–Karp -------------------------------------------------

    def augment_to_max(self, limit: int | None = None) -> tuple[int, int]:
        """Augment to a maximum matching of the admitted subgraph.

        Faithful to :func:`repro.matching.hopcroft_karp.hopcroft_karp_core`
        (same layering, same pointer-DFS order), so results are
        bit-identical to the Python engines.  Returns
        ``(bfs_phases, augmenting_paths)`` and leaves ``reach_dist``
        holding the final (failed) BFS distances.

        ``limit`` is an upper bound on how many augmenting paths this
        call can possibly find (exact sweeps pass the just-admitted
        batch size: a maximum matching grows by at most one per new
        edge, and the sweep keeps the matching maximum between probes).
        Once ``limit`` paths have been augmented the matching is
        provably maximum, so the terminating failed BFS is skipped and
        ``reach_stale`` is set instead — the matching itself is
        untouched by that BFS, so bit-identity is unaffected.
        """
        nl = self.nl
        adj = self.adj
        adjr = self.adjr
        er = self.er
        match_l = self.match_l
        match_r = self.match_r
        rml = self.rml
        chosen = self.chosen
        use_np = (
            not self.force_py_bfs
            and (len(self.pel) - self.dead) > _SMALL_ADMITTED
        )
        if use_np:
            self._sync_arrays()
            total = len(self.pel)
            pel = self.pel_np[:total]
            per = self.per_np[:total]
            alive = self.alive_np[:total] if self.dead else None
            dist_np = self.dist_np
        phases = 0
        augmented = 0
        dist: list[float] = []
        while True:
            if limit is not None and augmented >= limit:
                # Provably maximum already: skip the failed BFS whose
                # only product would be a fresh reach_dist.
                self.matched += augmented
                self.reach_stale = True
                return phases, augmented
            reachable = False
            if use_np:
                ml_np = np.fromiter(match_l, np.int64, nl)
                rml_np = np.fromiter(rml, np.int64, self.nr)
                exposed = ml_np < 0
                np.copyto(dist_np, _INF)
                dist_np[exposed] = 0.0
                frontier = exposed
                level = 0.0
                while True:
                    scan = frontier[pel]
                    if alive is not None:
                        scan &= alive
                    rr = per[scan]
                    if rr.size == 0:
                        break
                    partners = rml_np[rr]
                    hit = partners < 0
                    if hit.any():
                        reachable = True
                    nxt = partners[~hit]
                    cand = np.zeros(nl, dtype=bool)
                    cand[nxt] = True
                    cand &= np.isinf(dist_np)
                    if not cand.any():
                        break
                    level += 1.0
                    dist_np[cand] = level
                    frontier = cand
                dist = dist_np.tolist()
            else:
                dist = [_INF] * nl
                queue: list[int] = []
                for u in range(nl):
                    if match_l[u] < 0:
                        dist[u] = 0
                        queue.append(u)
                # Iterating a list while appending to it is the FIFO
                # BFS: items are picked up in insertion order.
                for u in queue:
                    du1 = dist[u] + 1
                    for r in adjr[u]:
                        v = rml[r]
                        if v < 0:
                            reachable = True
                        elif dist[v] == _INF:
                            dist[v] = du1
                            queue.append(v)
            if not reachable:
                break
            phases += 1
            ptr = [0] * nl
            for root in range(nl):
                if match_l[root] >= 0:
                    continue
                stack = [root]
                while stack:
                    u = stack[-1]
                    advanced = False
                    edges_u = adj[u]
                    rights_u = adjr[u]
                    n_u = len(edges_u)
                    p = ptr[u]
                    du1 = dist[u] + 1
                    while p < n_u:
                        r = rights_u[p]
                        p += 1
                        v = rml[r]
                        if v < 0:
                            # Exposed right: flip the alternating path.
                            chosen[u] = edges_u[p - 1]
                            ptr[u] = p
                            for node in stack:
                                e = chosen[node]
                                match_l[node] = e
                                re = er[e]
                                match_r[re] = e
                                rml[re] = node
                            augmented += 1
                            stack = []
                            advanced = True
                            break
                        if dist[v] == du1:
                            chosen[u] = edges_u[p - 1]
                            ptr[u] = p
                            stack.append(v)
                            advanced = True
                            break
                    if not advanced:
                        ptr[u] = p
                        dist[u] = _INF  # dead end for this phase
                        stack.pop()
        self.matched += augmented
        # The final BFS failed, so its finite distances are exactly the
        # alternating-reachability set — kept for probe skipping.
        self.reach_dist = dist if dist else [0.0] * nl
        self.reach_stale = False
        return phases, augmented

    # -- Kuhn-style repair (approximate engines only) ------------------

    def kuhn_round(self, roots: list[int] | None = None) -> tuple[int, list[int]]:
        """One Kuhn pass: alternating BFS once from every exposed left.

        Used by the approximate engines to repair a near-perfect
        matching after a few evictions — a single shortest path per
        hole, with none of Hopcroft–Karp's per-call layering.  By the
        standard matching argument, augmenting along one path never
        destroys paths for other roots, and a root with no path keeps
        having none until new edges are admitted — so each exposed root
        is tried exactly once and the failures are returned as *stuck*
        for the caller to resolve via admission.  ``roots`` restricts
        the scan to a caller-supplied superset of the exposed lefts
        (e.g. this round's evicted endpoints) instead of all ``nl``;
        the *stuck* list is complete only if that superset really
        covers every exposed left.  Path choice is shortest-first, not
        layered-faithful: do not call from the exact engines.
        """
        match_l = self.match_l
        augmented = 0
        stuck: list[int] = []
        for root in range(self.nl) if roots is None else roots:
            if match_l[root] >= 0:
                continue
            if self._kuhn_try(root):
                augmented += 1
            else:
                stuck.append(root)
        self.matched += augmented
        return augmented, stuck

    def _kuhn_try(self, root: int) -> bool:
        """Alternating BFS from one exposed left; flips the path on success.

        Breadth-first, stopping at the first exposed right, so the
        flipped path is a *shortest* augmenting path from ``root``.  In
        the near-perfect repair regime the nearest exposed right sits a
        few alternating levels away, so the BFS touches a small
        neighbourhood where a depth-first search would wander across
        most of the admitted graph before backtracking.  No flip
        happens until success — match state is static during the
        search, and the path is recovered by walking ``pre`` parent
        edges back to the root.
        """
        adj = self.adj
        adjr = self.adjr
        el = self.el
        er = self.er
        match_l = self.match_l
        match_r = self.match_r
        rml = self.rml
        pre = self.pre
        vis = self.vis_r
        stamp = self.vis_stamp + 1
        self.vis_stamp = stamp
        queue = [root]
        for u in queue:
            edges_u = adj[u]
            rights_u = adjr[u]
            for at, r in enumerate(rights_u):
                if vis[r] == stamp:
                    continue
                vis[r] = stamp
                v = rml[r]
                if v >= 0:
                    pre[v] = edges_u[at]
                    queue.append(v)
                    continue
                # Exposed right: flip the parent chain back to the root.
                e = edges_u[at]
                cur = u
                while True:
                    re = er[e]
                    match_l[cur] = e
                    match_r[re] = e
                    rml[re] = cur
                    if cur == root:
                        return True
                    e = pre[cur]
                    cur = el[e]
        return False

    def kuhn_reach_sweep(self, roots: list[int]) -> None:
        """Rebuild ``reach_dist`` from stuck roots for probe gating.

        Valid only right after a :meth:`kuhn_round` left every exposed
        root stuck: then no reachable right is free, so the traversal
        follows matched partners only and marks exactly the
        alternating-reachable lefts — the set :meth:`may_augment`
        extends as new weight classes are admitted.
        """
        adjr = self.adjr
        rml = self.rml
        reach = [_INF] * self.nl
        stack = list(roots)
        for u in roots:
            reach[u] = 0.0
        while stack:
            u = stack.pop()
            for r in adjr[u]:
                u2 = rml[r]
                if u2 < 0:  # pragma: no cover - roots stuck => none free
                    continue
                if reach[u2] == _INF:
                    reach[u2] = 0.0
                    stack.append(u2)
        self.reach_dist = reach
        self.reach_stale = False


# ---------------------------------------------------------------------
# Standalone maximum-cardinality matching
# ---------------------------------------------------------------------


def hopcroft_karp_vec(
    graph: BipartiteGraph,
    allowed: Collection[int] | None = None,
    initial: Matching | None = None,
) -> Matching:
    """Maximum-cardinality matching, bit-identical to :func:`hopcroft_karp`.

    Same signature and semantics as
    :func:`repro.matching.hopcroft_karp.hopcroft_karp` — edge filtering
    and warm start included — but the search runs over flat int arrays
    (numpy BFS on large graphs) instead of per-edge ``Edge`` objects.
    """
    obs.metrics().counter("matching.hk.calls").inc()
    allowed_set = None if allowed is None else set(allowed)
    lefts = graph.left_nodes()
    rights = graph.right_nodes()
    lidx = {node: i for i, node in enumerate(lefts)}
    ridx = {node: j for j, node in enumerate(rights)}
    size = max(graph.edge_ids(), default=-1) + 1
    el = [0] * size
    er = [0] * size
    eids = []
    for eid in graph.edge_ids():  # ascending id = hopcroft_karp adjacency order
        if allowed_set is not None and eid not in allowed_set:
            continue
        left, right = graph.edge_endpoints(eid)
        el[eid] = lidx[left]
        er[eid] = ridx[right]
        eids.append(eid)
    matcher = _ArrayMatcher(len(lefts), len(rights), el, er)
    for eid in eids:
        matcher.admit(eid)
    if initial is not None:
        for edge in initial.edges():
            if allowed_set is not None and edge.id not in allowed_set:
                continue
            if not graph.has_edge_id(edge.id):
                continue
            current = graph.edge(edge.id)
            if (current.left, current.right) != (edge.left, edge.right):
                continue
            i = lidx[current.left]
            j = ridx[current.right]
            if matcher.match_l[i] >= 0 or matcher.match_r[j] >= 0:
                continue
            matcher.set_match(i, j, current.id)
    phases, augmented = matcher.augment_to_max()
    metrics = obs.metrics()
    metrics.counter("matching.hk.bfs_phases").inc(phases)
    metrics.counter("matching.hk.augmenting_paths").inc(augmented)
    match_l = matcher.match_l
    return Matching(
        graph.edge(match_l[i]) for i in range(len(lefts)) if match_l[i] >= 0
    )


# ---------------------------------------------------------------------
# Exact bottleneck threshold sweep (engines 'fast' and 'vector')
# ---------------------------------------------------------------------


def _vector_sweep(
    matcher: _ArrayMatcher,
    order: list[tuple[Number, int]],
    target: int,
) -> tuple[int, int, int, int]:
    """Descending-threshold sweep over a ``(-weight, id)``-sorted order.

    Admits one weight class at a time and augments — skipping the
    augmentation when :meth:`_ArrayMatcher.may_augment` proves it a
    no-op.  Returns ``(probes, skipped, bfs_phases, augmenting_paths)``;
    raises :class:`MatchingError` when the order is exhausted before
    ``target`` is reached.
    """
    i = 0
    total = len(order)
    probes = skipped = phases = augmented = 0
    el = matcher.el
    er = matcher.er
    adj = matcher.adj
    adjr = matcher.adjr
    pel = matcher.pel
    per = matcher.per
    match_l = matcher.match_l
    match_r = matcher.match_r
    rml = matcher.rml
    while matcher.matched < target:
        if i >= total:
            raise MatchingError("graph has no perfect matching")
        neg_w = order[i][0]
        batch = []
        all_exposed = True
        while i < total and order[i][0] == neg_w:
            eid = order[i][1]
            u = el[eid]
            r = er[eid]
            adj[u].append(eid)
            adjr[u].append(r)
            pel.append(u)
            per.append(r)
            batch.append(eid)
            if match_l[u] >= 0 or rml[r] >= 0:
                all_exposed = False
            i += 1
        probes += 1
        b = len(batch)
        if all_exposed:
            # Depth-1 fast path.  The matching is maximum over the
            # previously admitted edges, so every augmenting path must
            # contain a new edge; a new edge with both endpoints
            # exposed can only be the first *and* last edge of an
            # alternating path, i.e. every augmenting path is a single
            # new edge.  Hopcroft–Karp's first phase therefore reduces
            # to: each exposed left (roots in ascending index order)
            # flips its first new edge to a still-exposed right — its
            # older edges all lead to matched rights, and recursing
            # through them cannot flip anything.  This replays the
            # dominant probe shape (fresh weight class between exposed
            # nodes) in O(batch) instead of a full BFS + DFS.
            if b == 1:
                e0 = batch[0]
                u = el[e0]
                r = er[e0]
                match_l[u] = e0
                match_r[r] = e0
                rml[r] = u
                flips = 1
            else:
                by_left: dict[int, list[int]] = {}
                for eid in batch:  # ascending id = adjacency order
                    by_left.setdefault(el[eid], []).append(eid)
                flips = 0
                for u in sorted(by_left):
                    for eid in by_left[u]:
                        r = er[eid]
                        if rml[r] < 0:
                            match_l[u] = eid
                            match_r[r] = eid
                            rml[r] = u
                            flips += 1
                            break
            matcher.matched += flips
            phases += 1
            augmented += flips
            if flips == b:
                # At most one new path per new edge: provably maximum,
                # exactly like augment_to_max's limit early-exit.
                matcher.reach_stale = True
            else:
                # Longer paths through the just-flipped pairs may now
                # exist; continue with the faithful phase-2 BFS.
                p, a = matcher.augment_to_max(limit=b - flips)
                phases += p
                augmented += a
        elif matcher.may_augment(batch):
            # The sweep keeps the matching maximum between probes, so
            # this batch can contribute at most len(batch) new paths —
            # hitting that bound lets the run skip its failed BFS.
            p, a = matcher.augment_to_max(limit=b)
            phases += p
            augmented += a
        else:
            skipped += 1
    return probes, skipped, phases, augmented


class BottleneckPeeler:
    """Warm-started bottleneck perfect matchings (``fast``, ``vector``).

    Finds, per call, a perfect matching whose minimum edge weight is
    maximum (paper Figure 6) — the same matching as
    :func:`~repro.matching.bottleneck.bottleneck_matching` with
    ``require='perfect'`` on the graph's current state, edge for edge.
    What persists across peels is the descending weight-class index (a
    sorted ``(-weight, id)`` list; only the peeled edges move, each by
    bisect), the dense node indexing and the :class:`_ArrayMatcher`
    scratch state.  Each call regrows the matching from empty with
    :func:`_vector_sweep`, which is what keeps it faithful to the
    stateless sweep while exact probe skipping drops the unproductive
    Hopcroft–Karp runs.

    Contract: between two :meth:`next_matching` calls, only the edges of
    the previously returned matching may change (the WRGP peel
    invariant).
    """

    def __init__(self, graph: BipartiteGraph) -> None:
        if graph.num_left != graph.num_right:
            raise MatchingError(
                f"perfect matching impossible: {graph.num_left} left vs "
                f"{graph.num_right} right nodes"
            )
        self.graph = graph
        lidx = {node: i for i, node in enumerate(graph.left_nodes())}
        ridx = {node: j for j, node in enumerate(graph.right_nodes())}
        self._n = n = len(lidx)
        size = max(graph.edge_ids(), default=-1) + 1
        el = [0] * size
        er = [0] * size
        order = []
        for eid, left, right, weight, _kind in graph.iter_edge_data():
            el[eid] = lidx[left]
            er[eid] = ridx[right]
            order.append((-weight, eid))
        order.sort()
        #: Descending weight-class index: ascending ``(-weight, id)``.
        self._order = order
        self._matcher = _ArrayMatcher(n, n, el, er)
        #: (edge id, weight at yield) of the last returned matching.
        self._last: list[tuple[int, Number]] = []

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

    def next_matching(self) -> Matching:
        """Bottleneck-optimal perfect matching of the graph's current state.

        Raises :class:`MatchingError` when no perfect matching exists.
        """
        self._refresh_order()
        matcher = self._matcher
        matcher.reset_matching()
        probes, skipped, phases, augmented = _vector_sweep(
            matcher, self._order, self._n
        )
        graph = self.graph
        edges = [graph.edge(eid) for eid in matcher.match_l]
        self._last = [(e.id, e.weight) for e in edges]
        metrics = obs.metrics()
        metrics.counter("matching.hk.bfs_phases").inc(phases)
        metrics.counter("matching.hk.augmenting_paths").inc(augmented)
        metrics.counter("matching.bottleneck.calls").inc()
        metrics.counter("matching.bottleneck.threshold_probes").inc(probes)
        if skipped:
            metrics.counter("matching.bottleneck.skipped_probes").inc(skipped)
        return Matching(edges)


class VectorBottleneckPeeler(BottleneckPeeler):
    """Former class of ``engine='vector'``; :class:`BottleneckPeeler` now.

    No engine builds it.  It stays importable, with a ``next_matching``
    entry of its own, because the benchmark tracer
    (``perfbench/tracing.py``) patches that method on this class by
    name; sharing the function keeps every exact peel inside exactly
    one patched method.
    """

    next_matching = BottleneckPeeler.next_matching


# ---------------------------------------------------------------------
# Etzold-sparsified approximate peeling (engine='approx')
# ---------------------------------------------------------------------


class ApproxPeelCore:
    """Array-based sparsified persistent peeling of a weight-regular graph.

    Implements the ``engine='approx'`` strategy: Etzold's reduction of
    dense bipartite graphs to sparse candidate subgraphs (each node
    exposes only its ``degree`` heaviest live incident edges to the
    matcher), combined with persistence across peels (the matching and
    admitted set survive; only exhausted or under-threshold edges are
    evicted and re-augmented, resuming the threshold sweep from the
    last bottleneck value, which never increases across peels).

    The core owns its own weight array and never touches the source
    graph after construction, so the GGP fast path can peel 10–100×
    larger instances without materialising per-peel ``Edge``/
    ``Matching`` objects; :class:`ApproxBottleneckPeeler` adapts it to
    the generic ``peel_weight_regular`` protocol.

    Validity: every round ends with a *perfect* matching (when the
    candidate pool runs dry, one more edge per node is promoted and the
    sweep continues — with all edges promoted every edge is a
    candidate, and a weight-regular graph always has a perfect matching),
    so any schedule built from the rounds is a legal GGP run and keeps
    the paper's 2-approximation guarantee.  The bottleneck values are
    merely near-optimal, which is the measured quality delta.
    """

    def __init__(self, graph: BipartiteGraph, degree: int = APPROX_DEGREE) -> None:
        if degree < 1:
            raise MatchingError(f"approx degree must be >= 1, got {degree}")
        lefts = graph.left_nodes()
        rights = graph.right_nodes()
        if len(lefts) != len(rights):
            raise MatchingError(
                f"perfect matching impossible: {len(lefts)} left vs "
                f"{len(rights)} right nodes"
            )
        self._n = n = len(lefts)
        lidx = {node: i for i, node in enumerate(lefts)}
        ridx = {node: j for j, node in enumerate(rights)}
        size = max(graph.edge_ids(), default=-1) + 1
        self._el = el = [0] * size
        self._er = er = [0] * size
        self._w: list[Number] = [0] * size
        w = self._w
        llists: list[list[int]] = [[] for _ in range(n)]
        rlists: list[list[int]] = [[] for _ in range(n)]
        count = 0
        for eid, left, right, weight, _kind in graph.iter_edge_data():
            li = lidx[left]
            rj = ridx[right]
            el[eid] = li
            er[eid] = rj
            w[eid] = weight
            llists[li].append(eid)
            rlists[rj].append(eid)
            count += 1
        self.live = count
        #: Total un-peeled weight; exact for integer (normalised)
        #: weights, so drivers can loop ``while core.remaining > 0``.
        self.remaining: Number = sum(w[eid] for lst in llists for eid in lst)
        # Per-node candidate order: heaviest first, ids ascending on
        # ties — frozen at the initial weights (matched candidates drift
        # down as they are peeled; re-sorting would cost more than the
        # approximation it buys, and bounded error is the contract).
        for lst in llists:
            lst.sort(key=lambda e: (-w[e], e))
        for lst in rlists:
            lst.sort(key=lambda e: (-w[e], e))
        self._llists = llists
        self._rlists = rlists
        self._lp = [0] * n
        self._rp = [0] * n
        self._promoted = bytearray(size)
        self._pending: list[tuple[Number, int]] = []
        self._matcher = _ArrayMatcher(n, n, el, er, track_pos=True)
        self._matcher.force_py_bfs = True
        for i in range(n):
            for _ in range(degree):
                self._promote_next(llists, self._lp, i)
        for j in range(n):
            for _ in range(degree):
                self._promote_next(rlists, self._rp, j)
        self._threshold: Number | None = None
        self._last: list[int] = []
        self._last_peel: Number = 0

    def _promote_next(self, lists: list[list[int]], ptrs: list[int], i: int) -> bool:
        """Promote node ``i``'s next live unpromoted candidate, if any.

        Unpromoted edges are never admitted, hence never matched, hence
        never peeled — so their recorded weight is still current when
        they enter the pending heap.
        """
        lst = lists[i]
        p = ptrs[i]
        promoted = self._promoted
        w = self._w
        end = len(lst)
        while p < end:
            eid = lst[p]
            p += 1
            if not promoted[eid] and w[eid] > 0:
                promoted[eid] = 1
                heapq.heappush(self._pending, (-w[eid], eid))
                ptrs[i] = p
                return True
        ptrs[i] = p
        return False

    def _promote_round(self) -> int:
        """Widen the candidate pool by one edge per node (both sides)."""
        count = 0
        for lists, ptrs in ((self._llists, self._lp), (self._rlists, self._rp)):
            promote = self._promote_next
            for i in range(self._n):
                if promote(lists, ptrs, i):
                    count += 1
        return count

    def next_round(self) -> tuple[list[int], Number, int]:
        """One peel round: ``(matched edge ids, peel amount, probes)``.

        Applies the previous round's peel to the internal weights
        first, then evicts stale admitted edges (the matching persists) and
        sweeps the pending candidates until the matching is perfect.
        Raises :class:`MatchingError` if no perfect matching exists
        even with every edge promoted.
        """
        matcher = self._matcher
        w = self._w
        pending = self._pending
        # Exposed lefts for the Kuhn repair below.  The previous round
        # ended with a perfect matching, so after the eviction pass the
        # exposed lefts are exactly the evicted endpoints — no need to
        # rediscover them by scanning all n roots every repair round.
        roots: list[int] | None = None
        if self._last:
            peel = self._last_peel
            threshold = self._threshold
            el = self._el
            er = self._er
            llists, lp = self._llists, self._lp
            rlists, rp = self._rlists, self._rp
            roots = []
            for eid in self._last:
                nw = w[eid] - peel
                w[eid] = nw
                if nw > 0 and (threshold is None or nw >= threshold):
                    continue
                matcher.evict(eid)
                roots.append(el[eid])
                if nw > 0:
                    heapq.heappush(pending, (-nw, eid))
                else:
                    self.live -= 1
                    # Etzold degree repair: a dead candidate frees a
                    # slot at both endpoints.
                    self._promote_next(llists, lp, el[eid])
                    self._promote_next(rlists, rp, er[eid])
        target = self._n
        probes = 0
        while matcher.matched < target:
            # Repair: Hopcroft–Karp phases batch many augmenting paths
            # when many matches are missing (round one, mass evictions);
            # the common case — one or two evicted edges — is repaired
            # by single Kuhn paths with no per-round layered BFS.  Both
            # leave a valid reach_dist for may_augment when they fail.
            if target - matcher.matched > _KUHN_HOLES:
                probes += 1
                # The hole count bounds the augmenting paths, so the
                # limit lets a full repair skip the terminating failed
                # BFS; a partial repair still ends with one, refreshing
                # reach_dist before may_augment consults it.
                matcher.augment_to_max(limit=target - matcher.matched)
                roots = None
                if matcher.matched == target:
                    break
            else:
                _aug, stuck = matcher.kuhn_round(roots)
                if matcher.matched == target:
                    break
                matcher.kuhn_reach_sweep(stuck)
                roots = stuck
            # Not perfect yet: lower the threshold one weight class at a
            # time (ids ascending within a class) until the admitted
            # edges provably allow another augmenting path.
            while True:
                if not pending:
                    if not self._promote_round():
                        raise MatchingError("graph has no perfect matching")
                    continue
                neg_w = pending[0][0]
                batch = []
                while pending and pending[0][0] == neg_w:
                    batch.append(heapq.heappop(pending)[1])
                batch.sort()
                for eid in batch:
                    matcher.admit(eid)
                self._threshold = -neg_w
                probes += 1
                if matcher.may_augment(batch):
                    break
        matched = matcher.match_l.copy()
        peel = min(map(w.__getitem__, matched))
        self._last = matched
        self._last_peel = peel
        self.remaining -= peel * self._n
        return matched, peel, probes


class ApproxBottleneckPeeler:
    """``peel_weight_regular`` adapter around :class:`ApproxPeelCore`.

    Presents the same ``next_matching()`` protocol as the exact
    peelers; the generic peel loop applies the peel to the shared
    graph, and the core mirrors it internally on the next call.
    """

    def __init__(self, graph: BipartiteGraph, degree: int = APPROX_DEGREE) -> None:
        self.graph = graph
        self._core = ApproxPeelCore(graph, degree=degree)

    def next_matching(self) -> Matching:
        """Near-bottleneck-optimal perfect matching of the current state."""
        matched, _peel, probes = self._core.next_round()
        graph = self.graph
        metrics = obs.metrics()
        metrics.counter("matching.bottleneck.calls").inc()
        metrics.counter("matching.bottleneck.threshold_probes").inc(probes)
        return Matching(graph.edge(eid) for eid in matched)
