"""Bottleneck matching: maximise the minimum edge weight.

This is the paper's Figure 6 algorithm (after Bongiovanni, Coppersmith &
Wong): among all matchings of maximum cardinality (or all perfect
matchings), find one whose smallest edge weight is as large as possible.
OGGP peels these instead of arbitrary perfect matchings, which makes each
communication step as long as possible and therefore minimises the number
of steps.

The implementation processes edges in descending weight order, admitting
one *weight class* at a time, and maintains a maximum matching of the
admitted subgraph incrementally (warm-started Hopcroft–Karp).  The first
threshold at which the admitted subgraph supports a matching of the
target cardinality yields the answer — identical to the paper's
edge-by-edge loop, but tie groups are admitted together since admitting
equal-weight edges one by one can never terminate mid-group with a
different bottleneck value.

This stateless routine rebuilds the sorted index and the matching from
scratch on every call.  The peeling loops use
:class:`repro.matching.peeler.BottleneckPeeler` instead, which keeps
that state warm across peels while producing identical matchings; this
function is retained as the general-purpose entry point (it also
handles ``require='maximum'``) and as the per-peel matching of the
``'reference'`` engine, the equivalence oracle of the engine tests.
"""

from __future__ import annotations

from typing import Literal

from repro import obs
from repro.graph.bipartite import BipartiteGraph
from repro.matching.base import Matching
from repro.matching.hopcroft_karp import hopcroft_karp
from repro.util.errors import MatchingError

Requirement = Literal["maximum", "perfect"]


def bottleneck_matching(
    graph: BipartiteGraph,
    require: Requirement = "maximum",
) -> Matching:
    """Matching of target cardinality whose minimum weight is maximum.

    ``require='maximum'`` targets the maximum-cardinality matching of the
    whole graph (the paper's "maximal matching" in Fig 6);
    ``require='perfect'`` demands every node be covered and raises
    :class:`MatchingError` when no perfect matching exists.

    Returns an empty matching for an empty graph (cardinality 0 is
    trivially both maximum and perfect).
    """
    metrics = obs.metrics()
    metrics.counter("matching.bottleneck.calls").inc()
    if graph.is_empty():
        if require == "perfect" and (graph.num_left or graph.num_right):
            raise MatchingError("graph with nodes but no edges has no perfect matching")
        return Matching()

    if require == "perfect":
        if graph.num_left != graph.num_right:
            raise MatchingError(
                f"perfect matching impossible: {graph.num_left} left vs "
                f"{graph.num_right} right nodes"
            )
        target = graph.num_left
    else:
        target = len(hopcroft_karp(graph))

    # Descending weight classes.  The adjacency grows incrementally —
    # one shared structure across all thresholds — and the matching is
    # augmented in place (hopcroft_karp_core), so the total work over
    # the whole threshold sweep is a single HK run plus the insertions.
    from repro.matching.hopcroft_karp import hopcroft_karp_core

    # Sort light (-weight, id) tuples and materialise each Edge exactly
    # once, on admission, instead of building every Edge view up front.
    order = sorted((-w, eid) for eid, _l, _r, w, _k in graph.iter_edge_data())
    adj: dict[int, list] = {u: [] for u in graph.left_nodes()}
    pair_left: dict = {}
    pair_right: dict = {}
    probes = 0
    i = 0
    total = len(order)
    while i < total:
        probes += 1
        # ``order`` is sorted by (-weight, id), so each tie group arrives
        # with ids ascending — no re-sort needed.
        neg_w = order[i][0]
        while i < total and order[i][0] == neg_w:
            edge = graph.edge(order[i][1])
            adj[edge.left].append(edge)
            i += 1
        hopcroft_karp_core(adj, pair_left, pair_right)
        if len(pair_left) == target:
            metrics.counter("matching.bottleneck.threshold_probes").inc(probes)
            return Matching(pair_left.values())

    if require == "perfect":
        raise MatchingError("graph has no perfect matching")
    # Unreachable for 'maximum': with all edges admitted the HK run is the
    # plain maximum matching, whose size is the target by construction.
    raise MatchingError("bottleneck search failed to reach target cardinality")
