"""WRGP — Weight-Regular Graph Peeling (paper §4.1, Figures 3 and 4).

Given a weight-regular bipartite graph, repeatedly:

1. find a perfect matching ``M`` (one always exists: the graph stays
   weight-regular after each peel, and a weight-regular bipartite graph
   has a perfect matching [8]),
2. let ``w`` be the smallest edge weight in ``M``,
3. emit ``M`` with every edge trimmed to weight ``w`` as one
   communication step (this is the paper's ``M'``),
4. subtract ``w`` from every edge of ``M``, deleting edges that reach 0.

Each iteration removes at least one edge (the minimum-weight one), so
there are at most ``m`` iterations.  Every step uses the full bandwidth:
a perfect matching with equal-size chunks wastes nothing.

Implementation notes
--------------------
- ``matching='bottleneck'`` swaps in the max-min-weight perfect matching
  (paper Figure 6) — this is the only difference between GGP and OGGP.
- The matchings are computed by warm-started peeler engines
  (:mod:`repro.matching.peeler`) that read the graph once, own its
  weights and persist sorted indices, node maps, and matrix state
  across peels.  ``engine='fast'`` (default; ``'vector'`` names the
  same code) produces matchings identical to the stateless routines;
  ``engine='approx'`` trades that identity for speed on the largest
  graphs; ``engine='reference'`` is the retained stateless path used
  as the equivalence oracle in tests.
- The ``'arbitrary'`` strategy recomputes its perfect matching
  *incrementally* in every engine: the previous matching minus its
  exhausted edges is a near-perfect matching of the peeled graph, so
  Hopcroft–Karp only needs a few augmentations per iteration.
"""

from __future__ import annotations

from typing import Iterator, Literal

from repro import obs
from repro.graph.bipartite import BipartiteGraph, Number
from repro.core.schedule import Schedule, Step, Transfer
from repro.matching.base import Matching
from repro.matching.bottleneck import bottleneck_matching
from repro.matching.hopcroft_karp import hopcroft_karp
from repro.matching.hungarian import hungarian_perfect_matching
from repro.matching.peeler import BottleneckPeeler, HungarianPeeler
from repro.matching.vector import ApproxBottleneckPeeler
# Not called here: the benchmark tracer patches this name in this module.
from repro.matching.vector import hopcroft_karp_vec  # noqa: F401
from repro.util.errors import ConfigError, GraphError, MatchingError

#: 'arbitrary' — any perfect matching (Hopcroft–Karp, warm-started);
#: 'max_weight' — maximum-weight perfect matching (Hungarian, as the
#: paper's WRGP text suggests); 'bottleneck' — max-min-weight perfect
#: matching (Figure 6; this is what makes OGGP).
MatchingStrategy = Literal["arbitrary", "max_weight", "bottleneck"]

#: 'fast' — warm-started engines, schedules identical to 'reference'
#: (the bottleneck peel runs the int-array threshold sweep with exact
#: probe skipping, :class:`~repro.matching.vector.BottleneckPeeler`);
#: 'vector' — the same code as 'fast', a name kept so stored configs
#: and clients that use it keep working;
#: 'approx' — Etzold candidate sparsification with the matching
#: persisted across peels: near-bottleneck matchings, bounded quality
#: loss (the schedule stays a valid 2-approximation), for the largest
#: graphs;
#: 'reference' — the stateless per-peel calls, kept as the test oracle.
#: Strategies without a specialised approx path ('max_weight', and
#: 'arbitrary') run their 'fast' engines under 'approx'.
PeelEngine = Literal["fast", "vector", "approx", "reference"]

#: The engine names :func:`peel_weight_regular` accepts, in preference
#: order.  Kept as a runtime tuple so callers (the batch engine, CLIs)
#: can validate engine arguments without hard-coding the list.
VALID_ENGINES: tuple[str, ...] = ("fast", "vector", "approx", "reference")

#: Engines whose schedules are bit-identical to the stateless reference
#: path ('approx' trades that for speed).
EXACT_ENGINES: tuple[str, ...] = ("fast", "vector", "reference")


def peel_weight_regular(
    graph: BipartiteGraph,
    matching: MatchingStrategy = "arbitrary",
    engine: PeelEngine = "fast",
) -> Iterator[tuple[list[int], Number]]:
    """Peel ``graph`` as rounds of ``(matched edge ids, peel amount)``.

    ``graph`` must be weight-regular.  This is the one round source of
    :func:`wrgp`, GGP/OGGP and :mod:`repro.core.bvn`.  Except under
    ``'reference'``, ``'bottleneck'`` and ``'max_weight'`` run on an
    array peeler that reads ``graph`` once and owns its weights, so no
    per-round ``Matching``/``Edge`` is built and ``graph`` is left
    untouched (:class:`~repro.matching.vector.BottleneckPeeler`, under
    ``'approx'`` :class:`~repro.matching.vector.ApproxBottleneckPeeler`
    with ids in left-node order, and
    :class:`~repro.matching.peeler.HungarianPeeler`).  ``'reference'``
    and ``'arbitrary'`` run the stateless matchings on ``graph`` and
    consume it, peeling each round before it is yielded.  Ids ascend
    unless noted.  Posts the ``wrgp.*`` metrics and ``peel.progress``
    events.

    An unrecognised ``engine`` raises :class:`ConfigError` (a
    :class:`ValueError`) listing the valid engines — eagerly, at call
    time, not at first iteration.
    """
    _check_engine(engine)
    return _peel_weight_regular(graph, matching, engine)


def _check_engine(engine: str) -> None:
    if engine not in VALID_ENGINES:
        raise ConfigError(
            f"unknown peel engine {engine!r}; valid engines: "
            + ", ".join(repr(e) for e in VALID_ENGINES)
        )


def _check_square(graph: BipartiteGraph) -> None:
    if graph.num_left != graph.num_right:
        raise GraphError(
            f"weight-regular graph must be square, got {graph.num_left} left "
            f"vs {graph.num_right} right nodes"
        )


def _peel_weight_regular(
    graph: BipartiteGraph,
    matching: MatchingStrategy,
    engine: PeelEngine,
) -> Iterator[tuple[list[int], Number]]:
    _check_square(graph)
    peeler: BottleneckPeeler | ApproxBottleneckPeeler | HungarianPeeler | None
    peeler = None
    if engine != "reference" and not graph.is_empty():
        if matching == "bottleneck":
            approx = engine == "approx"
            peeler = (ApproxBottleneckPeeler if approx else BottleneckPeeler)(graph)
        elif matching == "max_weight":
            # The Hungarian peeler's hot loop is already a dense numpy
            # solve; 'approx' shares it.
            peeler = HungarianPeeler(graph)
    metrics = obs.metrics()
    peel_counter = metrics.counter("wrgp.peels")
    peel_sizes = metrics.histogram("wrgp.peel_size")
    previous: Matching | None = None
    peels_here = 0
    while True:
        # ``live`` is the edge count before this round's peel.
        if peeler is not None:
            live = peeler.live
            if not live:
                return
            eids, peel = peeler.next_matching()
        else:
            live = graph.num_edges
            if not live:
                return
            if matching == "bottleneck":
                m = bottleneck_matching(graph, require="perfect")
            elif matching == "max_weight":
                m = hungarian_perfect_matching(graph)
            else:
                # The warm dict Hopcroft–Karp under every engine: with a
                # few augmentations per peel, the array form is slower.
                m = hopcroft_karp(graph, initial=previous)
                if len(m) != graph.num_left:
                    raise MatchingError(
                        "no perfect matching found — input graph was not "
                        "weight-regular (peeling would preserve regularity)"
                    )
            previous = m
            peel = m.min_weight()
            eids = [edge.id for edge in m.edges()]
            for eid in eids:
                graph.peel_weight(eid, peel)
        if peel <= 0:  # pragma: no cover - positive weights guarantee this
            raise GraphError(f"non-positive peel amount {peel!r}")
        peel_counter.inc()
        peel_sizes.observe(float(peel))
        peels_here += 1
        if peels_here % 64 == 0:
            # Coarse progress beacon for long peeling loops; the event
            # ring is bounded, so a fixed stride keeps the volume sane.
            obs.emit("peel.progress", peels=peels_here, remaining_edges=live)
        yield eids, peel


def wrgp(
    graph: BipartiteGraph,
    beta: float = 0.0,
    matching: MatchingStrategy = "arbitrary",
    engine: PeelEngine = "fast",
) -> Schedule:
    """Schedule a *weight-regular* graph with unbounded ``k`` (paper §4.1).

    Every step is a full perfect matching; ``k`` is effectively
    ``min(n1, n2)``, which is what the schedule records.  For arbitrary
    graphs and bounded ``k``, use :func:`repro.core.ggp.ggp`.

    Raises :class:`GraphError` when the input is not weight-regular.
    """
    if not graph.is_weight_regular():
        raise GraphError(
            "wrgp requires a weight-regular graph; use ggp/oggp for the "
            "general case"
        )
    work = graph.copy()
    work.remove_isolated_nodes()
    k = max(1, min(work.num_left, work.num_right))
    # The rounds may consume ``work``, so the endpoints are read first.
    endpoints = {
        eid: (left, right) for eid, left, right, _w, _kind in work.iter_edge_data()
    }
    steps = []
    with obs.phase(
        "wrgp", edges=work.num_edges, matching=matching, beta=beta
    ) as root:
        for eids, peel in peel_weight_regular(work, matching=matching, engine=engine):
            amount = float(peel)
            steps.append(
                Step(
                    (Transfer(eid, *endpoints[eid], amount) for eid in eids),
                    duration=amount,
                )
            )
        root.set(steps=len(steps))
    return Schedule(steps, k=k, beta=beta)
