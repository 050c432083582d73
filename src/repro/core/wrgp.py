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
  (:mod:`repro.matching.peeler`) that persist sorted indices, node
  maps, and matrix state across peels.  ``engine='fast'`` (default)
  produces matchings identical to the stateless routines;
  ``engine='resume'`` additionally carries the bottleneck matching
  itself across peels (fastest, but may pick different — equally
  optimal — matchings, so schedules can differ in step count by a
  little); ``engine='reference'`` is the retained stateless path used
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
from repro.matching.vector import (
    ApproxBottleneckPeeler,
    ApproxPeelCore,
    VectorBottleneckPeeler,
    hopcroft_karp_vec,
)
from repro.util.errors import ConfigError, GraphError, MatchingError

#: 'arbitrary' — any perfect matching (Hopcroft–Karp, warm-started);
#: 'max_weight' — maximum-weight perfect matching (Hungarian, as the
#: paper's WRGP text suggests); 'bottleneck' — max-min-weight perfect
#: matching (Figure 6; this is what makes OGGP).
MatchingStrategy = Literal["arbitrary", "max_weight", "bottleneck"]

#: 'fast' — warm-started engines, schedules identical to 'reference';
#: 'vector' — the numpy int-array core (:mod:`repro.matching.vector`),
#: still bit-identical to 'fast'/'reference' but with frontier-at-a-time
#: BFS and exact probe skipping (the fastest *exact* engine at scale);
#: 'resume' — persists the bottleneck matching across peels (schedules
#: remain valid but may differ slightly);
#: 'approx' — Etzold candidate sparsification on top of resume-style
#: persistence: near-bottleneck matchings, bounded quality loss (the
#: schedule stays a valid 2-approximation), for the largest graphs;
#: 'reference' — the stateless per-peel calls, kept as the test oracle.
#: Strategies without a specialised vector/approx path ('max_weight',
#: and 'arbitrary' under 'approx') fall back to their 'fast' engines.
PeelEngine = Literal["fast", "vector", "resume", "approx", "reference"]

#: The engine names :func:`peel_weight_regular` accepts, in preference
#: order.  Kept as a runtime tuple so callers (the batch engine, CLIs)
#: can validate engine arguments without hard-coding the list.
VALID_ENGINES: tuple[str, ...] = ("fast", "vector", "resume", "approx", "reference")

#: Engines whose schedules are bit-identical to the stateless reference
#: path ('resume' and 'approx' trade that for speed).
EXACT_ENGINES: tuple[str, ...] = ("fast", "vector", "reference")


def peel_weight_regular(
    graph: BipartiteGraph,
    matching: MatchingStrategy = "arbitrary",
    engine: PeelEngine = "fast",
) -> Iterator[tuple[Matching, Number]]:
    """Destructively peel ``graph``; yields ``(matching, peel_amount)`` pairs.

    ``graph`` must be weight-regular and is consumed in place.  The
    yielded matchings hold edge snapshots *before* the peel, so their
    weights are the pre-peel remaining weights.

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
) -> Iterator[tuple[Matching, Number]]:
    previous: Matching | None = None
    _check_square(graph)
    size = graph.num_left
    bottleneck_peeler: BottleneckPeeler | ApproxBottleneckPeeler | VectorBottleneckPeeler | None = None
    hungarian_peeler: HungarianPeeler | None = None
    if engine != "reference" and not graph.is_empty():
        if matching == "bottleneck":
            if engine == "vector":
                bottleneck_peeler = VectorBottleneckPeeler(graph)
            elif engine == "approx":
                bottleneck_peeler = ApproxBottleneckPeeler(graph)
            else:
                mode = "resume" if engine == "resume" else "replay"
                bottleneck_peeler = BottleneckPeeler(graph, mode=mode)
        elif matching == "max_weight":
            # The Hungarian peeler's hot loop is already a dense numpy
            # solve; 'vector'/'approx' share it.
            hungarian_peeler = HungarianPeeler(graph)
    metrics = obs.metrics()
    peel_counter = metrics.counter("wrgp.peels")
    peel_sizes = metrics.histogram("wrgp.peel_size")
    peels_here = 0
    while not graph.is_empty():
        peel: Number | None = None
        if bottleneck_peeler is not None:
            m = bottleneck_peeler.next_matching()
        elif hungarian_peeler is not None:
            eids, peel = hungarian_peeler.next_matching()
            m = Matching(map(graph.edge, eids))
        elif matching == "bottleneck":
            m = bottleneck_matching(graph, require="perfect")
        elif matching == "max_weight":
            m = hungarian_perfect_matching(graph)
        elif engine == "vector":
            m = hopcroft_karp_vec(graph, initial=previous)
            if len(m) != size:
                raise MatchingError(
                    "no perfect matching found — input graph was not "
                    "weight-regular (peeling would preserve regularity)"
                )
        else:
            m = hopcroft_karp(graph, initial=previous)
            if len(m) != size:
                raise MatchingError(
                    "no perfect matching found — input graph was not "
                    "weight-regular (peeling would preserve regularity)"
                )
        if peel is None:
            peel = m.min_weight()
        if peel <= 0:  # pragma: no cover - positive weights guarantee this
            raise GraphError(f"non-positive peel amount {peel!r}")
        peel_counter.inc()
        peel_sizes.observe(float(peel))
        peels_here += 1
        if peels_here % 64 == 0:
            # Coarse progress beacon for long peeling loops; the event
            # ring is bounded, so a fixed stride keeps the volume sane.
            obs.emit(
                "peel.progress",
                peels=peels_here,
                remaining_edges=graph.num_edges,
            )
        yield m, peel
        for edge in m.edges():
            graph.peel_weight(edge.id, peel)
        previous = m


def peel_rounds(
    graph: BipartiteGraph,
    matching: MatchingStrategy = "arbitrary",
    engine: PeelEngine = "fast",
) -> Iterator[tuple[list[int], Number]]:
    """Peel ``graph`` as rounds of ``(matched edge ids, peel amount)``.

    GGP's round source.  Two strategies run on array cores that own
    their weights — no per-peel ``Matching``/``Edge`` objects and no
    graph mutation, which is what lets ``'approx'`` reach ``max_side``
    ≈ 1000:

    - ``'max_weight'`` under every engine but ``'reference'``:
      :class:`~repro.matching.peeler.HungarianPeeler`, bit-identical to
      the stateless path (ids ascending);
    - ``'bottleneck'`` under ``'approx'``:
      :class:`~repro.matching.vector.ApproxPeelCore` (ids in left-node
      order; it needs exact, normalised weights for its countdown).

    Every other strategy adapts :func:`peel_weight_regular`, which
    consumes ``graph``.  Like it, posts the ``wrgp.*`` metrics and
    ``peel.progress`` events and rejects an unknown ``engine`` at call
    time.
    """
    _check_engine(engine)
    return _peel_rounds(graph, matching, engine)


def _peel_rounds(
    graph: BipartiteGraph,
    matching: MatchingStrategy,
    engine: PeelEngine,
) -> Iterator[tuple[list[int], Number]]:
    _check_square(graph)
    hungarian = approx = None
    if engine != "reference" and not graph.is_empty():
        if matching == "max_weight":
            hungarian = HungarianPeeler(graph)
        elif matching == "bottleneck" and engine == "approx":
            approx = ApproxPeelCore(graph)
    if hungarian is None and approx is None:
        for m, peel in peel_weight_regular(graph, matching=matching, engine=engine):
            yield [e.id for e in m.edges()], peel
        return
    metrics = obs.metrics()
    peel_counter = metrics.counter("wrgp.peels")
    peel_sizes = metrics.histogram("wrgp.peel_size")
    if approx is not None:
        calls = metrics.counter("matching.bottleneck.calls")
        probe_counter = metrics.counter("matching.bottleneck.threshold_probes")
    peels_here = 0
    while True:
        # ``live`` is the edge count before this round's peel, as
        # ``graph.num_edges`` is in the generic loop's progress beacon.
        if hungarian is not None:
            live = hungarian.live
            if not live:
                return
            eids, peel = hungarian.next_matching()
        else:
            if approx.remaining <= 0:
                return
            eids, peel, probes = approx.next_round()
            live = approx.live
            calls.inc()
            probe_counter.inc(probes)
        peel_counter.inc()
        peel_sizes.observe(float(peel))
        peels_here += 1
        if peels_here % 64 == 0:
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
    steps = []
    with obs.phase(
        "wrgp", edges=work.num_edges, matching=matching, beta=beta
    ) as root:
        for m, peel in peel_weight_regular(work, matching=matching, engine=engine):
            steps.append(
                Step(
                    (
                        Transfer(e.id, e.left, e.right, float(peel))
                        for e in m.edges()
                    ),
                    duration=float(peel),
                )
            )
        root.set(steps=len(steps))
    return Schedule(steps, k=k, beta=beta)
