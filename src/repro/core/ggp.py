"""GGP — Generic Graph Peeling (paper §4.2, Figure 5).

The general-case 2-approximation for K-PBS:

1. normalise weights by β and round up to integers (§4.2.1),
2. regularise the graph (§4.2.2) so every perfect matching of the
   regularised graph J carries at most k original edges (Proposition 1),
3. peel J with WRGP,
4. extract the schedule: each peel becomes one step containing only the
   original edges of the matching; steps whose matching contains no
   original edge ship no real data and are dropped (dropping them only
   lowers the cost, so the 2-approximation guarantee is preserved).

The schedule is *realised* back in real time units: a peel of ``w``
normalised units lasts ``w·β`` seconds, and the final chunk of each
message is shrunk so the shipped volume equals the original weight
(round-up inflates each message by < β, and every chunk is ≥ β, so only
the final chunk is affected).
"""

from __future__ import annotations

from repro import obs
from repro.graph.bipartite import BipartiteGraph, EdgeKind
from repro.core.normalize import normalize_weights
from repro.core.regularize import regularize
from repro.core.schedule import Schedule, Step, Transfer
from repro.core.wrgp import (  # noqa: F401 - peel_weight_regular re-exported
    MatchingStrategy,
    PeelEngine,
    _check_engine,
    peel_rounds,
    peel_weight_regular,
)
from repro.util.errors import ConfigError


def ggp(
    graph: BipartiteGraph,
    k: int,
    beta: float,
    matching: MatchingStrategy = "max_weight",
    engine: PeelEngine = "fast",
) -> Schedule:
    """Schedule ``graph`` under the K-PBS constraints; 2-approximation.

    Parameters
    ----------
    graph:
        The redistribution pattern (left = senders, right = receivers).
    k:
        Maximum simultaneous communications (backbone constraint).
    beta:
        Setup delay per communication step (same unit as edge weights).
    matching:
        Perfect-matching strategy for the peeling loop.  The default
        ``'max_weight'`` (Hungarian method, as in the paper's §4.1 text)
        peels larger chunks than ``'arbitrary'`` (plain Hopcroft–Karp)
        and tracks the paper's measured GGP quality; ``'bottleneck'``
        turns GGP into OGGP (prefer calling
        :func:`repro.core.oggp.oggp` for that).  All three produce valid
        2-approximations.
    engine:
        Peeling engine (see :func:`repro.core.wrgp.peel_weight_regular`
        and :func:`repro.core.wrgp.peel_rounds`):
        ``'fast'`` (warm-started, default; ``'vector'`` names the same
        code), ``'approx'`` (Etzold sparsification — fastest,
        near-optimal matchings, still a valid 2-approximation), or
        ``'reference'`` (stateless oracle).  An unknown name raises
        :class:`ConfigError` listing the valid ones.

    >>> from repro.graph import paper_figure2_graph
    >>> s = ggp(paper_figure2_graph(), k=3, beta=1.0)
    >>> s.validate(paper_figure2_graph())
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if beta < 0:
        raise ConfigError(f"beta must be >= 0, got {beta}")
    _check_engine(engine)
    if graph.is_empty():
        return Schedule([], k=k, beta=beta)

    metrics = obs.metrics()
    with obs.phase(
        "ggp",
        left=graph.num_left,
        right=graph.num_right,
        edges=graph.num_edges,
        k=k,
        beta=beta,
        matching=matching,
    ) as root:
        with obs.phase("ggp.normalize"):
            problem = normalize_weights(graph, beta)
        with obs.phase("ggp.regularize"):
            reg = regularize(problem.graph, k)
        j = reg.graph  # regularize copies; safe to consume

        remaining = dict(problem.original_weights)
        scale = problem.scale
        steps: list[Step] = []
        peels = dropped = 0
        chunk_sizes = metrics.histogram("ggp.chunk_size")

        # Rounds are (matched edge ids, peel); only J's original edges
        # ship data.  ``j`` may be consumed by the rounds, so the
        # endpoints are read first.
        endpoints = {
            eid: (left, right)
            for eid, left, right, _w, kind in j.iter_edge_data()
            if kind is EdgeKind.ORIGINAL
        }
        rounds = peel_rounds(j, matching=matching, engine=engine)
        with obs.phase("ggp.peel"):
            for eids, peel in rounds:
                peels += 1
                chunk = float(peel) * scale
                chunk_sizes.observe(chunk)
                transfers = []
                # Most matched edges are filler or deficiency edges.
                for eid in filter(endpoints.__contains__, eids):
                    amount = min(chunk, remaining[eid])
                    # Round-up arithmetic guarantees amount > 0 (the inflation is
                    # strictly less than one chunk), but guard against pathology.
                    if amount <= 0:  # pragma: no cover
                        continue
                    remaining[eid] -= amount
                    transfers.append(Transfer(eid, *endpoints[eid], amount))
                if transfers:
                    steps.append(
                        Step(transfers, duration=max(t.amount for t in transfers))
                    )
                else:
                    # Virtual-only matching: ships no real data, dropped.
                    dropped += 1
        metrics.counter("ggp.calls").inc()
        metrics.counter("ggp.peels").inc(peels)
        metrics.counter("ggp.steps").inc(len(steps))
        metrics.counter("ggp.dropped_virtual_steps").inc(dropped)
        root.set(peels=peels, steps=len(steps), dropped_virtual_steps=dropped)
    return Schedule(steps, k=k, beta=beta)
