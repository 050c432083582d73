"""Matching algorithms on bipartite multigraphs.

- :func:`hopcroft_karp` — maximum-cardinality matching, with optional
  warm start from a partial matching (the peeling loops reuse the
  previous step's matching after removing peeled edges).
- :func:`bottleneck_matching` — maximum-cardinality matching whose
  *minimum edge weight is maximum* (paper Figure 6); the ingredient that
  turns GGP into OGGP.
- :func:`greedy_matching` — fast maximal (not maximum) matching used as
  a baseline and as a warm-start seed.
- :class:`BottleneckPeeler` / :class:`HungarianPeeler` — warm-started
  engines that keep sorted indices, node maps and matrix state alive
  across the WRGP/GGP/OGGP peeling loops (the Hungarian one also owns
  its weights and yields ``(edge ids, peel)`` rounds).  The bottleneck
  one is the only exact OGGP peeler (``engine='fast'``, alias
  ``'vector'``): the int-array threshold sweep with a frontier-at-a-time
  BFS and exact probe skipping, bit-identical to the stateless path.
- :func:`hopcroft_karp_vec` — the int-array Hopcroft–Karp,
  bit-identical to :func:`hopcroft_karp`.
- :class:`ApproxBottleneckPeeler` / :class:`ApproxPeelCore` — the
  Etzold-sparsified approximate engine (``engine='approx'``) for the
  largest graphs.
- :class:`VectorBottleneckPeeler` — the former ``'vector'`` class name,
  now a subclass of :class:`BottleneckPeeler` that no engine builds.
"""

from repro.matching.base import Matching
from repro.matching.hopcroft_karp import hopcroft_karp
from repro.matching.bottleneck import bottleneck_matching
from repro.matching.peeler import BottleneckPeeler, HungarianPeeler
from repro.matching.greedy import greedy_matching
from repro.matching.hungarian import hungarian_perfect_matching
from repro.matching.edge_coloring import koenig_edge_coloring
from repro.matching.vector import (
    ApproxBottleneckPeeler,
    ApproxPeelCore,
    VectorBottleneckPeeler,
    hopcroft_karp_vec,
)

__all__ = [
    "Matching",
    "hopcroft_karp",
    "hopcroft_karp_vec",
    "bottleneck_matching",
    "BottleneckPeeler",
    "HungarianPeeler",
    "VectorBottleneckPeeler",
    "ApproxBottleneckPeeler",
    "ApproxPeelCore",
    "greedy_matching",
    "hungarian_perfect_matching",
    "koenig_edge_coloring",
]
