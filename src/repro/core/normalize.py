"""β-normalisation of edge weights (paper §4.2.1).

GGP never splits a communication shorter than β.  The paper implements
this by *normalising* all weights by β and rounding up to integers: a
WRGP peel on the normalised graph is then always at least 1 (= β in
real time), so no chunk shorter than β is ever scheduled.

After scheduling, the normalised chunk sizes are mapped back to real
time units by multiplying by β, and the final chunk of each message is
shrunk so the shipped volume equals the original weight exactly (the
round-up inflates each message by strictly less than β, and every chunk
is at least β, so only the last chunk is ever affected).

For β = 0 no rounding happens; weights are instead converted to exact
:class:`fractions.Fraction` values so the peeling arithmetic stays exact
even for float inputs (repeated subtraction of float minima would
otherwise erode the weight-regularity invariant).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.graph.bipartite import BipartiteGraph
from repro.util.errors import ConfigError


@dataclass(frozen=True)
class NormalizedProblem:
    """A graph with scheduler-friendly exact weights plus the scale back.

    ``graph`` carries integer weights (β > 0, units of β) or Fraction
    weights (β = 0, exact copies of the inputs).  ``scale`` converts a
    normalised duration back to real time: ``real = normalised * scale``
    with ``scale = β`` when β > 0 and ``scale = 1`` when β = 0.
    ``original_weights`` maps edge id to the original real weight, used
    to shrink final chunks during schedule realisation.
    """

    graph: BipartiteGraph
    scale: float
    original_weights: dict[int, float]


def normalize_weights(graph: BipartiteGraph, beta: float) -> NormalizedProblem:
    """Normalise ``graph``'s weights for the GGP pipeline.

    β > 0: each weight ``w`` becomes ``ceil(w / β)`` (an ``int >= 1``).
    β = 0: each weight becomes ``Fraction(w)`` (exact).

    Edge ids and node ids are preserved.
    """
    if beta < 0:
        raise ConfigError(f"beta must be >= 0, got {beta}")
    originals = {eid: float(w) for eid, _l, _r, w, _k in graph.iter_edge_data()}
    if beta == 0:
        normalized = graph.map_weights(lambda w: Fraction(w))
        return NormalizedProblem(graph=normalized, scale=1.0, original_weights=originals)
    p, q = _integer_ratio(beta)

    def round_up(w):
        # ceil((a/b) / (p/q)) in exact integer arithmetic, which avoids
        # float round-up anomalies like ceil(0.3 / 0.1) == 4.
        a, b = _integer_ratio(w)
        return -((-a * q) // (b * p))

    normalized = graph.map_weights(round_up)
    return NormalizedProblem(
        graph=normalized, scale=float(beta), original_weights=originals
    )


def _integer_ratio(x) -> tuple[int, int]:
    """``x`` as ``(numerator, denominator)`` integers, exactly.

    ``int``, ``float`` and ``Fraction`` answer ``as_integer_ratio()``
    themselves; NumPy integer scalars do not, and go through
    :class:`~fractions.Fraction` (whose parts stay NumPy integers, hence
    the ``int`` casts: the products must not overflow 64 bits).
    """
    ratio = getattr(x, "as_integer_ratio", None)
    if ratio is None:
        x = Fraction(x)
        return int(x.numerator), int(x.denominator)
    return ratio()
