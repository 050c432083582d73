"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from repro.graph.bipartite import BipartiteGraph


def raw_state(g: BipartiteGraph) -> dict:
    """Every slot of ``g`` as stored, with the type of every number.

    Lists and adjacency sets keep their order (live-id order, padded
    slots, set iteration order); node maps are compared by key, since a
    graph lists its nodes in order of first use.  The ``Edge`` views
    cached in ``_live`` are dropped.  A slot added to the class is
    compared without touching this helper.
    """
    def typed(value):
        if isinstance(value, dict):
            return sorted((key, typed(item)) for key, item in value.items())
        if isinstance(value, (list, set)):
            return [typed(item) for item in value]
        return (value, type(value))

    state = {slot: getattr(g, slot) for slot in BipartiteGraph.__slots__}
    state["_live"] = list(state["_live"])
    return {slot: typed(value) for slot, value in state.items()}


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

@st.composite
def bipartite_graphs(
    draw,
    max_side: int = 6,
    max_edges: int = 12,
    min_edges: int = 1,
    max_weight: int = 12,
    integer_weights: bool = True,
):
    """Random small bipartite multigraph (parallel edges allowed)."""
    n1 = draw(st.integers(1, max_side))
    n2 = draw(st.integers(1, max_side))
    m = draw(st.integers(min_edges, max_edges))
    if integer_weights:
        weight = st.integers(1, max_weight)
    else:
        weight = st.floats(
            0.01, float(max_weight), allow_nan=False, allow_infinity=False
        )
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n1 - 1), st.integers(0, n2 - 1), weight),
            min_size=m,
            max_size=m,
        )
    )
    return BipartiteGraph.from_edges(edges)


@st.composite
def simple_bipartite_graphs(
    draw,
    max_side: int = 6,
    max_edges: int = 12,
    max_weight: int = 12,
):
    """Random graph with at most one edge per (left, right) pair."""
    n1 = draw(st.integers(1, max_side))
    n2 = draw(st.integers(1, max_side))
    pairs = draw(
        st.sets(
            st.tuples(st.integers(0, n1 - 1), st.integers(0, n2 - 1)),
            min_size=1,
            max_size=min(max_edges, n1 * n2),
        )
    )
    weights = draw(
        st.lists(
            st.integers(1, max_weight), min_size=len(pairs), max_size=len(pairs)
        )
    )
    return BipartiteGraph.from_edges(
        [(l, r, w) for (l, r), w in zip(sorted(pairs), weights)]
    )


ks = st.integers(1, 8)
betas = st.sampled_from([0.0, 0.5, 1.0, 3.0])


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------

@pytest.fixture
def fig2_graph() -> BipartiteGraph:
    """The paper's Figure 2 worked example."""
    from repro.graph.generators import paper_figure2_graph

    return paper_figure2_graph()


@pytest.fixture
def small_graph() -> BipartiteGraph:
    """Hand-built 3+3 graph used across module tests."""
    return BipartiteGraph.from_edges(
        [(0, 0, 4), (0, 1, 2), (1, 1, 3), (2, 0, 1), (2, 2, 5)]
    )
