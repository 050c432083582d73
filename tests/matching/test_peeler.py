"""Warm-started peelers vs their stateless oracles, edge for edge."""

from fractions import Fraction

import numpy as np
import pytest

from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import random_weight_regular
from repro.matching.bottleneck import bottleneck_matching
from repro.matching.hungarian import hungarian_perfect_matching
from repro.matching.peeler import BottleneckPeeler, HungarianPeeler


def drive(graph: BipartiteGraph, next_matching) -> list[tuple[list[int], float]]:
    """Peel ``graph`` to exhaustion; returns (sorted edge ids, peel) per step."""
    out = []
    while not graph.is_empty():
        m = next_matching()
        peel = m.min_weight()
        out.append((sorted(e.id for e in m.edges()), float(peel)))
        for e in m.edges():
            graph.peel_weight(e.id, peel)
    return out


def peeler_rounds(peeler) -> list[tuple[list[int], float]]:
    """An array peeler's own rounds to exhaustion, in :func:`drive`'s form."""
    out = []
    while peeler.live:
        eids, peel = peeler.next_matching()
        out.append((eids, float(peel)))
    return out


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 99])
def test_replay_matches_stateless_bottleneck(seed):
    g = random_weight_regular(seed, n=6, layers=4)
    untouched = g.copy()
    got = peeler_rounds(BottleneckPeeler(g))
    assert g == untouched  # the peeler owns its weights
    cold = g.copy()
    want = drive(cold, lambda: bottleneck_matching(cold, require="perfect"))
    assert got == want


@pytest.mark.parametrize("seed", [0, 3, 11, 64])
def test_hungarian_peeler_matches_stateless(seed):
    g = random_weight_regular(seed, n=5, layers=3)
    untouched = g.copy()
    got = peeler_rounds(HungarianPeeler(g))
    assert g == untouched  # the peeler owns its weights
    cold = g.copy()
    want = drive(cold, lambda: hungarian_perfect_matching(cold))
    assert got == want


def test_hungarian_peeler_hands_the_solver_the_stateless_matrix(monkeypatch):
    import repro.matching.hungarian as hungarian

    solve = hungarian._solve_max
    matrices = []

    def recording(score):
        matrices.append(score.copy())
        return solve(score)

    monkeypatch.setattr(hungarian, "_solve_max", recording)
    g = random_weight_regular(7, n=5, layers=3, merge_parallel=False)
    peeler_rounds(HungarianPeeler(g))
    warm = matrices[:]
    matrices.clear()
    cold = g.copy()
    drive(cold, lambda: hungarian_perfect_matching(cold))
    assert len(warm) == len(matrices)
    for got, want in zip(warm, matrices):
        # Same cells, same best edges, same missing-pair sentinel.
        assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", [2, 9, 31])
@pytest.mark.parametrize(
    "scale", [lambda w: w, lambda w: w * 0.75, lambda w: Fraction(w, 3)],
    ids=["int", "float", "fraction"],
)
def test_hungarian_peeler_parallel_edges(seed, scale):
    # Splitting an edge into two parallel ones keeps every node weight,
    # so the graph stays weight-regular; even weights split into ties.
    base = random_weight_regular(seed, n=5, layers=3)
    edges = []
    for e in base.edges_sorted():
        if e.id % 2 and e.weight >= 2:
            edges.append((e.left, e.right, scale(e.weight // 2)))
            edges.append((e.left, e.right, scale(e.weight - e.weight // 2)))
        else:
            edges.append((e.left, e.right, scale(e.weight)))
    g = BipartiteGraph.from_edges(edges)
    got = peeler_rounds(HungarianPeeler(g))
    cold = g.copy()
    want = drive(cold, lambda: hungarian_perfect_matching(cold))
    assert got == want


def test_single_edge_graph():
    g = BipartiteGraph.from_edges([(0, 0, 5)])
    untouched = g.copy()
    peeler = BottleneckPeeler(g)
    assert peeler.next_matching() == (g.edge_ids(), 5)
    assert peeler.live == 0
    assert g == untouched
