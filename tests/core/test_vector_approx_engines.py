"""The ``'vector'`` and ``'approx'`` peeling engines keep their promises.

``'vector'`` is an *exact* engine: bit-identical schedules to
``'fast'`` (and therefore to ``'reference'``) on every input — it only
changes how the matchings are searched, never which matchings are
found.  ``'approx'`` (Etzold-style dense-graph sparsification) promises
a *valid* schedule with bounded quality loss, not identity.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import evaluation_ratio, lower_bound
from repro.core.ggp import ggp
from repro.core.oggp import oggp
from repro.core.wrgp import EXACT_ENGINES, VALID_ENGINES, wrgp
from repro.graph.generators import random_bipartite, random_weight_regular
from tests.conftest import bipartite_graphs, betas, ks

strategies = st.sampled_from(["arbitrary", "max_weight", "bottleneck"])


class TestVectorBitIdentity:
    @given(bipartite_graphs(), ks, betas, strategies)
    @settings(max_examples=50, deadline=None)
    def test_ggp_identical_schedule(self, g, k, beta, matching):
        vec = ggp(g, k, beta, matching=matching, engine="vector")
        fast = ggp(g, k, beta, matching=matching, engine="fast")
        assert vec.to_dict() == fast.to_dict()
        vec.validate(g)

    @given(bipartite_graphs(), ks, betas)
    @settings(max_examples=50, deadline=None)
    def test_oggp_identical_schedule(self, g, k, beta):
        vec = oggp(g, k, beta, engine="vector")
        ref = oggp(g, k, beta, engine="reference")
        assert vec.to_dict() == ref.to_dict()
        vec.validate(g)

    @given(st.integers(0, 10**6), st.integers(2, 7), betas, strategies)
    @settings(max_examples=50, deadline=None)
    def test_wrgp_identical_schedule(self, seed, n, beta, matching):
        g = random_weight_regular(seed, n=n)
        vec = wrgp(g, beta=beta, matching=matching, engine="vector")
        fast = wrgp(g, beta=beta, matching=matching, engine="fast")
        assert vec.to_dict() == fast.to_dict()
        vec.validate(g)

    @pytest.mark.parametrize("seed", [12345, 777, 31])
    @pytest.mark.parametrize("algorithm", [ggp, oggp])
    def test_golden_medium_instances(self, algorithm, seed):
        # Larger fixed instances than hypothesis reaches: the regime
        # probe skipping, depth-1 flips and the limit early-exit fire in.
        g = random_bipartite(seed, max_side=40, max_edges=1600)
        vec = algorithm(g, 10, 1.0, engine="vector")
        fast = algorithm(g, 10, 1.0, engine="fast")
        assert vec.to_dict() == fast.to_dict()
        vec.validate(g)


class TestApproxEngine:
    @given(bipartite_graphs(), ks, betas)
    @settings(max_examples=50, deadline=None)
    def test_oggp_approx_is_valid(self, g, k, beta):
        schedule = oggp(g, k, beta, engine="approx")
        schedule.validate(g)

    @given(bipartite_graphs(), ks, betas, strategies)
    @settings(max_examples=40, deadline=None)
    def test_ggp_approx_is_valid(self, g, k, beta, matching):
        schedule = ggp(g, k, beta, matching=matching, engine="approx")
        schedule.validate(g)

    @pytest.mark.parametrize("seed", [12345, 777, 31])
    def test_bounded_quality_loss(self, seed):
        # Empirically the gap is ~±3%; the assertion leaves slack but
        # still catches a broken sparsifier (which degrades far past 2x).
        g = random_bipartite(seed, max_side=30, max_edges=900)
        fast = oggp(g, 10, 1.0, engine="fast")
        approx = oggp(g, 10, 1.0, engine="approx")
        approx.validate(g)
        assert approx.cost <= 1.5 * fast.cost
        bound = lower_bound(g, 10, 1.0)
        assert evaluation_ratio(approx.cost, bound) <= 2.0

    def test_approx_differs_only_in_choice_not_volume(self):
        g = random_bipartite(7, max_side=20, max_edges=400)
        fast = oggp(g, 5, 1.0, engine="fast")
        approx = oggp(g, 5, 1.0, engine="approx")
        moved = lambda s: sum(  # noqa: E731
            t.amount for st_ in s.steps for t in st_.transfers
        )
        assert moved(approx) == moved(fast)


class TestEngineRegistry:
    def test_new_engines_registered(self):
        assert {"vector", "approx"} <= set(VALID_ENGINES)
        assert "vector" in EXACT_ENGINES
        assert "approx" not in EXACT_ENGINES
