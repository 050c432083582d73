"""The warm-started peeling engines reproduce the stateless reference.

The ``'fast'`` engine keeps sorted indices, node maps and matrix state
alive across peels but must remain *observably identical* to the
``'reference'`` engine (fresh :func:`bottleneck_matching` /
:func:`hungarian_perfect_matching` calls every peel): same schedules,
same costs, same step counts, on every input.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.ggp import ggp
from repro.core.oggp import oggp
from repro.core.wrgp import wrgp
from repro.graph.generators import (
    from_traffic_matrix,
    random_bipartite,
    random_weight_regular,
)
from repro.util.errors import ConfigError, MatchingError
from tests.conftest import bipartite_graphs, betas, ks

strategies = st.sampled_from(["arbitrary", "max_weight", "bottleneck"])


class TestFastEqualsReference:
    @given(bipartite_graphs(), ks, betas, strategies)
    @settings(max_examples=50, deadline=None)
    def test_ggp_identical_schedule(self, g, k, beta, matching):
        fast = ggp(g, k, beta, matching=matching, engine="fast")
        ref = ggp(g, k, beta, matching=matching, engine="reference")
        assert fast.to_dict() == ref.to_dict()
        fast.validate(g)

    @given(bipartite_graphs(), ks, betas)
    @settings(max_examples=50, deadline=None)
    def test_oggp_identical_schedule(self, g, k, beta):
        fast = oggp(g, k, beta, engine="fast")
        ref = oggp(g, k, beta, engine="reference")
        assert fast.cost == ref.cost
        assert fast.num_steps == ref.num_steps
        assert fast.to_dict() == ref.to_dict()
        fast.validate(g)

    @given(st.integers(0, 10**6), st.integers(2, 7), betas, strategies)
    @settings(max_examples=50, deadline=None)
    def test_wrgp_identical_schedule(self, seed, n, beta, matching):
        g = random_weight_regular(seed, n=n)
        fast = wrgp(g, beta=beta, matching=matching, engine="fast")
        ref = wrgp(g, beta=beta, matching=matching, engine="reference")
        assert fast.to_dict() == ref.to_dict()
        fast.validate(g)


def _outcome(run):
    """A schedule's dict, or the error a peel raised (float drift)."""
    try:
        return run().to_dict()
    except MatchingError as exc:
        return f"MatchingError: {exc}"


class TestMaxWeightArrayCore:
    """``matching='max_weight'`` runs on the Hungarian array core under
    every engine but ``'reference'``; it must reproduce the stateless
    path exactly, whatever the weight type."""

    array_engines = ("fast", "vector", "approx")

    @given(bipartite_graphs(integer_weights=False), ks, betas)
    @settings(max_examples=50, deadline=None)
    def test_ggp_non_integer_weights(self, g, k, beta):
        ref = ggp(g, k, beta, matching="max_weight", engine="reference")
        for engine in self.array_engines:
            got = ggp(g, k, beta, matching="max_weight", engine=engine)
            assert got.to_dict() == ref.to_dict()
        ref.validate(g)

    @given(
        st.integers(0, 10**6),
        st.integers(2, 7),
        st.sampled_from([1, 0.75, 0.37, Fraction(1, 3)]),
    )
    @settings(max_examples=50, deadline=None)
    def test_wrgp_parallel_edges_and_weight_types(self, seed, n, scale):
        g = random_weight_regular(seed, n=n, merge_parallel=False).map_weights(
            lambda w: w * scale
        )
        ref = _outcome(
            lambda: wrgp(g, beta=1.0, matching="max_weight", engine="reference")
        )
        for engine in self.array_engines:
            got = _outcome(
                lambda: wrgp(g, beta=1.0, matching="max_weight", engine=engine)
            )
            assert got == ref

    def test_golden_dense_instance_at_benchmark_scale(self):
        # 52x48 U{1..20}, k=10, beta=1: a regularized side of about 90
        # and about 1,500 peels, where per-peel bookkeeping dominates.
        weights = np.random.default_rng(52).integers(1, 21, size=(52, 48))
        g = from_traffic_matrix(weights)
        fast = ggp(g, 10, 1.0, engine="fast")
        ref = ggp(g, 10, 1.0, engine="reference")
        assert fast.to_dict() == ref.to_dict()
        fast.validate(g)

    def test_identical_without_scipy(self, monkeypatch):
        import repro.matching.hungarian as hungarian

        monkeypatch.setattr(hungarian, "_scipy_lsa", None)
        g = random_bipartite(4, max_side=6, max_edges=30)
        fast = ggp(g, 3, 1.0, engine="fast")
        ref = ggp(g, 3, 1.0, engine="reference")
        assert fast.to_dict() == ref.to_dict()
        fast.validate(g)

    def test_telemetry_matches_reference(self):
        g = from_traffic_matrix(
            np.random.default_rng(3).integers(1, 21, size=(20, 16))
        )
        names = ("wrgp.peels", "ggp.peels", "matching.hungarian.calls")

        def observe(engine):
            with obs.observed() as (registry, _tracer):
                ggp(g, 4, 1.0, engine=engine)
                progress = [
                    e.fields for e in obs.events().tail()
                    if e.kind == "peel.progress"
                ]
            return {n: registry.counter(n).value for n in names}, progress

        fast = observe("fast")
        assert fast == observe("reference")
        assert fast[1], "expected at least one peel.progress beacon"


class TestEngineArgument:
    def test_unknown_engine_rejected(self):
        g = random_weight_regular(1, n=3)
        with pytest.raises(ConfigError):
            wrgp(g, matching="bottleneck", engine="warp")

    @pytest.mark.parametrize("empty", [False, True], ids=["graph", "empty"])
    def test_removed_resume_engine_lists_valid_ones(self, empty):
        from repro.core.wrgp import VALID_ENGINES

        assert VALID_ENGINES == ("fast", "vector", "approx", "reference")
        g = from_traffic_matrix(np.zeros((2, 2)) if empty else [[3, 1], [2, 4]])
        with pytest.raises(ConfigError) as excinfo:
            oggp(g, 2, 1.0, engine="resume")
        for engine in VALID_ENGINES:
            assert repr(engine) in str(excinfo.value)

    def test_fast_and_vector_build_the_same_peeler(self, monkeypatch):
        from repro.matching.peeler import BottleneckPeeler

        built = []
        init = BottleneckPeeler.__init__

        def recording(self, graph):
            built.append(type(self))
            init(self, graph)

        monkeypatch.setattr(BottleneckPeeler, "__init__", recording)
        g = random_bipartite(11, max_side=6, max_edges=20)
        assert oggp(g, 3, 1.0, engine="fast").to_dict() == (
            oggp(g, 3, 1.0, engine="vector").to_dict()
        )
        assert built == [BottleneckPeeler, BottleneckPeeler]

    def test_unknown_engine_is_a_value_error_listing_engines(self):
        # ConfigError doubles as ValueError so stdlib-only callers can
        # catch it; the message must name every valid engine.
        from repro.core.wrgp import VALID_ENGINES, peel_weight_regular

        g = random_weight_regular(1, n=3)
        with pytest.raises(ValueError) as excinfo:
            peel_weight_regular(g, engine="warp")
        for engine in VALID_ENGINES:
            assert repr(engine) in str(excinfo.value)

    def test_unknown_engine_raises_eagerly_not_at_first_iteration(self):
        # peel_weight_regular is generator-backed; the engine check must
        # fire at call time, before anyone iterates.
        from repro.core.wrgp import peel_weight_regular

        g = random_weight_regular(1, n=3)
        with pytest.raises(ValueError):
            peel_weight_regular(g, engine="")  # no next() needed
