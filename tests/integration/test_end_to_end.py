"""Cross-module integration tests.

These exercise the full pipeline — pattern generation → scheduling →
validation → simulated execution / byte movement — and cross-validate
the independent implementations against each other.
"""

import numpy as np
import pytest

from repro.core.bounds import lower_bound
from repro.core.exact import exact_cost
from repro.core.ggp import ggp
from repro.core.oggp import oggp
from repro.graph.generators import from_traffic_matrix, random_bipartite
from repro.netsim.runner import run_redistribution, uniform_traffic
from repro.netsim.stepwise import simulate_schedule
from repro.netsim.tcp import TcpParams
from repro.netsim.topology import NetworkSpec
from repro.patterns import block_cyclic_matrix, zipf_matrix


class TestPatternToSchedulePipeline:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_zipf_pattern(self, k):
        traffic = zipf_matrix(3, 6, 5, total=300.0)
        graph = from_traffic_matrix(traffic, speed=10.0)
        for alg in (ggp, oggp):
            s = alg(graph, k=k, beta=0.1)
            s.validate(graph)
            assert s.cost <= 2 * lower_bound(graph, k, 0.1) + 1e-6

    def test_block_cyclic_pattern(self):
        traffic = block_cyclic_matrix(600, 4, 6, 5, 4)
        graph = from_traffic_matrix(traffic)
        s = oggp(graph, k=4, beta=2.0)
        s.validate(graph)
        # Total shipped equals total elements.
        assert sum(s.transferred_per_edge().values()) == pytest.approx(600.0)


class TestScheduleToSimulationPipeline:
    def test_simulated_time_equals_cost_model(self):
        """The DES executor and the analytic cost model must agree."""
        spec = NetworkSpec.paper_testbed(4, step_setup=0.02)
        traffic = uniform_traffic(8, 10, 10, 1.0, 2.0)
        graph = from_traffic_matrix(traffic, speed=spec.flow_rate)
        for alg in (ggp, oggp):
            sched = alg(graph, k=spec.k, beta=spec.step_setup)
            result = simulate_schedule(
                spec, sched, volume_scale=spec.flow_rate
            )
            assert result.total_time == pytest.approx(sched.cost, rel=1e-9)

    def test_schedule_cost_vs_lower_bound_vs_simulation(self):
        spec = NetworkSpec.paper_testbed(3, step_setup=0.01)
        traffic = uniform_traffic(4, 10, 10, 2.0, 5.0)
        graph = from_traffic_matrix(traffic, speed=spec.flow_rate)
        bound = lower_bound(graph, spec.k, spec.step_setup)
        out = run_redistribution(spec, traffic, "oggp")
        assert bound <= out.total_time + 1e-9
        assert out.total_time <= 2 * bound + 1e-6


class TestPaperHeadlineClaims:
    """The claims of the paper's conclusion, end to end."""

    def test_scheduling_beats_bruteforce_and_gain_grows_with_k(self):
        params = TcpParams(dt=0.005)
        gains = []
        for k in (3, 7):
            spec = NetworkSpec.paper_testbed(k, step_setup=0.01)
            traffic = uniform_traffic(42, 10, 10, 4.0, 12.0)
            brute = run_redistribution(
                spec, traffic, "bruteforce", rng=1, tcp_params=params
            ).total_time
            sched = run_redistribution(spec, traffic, "oggp").total_time
            gains.append(1.0 - sched / brute)
        assert gains[0] > 0.0, "OGGP must beat brute force at k=3"
        assert gains[1] > gains[0], "gain must grow with k"

    def test_oggp_close_to_optimal_for_long_communications(self):
        # Paper Fig 8: with weights far above beta the ratio is ~1.
        for seed in range(5):
            g = random_bipartite(seed, max_side=8, max_edges=30,
                                 weight_low=500, weight_high=10_000)
            bound = lower_bound(g, 4, 1.0)
            assert oggp(g, 4, 1.0).cost / bound < 1.01

    def test_heuristics_within_two_of_exact_optimum(self):
        for seed in range(10):
            g = random_bipartite(seed, max_side=3, max_edges=4,
                                 weight_low=1, weight_high=4)
            opt = exact_cost(g, k=2, beta=1.0)
            assert oggp(g, 2, 1.0).cost <= 2 * opt + 1e-9
            assert ggp(g, 2, 1.0).cost <= 2 * opt + 1e-9


class TestSerializationAcrossModules:
    def test_schedule_roundtrip_preserves_simulated_time(self):
        from repro.core.schedule import Schedule

        spec = NetworkSpec.paper_testbed(3, step_setup=0.05)
        traffic = uniform_traffic(2, 10, 10, 1.0, 2.0)
        graph = from_traffic_matrix(traffic, speed=spec.flow_rate)
        sched = oggp(graph, k=spec.k, beta=spec.step_setup)
        restored = Schedule.from_json(sched.to_json())
        a = simulate_schedule(spec, sched, volume_scale=spec.flow_rate)
        b = simulate_schedule(spec, restored, volume_scale=spec.flow_rate)
        assert a.total_time == b.total_time
