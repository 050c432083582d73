"""Tests for the packet-level simulator, incl. fluid-model cross-checks."""

import numpy as np
import pytest

from repro.netsim.packetsim import (
    PacketSimParams,
    simulate_packet_bruteforce,
)
from repro.netsim.tcp import TcpParams, simulate_bruteforce
from repro.netsim.topology import NetworkSpec
from repro.util.errors import ConfigError, SimulationError


class TestBasics:
    def test_empty_traffic(self):
        spec = NetworkSpec.paper_testbed(3)
        result = simulate_packet_bruteforce(spec, np.zeros((10, 10)), rng=0)
        assert result.total_time == 0.0
        assert result.sent_segments == 0

    def test_single_uncontended_flow_near_ideal(self):
        spec = NetworkSpec.paper_testbed(3)
        traffic = np.zeros((10, 10))
        traffic[0, 0] = 10.0  # Mbit
        result = simulate_packet_bruteforce(spec, traffic, rng=0)
        ideal = 10.0 / spec.flow_rate
        assert ideal <= result.total_time <= ideal * 1.3
        assert result.dropped_segments == 0

    def test_all_segments_eventually_delivered(self):
        spec = NetworkSpec(n1=4, n2=4, nic_rate1=25.0, nic_rate2=25.0,
                           backbone_rate=100.0)
        traffic = np.full((4, 4), 4.0)
        result = simulate_packet_bruteforce(spec, traffic, rng=1)
        seg_mbit = PacketSimParams().segment_bits / 1e6
        expected = sum(
            max(1, int(np.ceil(v / seg_mbit))) for v in traffic.ravel()
        )
        assert result.delivered_segments == expected
        assert np.isfinite(result.completion_times).all()

    def test_seeded_reproducibility(self):
        spec = NetworkSpec(n1=4, n2=4, nic_rate1=25.0, nic_rate2=25.0,
                           backbone_rate=100.0)
        traffic = np.full((4, 4), 4.0)
        a = simulate_packet_bruteforce(spec, traffic, rng=3)
        b = simulate_packet_bruteforce(spec, traffic, rng=3)
        assert a.total_time == b.total_time
        assert a.dropped_segments == b.dropped_segments

    def test_wrong_shape(self):
        with pytest.raises(SimulationError):
            simulate_packet_bruteforce(
                NetworkSpec.paper_testbed(3), np.zeros((2, 2)), rng=0
            )

    def test_param_validation(self):
        with pytest.raises(ConfigError):
            PacketSimParams(segment_bits=0)
        with pytest.raises(ConfigError):
            PacketSimParams(switch_buffer=0)
        with pytest.raises(ConfigError):
            PacketSimParams(rto=0)

    def test_max_time_guard(self):
        spec = NetworkSpec.paper_testbed(3)
        traffic = np.full((10, 10), 10.0)
        with pytest.raises(SimulationError, match="max_time"):
            simulate_packet_bruteforce(
                spec, traffic, rng=0, params=PacketSimParams(max_time=0.1)
            )


class TestCongestionBehaviour:
    def test_oversubscription_wastes_goodput(self):
        spec = NetworkSpec.paper_testbed(5)
        traffic = np.full((10, 10), 8.0)
        result = simulate_packet_bruteforce(spec, traffic, rng=1)
        assert result.goodput_efficiency < 0.95
        assert result.dropped_segments > 0

    def test_stragglers_exist(self):
        spec = NetworkSpec.paper_testbed(5)
        traffic = np.full((10, 10), 8.0)
        result = simulate_packet_bruteforce(spec, traffic, rng=1)
        spread = result.completion_times.max() - result.completion_times.min()
        assert spread > 0.1 * result.total_time


class TestCrossValidation:
    """The packet and fluid models must agree on the headline claims.

    They share no code beyond the topology, so agreement here is real
    evidence that the Figures 10/11 comparison isn't a fluid-model
    artifact.
    """

    @pytest.fixture(scope="class")
    def results(self):
        out = {}
        for k in (3, 7):
            spec = NetworkSpec.paper_testbed(k)
            traffic = np.full((10, 10), 12.0)
            out[("packet", k)] = simulate_packet_bruteforce(
                spec, traffic, rng=1
            )
            out[("fluid", k)] = simulate_bruteforce(
                spec, traffic, rng=1, params=TcpParams(dt=0.005)
            )
        return out

    def test_both_models_waste_goodput(self, results):
        for key, result in results.items():
            assert result.goodput_efficiency < 0.999, key

    def test_waste_grows_with_k_in_both(self, results):
        assert (
            results[("packet", 7)].goodput_efficiency
            < results[("packet", 3)].goodput_efficiency + 0.02
        )
        assert (
            results[("fluid", 7)].goodput_efficiency
            < results[("fluid", 3)].goodput_efficiency + 0.02
        )

    def test_neither_model_beats_capacity(self, results):
        for k in (3, 7):
            ideal = 1200.0 / 100.0  # volume / backbone
            assert results[("packet", k)].total_time >= ideal
            assert results[("fluid", k)].total_time >= ideal
