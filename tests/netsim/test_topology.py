"""Tests for the NetworkSpec platform description."""

import pytest

from repro.netsim.topology import MBIT_PER_MB, NetworkSpec
from repro.util.errors import ConfigError


class TestDerivations:
    def test_symmetric_shaped_testbed(self):
        spec = NetworkSpec.paper_testbed(4)
        assert spec.k == 4
        assert spec.flow_rate == pytest.approx(25.0)

    def test_float_division_artifacts(self):
        # 100 / (100/3) must give k = 3, not 2.
        for k in range(1, 11):
            assert NetworkSpec.paper_testbed(k).k == k

    def test_asymmetric_nics(self):
        spec = NetworkSpec(n1=200, n2=100, nic_rate1=10, nic_rate2=100,
                           backbone_rate=1000)
        assert spec.k == 100
        assert spec.flow_rate == 10

    def test_k_capped_by_cluster_sizes(self):
        spec = NetworkSpec(n1=2, n2=5, nic_rate1=1, nic_rate2=1,
                           backbone_rate=1000)
        assert spec.k == 2

    def test_k_at_least_one(self):
        # Backbone slower than a single NIC still allows one flow.
        spec = NetworkSpec(n1=3, n2=3, nic_rate1=100, nic_rate2=100,
                           backbone_rate=10)
        assert spec.k == 1

    def test_mbit_constant(self):
        assert MBIT_PER_MB == 8.0


class TestValidation:
    def test_bad_sizes(self):
        with pytest.raises(ConfigError):
            NetworkSpec(n1=0, n2=1, nic_rate1=1, nic_rate2=1, backbone_rate=1)

    def test_bad_rates(self):
        with pytest.raises(ConfigError):
            NetworkSpec(n1=1, n2=1, nic_rate1=0, nic_rate2=1, backbone_rate=1)

    def test_bad_setup(self):
        with pytest.raises(ConfigError):
            NetworkSpec(n1=1, n2=1, nic_rate1=1, nic_rate2=1,
                        backbone_rate=1, step_setup=-0.1)

    def test_bad_testbed_k(self):
        with pytest.raises(ConfigError):
            NetworkSpec.paper_testbed(0)
