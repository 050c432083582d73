"""Tests for the shared simulation machinery (Figs 7–9)."""

import pytest

from repro.experiments.simulation import (
    RatioPoint,
    SimulationConfig,
    measure_ratios,
)
from repro.util.errors import ConfigError

TINY = SimulationConfig(max_side=5, max_edges=10, draws=25)


class TestConfig:
    def test_defaults_match_paper_instance_sizes(self):
        c = SimulationConfig()
        assert c.max_side == 20    # up to 40 nodes total
        assert c.max_edges == 400
        assert (c.weight_low, c.weight_high) == (1, 20)

    def test_validation(self):
        with pytest.raises(ConfigError):
            SimulationConfig(draws=0)
        with pytest.raises(ConfigError):
            SimulationConfig(weight_low=5, weight_high=2)
        with pytest.raises(ConfigError):
            SimulationConfig(max_side=0)


class TestMeasureRatios:
    def test_ratios_respect_guarantee(self):
        point = measure_ratios(TINY, k=3, beta=1.0, point_index=0)
        for stats in (point.ggp, point.oggp):
            assert stats.count == TINY.draws
            assert 1.0 <= stats.min
            assert stats.max <= 2.0 + 1e-9

    def test_oggp_no_worse_on_average(self):
        point = measure_ratios(TINY, k=4, beta=1.0, point_index=1)
        assert point.oggp.mean <= point.ggp.mean + 1e-9

    def test_k1_is_optimal(self):
        point = measure_ratios(TINY, k=1, beta=1.0, point_index=2)
        assert point.ggp.max == pytest.approx(1.0)
        assert point.oggp.max == pytest.approx(1.0)

    def test_random_k_mode(self):
        point = measure_ratios(TINY, k=None, beta=2.0, point_index=3)
        assert isinstance(point, RatioPoint)
        assert point.param == 2.0  # param is beta when k is random

    def test_deterministic_given_config(self):
        a = measure_ratios(TINY, k=3, beta=1.0, point_index=7)
        b = measure_ratios(TINY, k=3, beta=1.0, point_index=7)
        assert a.ggp == b.ggp and a.oggp == b.oggp

    def test_point_index_changes_draws(self):
        a = measure_ratios(TINY, k=3, beta=1.0, point_index=1)
        b = measure_ratios(TINY, k=3, beta=1.0, point_index=2)
        assert a.ggp != b.ggp

    def test_parallel_equals_serial(self):
        serial = measure_ratios(TINY, k=3, beta=1.0, point_index=4)
        parallel = measure_ratios(
            TINY, k=3, beta=1.0, point_index=4, jobs=3
        )
        assert serial.ggp == parallel.ggp
        assert serial.oggp == parallel.oggp

    def test_jobs_zero_means_one_worker_per_cpu(self, monkeypatch):
        import os

        import repro.parallel

        sizes = []

        class Recording(repro.parallel.WorkerPool):
            def __init__(self, jobs, *args, **kwargs):
                sizes.append(jobs)
                super().__init__(jobs, *args, **kwargs)

        monkeypatch.setattr(repro.parallel, "WorkerPool", Recording)
        serial = measure_ratios(TINY, k=3, beta=1.0, point_index=4)
        assert sizes == []
        every_cpu = measure_ratios(TINY, k=3, beta=1.0, point_index=4, jobs=0)
        cpus = os.cpu_count() or 1
        assert sizes == ([cpus] if cpus > 1 else [])
        assert every_cpu == serial

    def test_negative_jobs_rejected(self):
        with pytest.raises(ConfigError, match="jobs"):
            measure_ratios(TINY, k=3, beta=1.0, point_index=4, jobs=-1)
