"""Tests for the end-to-end redistribution runner (Figs 10/11 machinery)."""

import numpy as np
import pytest

from repro.netsim.runner import (
    build_schedule,
    run_redistribution,
    uniform_traffic,
)
from repro.netsim.tcp import TcpParams
from repro.netsim.topology import NetworkSpec
from repro.util.errors import ConfigError, GraphError

FAST = TcpParams(dt=0.005)


class TestUniformTraffic:
    def test_units_are_mbit(self):
        m = uniform_traffic(0, 2, 2, 10.0, 10.0)
        assert np.allclose(m, 80.0)  # 10 MB = 80 Mbit

    def test_bounds(self):
        m = uniform_traffic(1, 5, 5, 10.0, 30.0)
        assert (m >= 80.0).all() and (m <= 240.0).all()

    def test_seeded(self):
        assert np.array_equal(uniform_traffic(3, 4, 4, 1, 2),
                              uniform_traffic(3, 4, 4, 1, 2))

    def test_invalid_range(self):
        with pytest.raises(ConfigError):
            uniform_traffic(0, 2, 2, 5.0, 1.0)


class TestBuildSchedule:
    def test_schedule_valid_for_platform(self):
        spec = NetworkSpec.paper_testbed(3, step_setup=0.01)
        traffic = uniform_traffic(0, 10, 10, 1.0, 2.0)
        for method in ("ggp", "oggp"):
            sched = build_schedule(spec, traffic, method)
            assert sched.k == 3
            assert sched.beta == 0.01
            assert sched.max_step_size <= 3


class TestBuildScheduleEngines:
    def test_vector_engine_bit_identical(self):
        spec = NetworkSpec.paper_testbed(3, step_setup=0.01)
        traffic = uniform_traffic(0, 10, 10, 1.0, 2.0)
        fast = build_schedule(spec, traffic, "oggp", cache=None)
        vec = build_schedule(spec, traffic, "oggp", cache=None, engine="vector")
        assert vec.to_dict() == fast.to_dict()

    def test_approx_engine_schedules_full_volume(self):
        spec = NetworkSpec.paper_testbed(3, step_setup=0.01)
        traffic = uniform_traffic(0, 10, 10, 1.0, 2.0)
        sched = build_schedule(spec, traffic, "oggp", cache=None, engine="approx")
        assert sched.k == 3
        assert sched.max_step_size <= 3

    def test_run_redistribution_accepts_engine(self):
        spec = NetworkSpec.paper_testbed(3, step_setup=0.01)
        traffic = uniform_traffic(0, 6, 6, 1.0, 2.0)
        outcome = run_redistribution(
            spec, traffic, "oggp", cache=None, engine="vector"
        )
        assert outcome.undelivered_mbit == 0.0


class TestRunRedistribution:
    def test_scheduled_beats_brute_force_at_scale(self):
        spec = NetworkSpec.paper_testbed(5, step_setup=0.01)
        traffic = uniform_traffic(42, 10, 10, 4.0, 10.0)
        brute = run_redistribution(spec, traffic, "bruteforce", rng=1,
                                   tcp_params=FAST)
        for method in ("ggp", "oggp"):
            out = run_redistribution(spec, traffic, method)
            assert out.total_time < brute.total_time
            assert out.schedule is not None
            assert out.num_steps == out.schedule.num_steps

    def test_scheduled_deterministic_brute_not(self):
        spec = NetworkSpec.paper_testbed(3, step_setup=0.01)
        traffic = uniform_traffic(5, 10, 10, 1.0, 3.0)
        sched_times = {
            run_redistribution(spec, traffic, "oggp", rng=s).total_time
            for s in range(3)
        }
        assert len(sched_times) == 1
        brute_times = {
            run_redistribution(spec, traffic, "bruteforce", rng=s,
                               tcp_params=FAST).total_time
            for s in range(3)
        }
        assert len(brute_times) == 3

    def test_volume_reported(self):
        spec = NetworkSpec.paper_testbed(3)
        traffic = uniform_traffic(2, 10, 10, 1.0, 1.0)
        out = run_redistribution(spec, traffic, "ggp")
        assert out.volume_mbit == pytest.approx(traffic.sum())

    def test_unknown_method(self):
        spec = NetworkSpec.paper_testbed(3)
        with pytest.raises(ConfigError):
            run_redistribution(spec, np.ones((10, 10)), "magic")  # type: ignore[arg-type]


class TestCheckpointedRedistribution:
    spec = NetworkSpec(n1=4, n2=4, nic_rate1=100.0, nic_rate2=100.0,
                       backbone_rate=100.0)

    def traffic(self):
        rng = np.random.default_rng(7)
        return rng.uniform(1, 50, size=(4, 4)) * (rng.random((4, 4)) < 0.8)

    def faults(self):
        from repro.resilience import FaultSpec

        return FaultSpec(seed=3, transfer_failure_rate=0.3).plan()

    def test_checkpoint_records_delivered_mbit(self, tmp_path):
        from repro.resilience import load_checkpoint

        traffic = self.traffic()
        out = run_redistribution(
            self.spec, traffic, "oggp", rng=1, faults=self.faults(),
            checkpoint=tmp_path,
        )
        assert out.undelivered_mbit == 0.0
        state = load_checkpoint(tmp_path)
        assert state.complete
        assert state.meta.amount_kind == "float"
        assert state.meta.extra["engine"] == "netsim"
        assert state.meta.extra["shape"] == [4, 4]
        assert sum(state.delivered.values()) == pytest.approx(traffic.sum())

    def test_resume_finishes_partial_run(self, tmp_path):
        from repro.netsim.runner import resume_redistribution
        from repro.resilience import RetryPolicy, load_checkpoint

        traffic = self.traffic()
        short = RetryPolicy(max_attempts=1, backoff_base=0.0, jitter=0.0)
        partial = run_redistribution(
            self.spec, traffic, "oggp", rng=1, faults=self.faults(),
            retry=short, checkpoint=tmp_path,
        )
        assert partial.undelivered_mbit > 0
        assert load_checkpoint(tmp_path).next_round == 1
        out = resume_redistribution(
            self.spec, tmp_path, rng=1, faults=self.faults()
        )
        assert out.undelivered_mbit == 0.0
        assert out.volume_mbit == pytest.approx(traffic.sum())
        state = load_checkpoint(tmp_path)
        assert state.complete
        assert sum(state.delivered.values()) == pytest.approx(traffic.sum())

    def test_resume_of_complete_run_is_a_noop(self, tmp_path):
        from repro.netsim.runner import resume_redistribution

        run_redistribution(
            self.spec, self.traffic(), "oggp", rng=1, checkpoint=tmp_path
        )
        out = resume_redistribution(self.spec, tmp_path)
        assert out.num_steps == 0
        assert out.total_time == 0.0
        assert out.undelivered_mbit == 0.0

    def test_bruteforce_rejects_checkpoint(self, tmp_path):
        with pytest.raises(ConfigError, match="bruteforce"):
            run_redistribution(
                self.spec, self.traffic(), "bruteforce", checkpoint=tmp_path
            )

    def test_resume_rejects_platform_mismatch(self, tmp_path):
        from repro.netsim.runner import resume_redistribution

        run_redistribution(
            self.spec, self.traffic(), "oggp", rng=1, checkpoint=tmp_path
        )
        other = NetworkSpec(n1=4, n2=4, nic_rate1=100.0, nic_rate2=100.0,
                            backbone_rate=100.0, step_setup=0.5)
        assert other.step_setup != self.spec.step_setup
        with pytest.raises(ConfigError, match="mismatch"):
            resume_redistribution(other, tmp_path)

    def test_resume_rejects_foreign_checkpoint(self, tmp_path):
        from repro.netsim.runner import resume_redistribution
        from repro.resilience import CheckpointStore, RunMeta

        with CheckpointStore(tmp_path) as store:
            store.begin(RunMeta(
                edges={0: (0, 0, 100)}, k=self.spec.k,
                beta=self.spec.step_setup, method="oggp",
                extra={"engine": "runtime"},
            ))
        with pytest.raises(ConfigError, match="engine"):
            resume_redistribution(self.spec, tmp_path)


BAD_TRAFFIC = {
    "negative": [[5.0, -1.0], [2.0, 3.0]],
    "nan": [[5.0, float("nan")], [2.0, 3.0]],
    "inf": [[5.0, float("inf")], [2.0, 3.0]],
    "1-D": [5.0, 1.0, 2.0],
}


class TestTrafficValidation:
    """Every path checks the matrix before it opens a journal."""

    spec = NetworkSpec(n1=2, n2=2, nic_rate1=10.0, nic_rate2=10.0,
                       backbone_rate=10.0)

    @pytest.mark.parametrize("path", ["plain", "churn", "checkpoint"])
    @pytest.mark.parametrize("bad", sorted(BAD_TRAFFIC))
    def test_rejected_before_any_journal(self, tmp_path, bad, path):
        from repro.resilience import ChurnSpec

        ckdir = tmp_path / "ck"
        kwargs = {}
        if path == "churn":
            churn = ChurnSpec(seed=1, inject_rate=1, events=2).process()
            kwargs = {"churn": churn, "checkpoint": ckdir}
        elif path == "checkpoint":
            kwargs = {"checkpoint": ckdir}
        with pytest.raises(GraphError):
            run_redistribution(
                self.spec, np.array(BAD_TRAFFIC[bad]), "oggp", **kwargs
            )
        assert not (ckdir / "journal.kpbj").exists()
