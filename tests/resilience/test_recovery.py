"""Residual-graph construction and degraded-backbone k reduction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import oggp
from repro.core.cache import ScheduleCache
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    recovery_k,
    residual_graph_from_amounts,
)
from repro.util.errors import ConfigError


class TestResidualGraph:
    def test_builds_edges_in_ascending_orig_id_order(self):
        pending = {7: (0, 1, 3.0), 2: (1, 0, 5.0), 4: (0, 0, 1.0)}
        graph, mapping = residual_graph_from_amounts(pending)
        assert graph.num_edges == 3
        # new ids assigned in ascending original-id order
        ordered = [mapping[e.id] for e in graph.edges()]
        assert sorted(mapping.values()) == [2, 4, 7]
        assert ordered == sorted(ordered)
        for edge in graph.edges():
            left, right, remaining = pending[mapping[edge.id]]
            assert (edge.left, edge.right) == (left, right)
            assert edge.weight == remaining

    def test_deterministic_regardless_of_dict_order(self):
        a = {1: (0, 0, 2.0), 9: (1, 1, 4.0), 5: (0, 1, 3.0)}
        b = dict(reversed(list(a.items())))
        ga, ma = residual_graph_from_amounts(a)
        gb, mb = residual_graph_from_amounts(b)
        assert ma == mb
        assert [
            (e.left, e.right, e.weight) for e in ga.edges()
        ] == [(e.left, e.right, e.weight) for e in gb.edges()]

    def test_empty_pending_gives_empty_graph(self):
        graph, mapping = residual_graph_from_amounts({})
        assert graph.num_edges == 0
        assert mapping == {}

    @pytest.mark.parametrize("bad", [0, -1.5])
    def test_nonpositive_residual_rejected(self, bad):
        with pytest.raises(ConfigError, match="must be positive"):
            residual_graph_from_amounts({3: (0, 0, bad)})

    def test_residual_is_schedulable(self):
        pending = {10: (0, 0, 4.0), 11: (0, 1, 2.0), 12: (1, 0, 3.0)}
        graph, _ = residual_graph_from_amounts(pending)
        schedule = oggp(graph, k=2, beta=1.0)
        schedule.validate(graph)

    @given(
        amounts=st.dictionaries(
            st.integers(0, 100),
            st.tuples(
                st.integers(0, 4),
                st.integers(0, 4),
                st.floats(0.1, 50.0),
            ),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_total_residual_weight_preserved(self, amounts):
        graph, mapping = residual_graph_from_amounts(amounts)
        assert graph.num_edges == len(amounts)
        assert sum(e.weight for e in graph.edges()) == pytest.approx(
            sum(v[2] for v in amounts.values())
        )
        assert set(mapping.values()) == set(amounts)


class TestRecoveryK:
    def _plan(self, factor):
        return FaultPlan(
            FaultSpec(link_degradation_rate=0.5, link_degradation_factor=factor)
        )

    def test_healthy_backbone_keeps_k(self):
        assert recovery_k(6, self._plan(0.5), degraded=False) == 6

    def test_no_plan_keeps_k(self):
        assert recovery_k(6, None, degraded=True) == 6

    def test_degraded_scales_by_factor(self):
        assert recovery_k(6, self._plan(0.5), degraded=True) == 3
        assert recovery_k(10, self._plan(0.25), degraded=True) == 2

    def test_never_below_one(self):
        assert recovery_k(1, self._plan(0.1), degraded=True) == 1
        assert recovery_k(3, self._plan(0.1), degraded=True) == 1

    def test_invalid_k_rejected(self):
        with pytest.raises(ConfigError, match="k must be >= 1"):
            recovery_k(0, None, degraded=False)


class TestResumeRun:
    def make_checkpoint(self, tmp_path, *, complete=False):
        from repro.resilience import CheckpointStore, RunMeta

        meta = RunMeta(
            edges={0: (0, 0, 100), 1: (0, 1, 50), 2: (1, 0, 75)},
            k=2, beta=1.0, method="oggp",
        )
        with CheckpointStore(tmp_path) as store:
            store.begin(meta)
            if complete:
                store.record_round({0: 100, 1: 50, 2: 75}, round_index=0)
                store.mark_complete()
            else:
                store.record_round({0: 60, 1: 50}, round_index=0)
        return meta

    def test_rebuilds_residual_of_undelivered(self, tmp_path):
        from repro.resilience import resume_run

        self.make_checkpoint(tmp_path)
        state = resume_run(tmp_path)
        assert not state.complete
        assert state.delivered == {0: 60, 1: 50, 2: 0}
        assert state.checkpoint.next_round == 1
        residual = {
            state.id_map[e.id]: (e.left, e.right, e.weight)
            for e in state.residual.edges()
        }
        assert residual == {0: (0, 0, 40), 2: (1, 0, 75)}

    def test_complete_run_has_empty_residual(self, tmp_path):
        from repro.resilience import resume_run

        self.make_checkpoint(tmp_path, complete=True)
        state = resume_run(tmp_path)
        assert state.complete
        assert state.residual.num_edges == 0
        assert state.id_map == {}

    def test_residual_schedules_like_a_recovery_round(self, tmp_path):
        from repro.resilience import resume_run, verify_recovery_schedule

        self.make_checkpoint(tmp_path)
        state = resume_run(tmp_path)
        schedule = oggp(state.residual, k=2, beta=1.0)
        verify_recovery_schedule(state.residual, schedule)

    def test_records_resume_timer(self, tmp_path):
        from repro import obs
        from repro.resilience import resume_run

        self.make_checkpoint(tmp_path)
        with obs.observed() as (registry, _):
            resume_run(tmp_path)
            snap = registry.snapshot()
        assert "checkpoint.resume" in snap
        assert "checkpoint.load" in snap


class TestVerifyRecoverySchedule:
    def test_valid_schedule_passes(self):
        from repro.resilience import verify_recovery_schedule

        pending = {3: (0, 0, 4.0), 8: (1, 1, 2.0)}
        graph, _ = residual_graph_from_amounts(pending)
        verify_recovery_schedule(graph, oggp(graph, k=2, beta=1.0))

    def test_under_coverage_rejected_with_summary(self):
        from repro.core.schedule import Schedule
        from repro.resilience import verify_recovery_schedule

        pending = {3: (0, 0, 4.0), 8: (1, 1, 2.0)}
        graph, _ = residual_graph_from_amounts(pending)
        empty = Schedule([], k=2, beta=1.0)
        with pytest.raises(ConfigError, match="failed verification"):
            verify_recovery_schedule(graph, empty)

    def test_wrong_graph_rejected(self):
        from repro.resilience import verify_recovery_schedule

        graph_a, _ = residual_graph_from_amounts({0: (0, 0, 4.0)})
        graph_b, _ = residual_graph_from_amounts({0: (0, 0, 9.0)})
        schedule = oggp(graph_a, k=2, beta=1.0)
        with pytest.raises(ConfigError, match="failed verification"):
            verify_recovery_schedule(graph_b, schedule)


class _HalfCache(ScheduleCache):
    """A schedule cache whose every answer ships half of each edge."""

    def _get(self, canonical, k, beta, algorithm):
        from repro.core.schedule import Schedule, Step, Transfer

        signature, ids = canonical
        return Schedule(
            [
                Step([Transfer(eid, left, right, weight / 2)])
                for (left, right, weight, _), eid in zip(signature, ids)
            ],
            k=k,
            beta=beta,
        )


class TestFirstPlanVerified:
    """The first round of a faults-only run is verified like the rest."""

    def test_netsim(self):
        import numpy as np

        from repro.netsim import NetworkSpec, run_redistribution

        spec = NetworkSpec(n1=2, n2=2, nic_rate1=10.0, nic_rate2=10.0,
                           backbone_rate=20.0)
        with pytest.raises(ConfigError, match="failed verification"):
            run_redistribution(
                spec, np.array([[4.0, 1.0], [2.0, 3.0]]), "oggp",
                cache=_HalfCache(),
            )

    def test_runtime(self):
        from repro.runtime import LocalCluster, schedule_and_run_resilient
        from repro.runtime.seeded import transfer_case

        graph, payloads, destinations = transfer_case(1, 2, 2, 64)
        cluster = LocalCluster(2, 2, nic_rate1=1e9, nic_rate2=1e9,
                               backbone_rate=1e9)
        with pytest.raises(ConfigError, match="failed verification"):
            schedule_and_run_resilient(
                cluster, graph, 2, 1.0, payloads, destinations,
                cache=_HalfCache(),
            )
