"""Tests for the Step/Schedule model and its validation."""

import pytest

from repro.core.schedule import Schedule, Step, Transfer
from repro.graph.bipartite import BipartiteGraph
from repro.util.errors import ScheduleError


def simple_schedule() -> tuple[BipartiteGraph, Schedule]:
    g = BipartiteGraph.from_edges([(0, 0, 4), (1, 1, 3)])
    e0, e1 = g.edges_sorted()
    steps = [
        Step([Transfer(e0.id, 0, 0, 3.0), Transfer(e1.id, 1, 1, 3.0)]),
        Step([Transfer(e0.id, 0, 0, 1.0)]),
    ]
    return g, Schedule(steps, k=2, beta=1.0)


class TestStep:
    def test_duration_defaults_to_max_amount(self):
        s = Step([Transfer(0, 0, 0, 2.0), Transfer(1, 1, 1, 5.0)])
        assert s.duration == 5.0
        assert s.volume() == 7.0
        assert len(s) == 2

    def test_explicit_duration_may_exceed(self):
        s = Step([Transfer(0, 0, 0, 2.0)], duration=3.0)
        assert s.duration == 3.0

    def test_duration_below_max_rejected(self):
        with pytest.raises(ScheduleError):
            Step([Transfer(0, 0, 0, 2.0)], duration=1.0)

    def test_one_port_sender_violation(self):
        with pytest.raises(ScheduleError):
            Step([Transfer(0, 0, 0, 1.0), Transfer(1, 0, 1, 1.0)])

    def test_one_port_receiver_violation(self):
        with pytest.raises(ScheduleError):
            Step([Transfer(0, 0, 0, 1.0), Transfer(1, 1, 0, 1.0)])

    def test_nonpositive_amount_rejected(self):
        with pytest.raises(ScheduleError):
            Step([Transfer(0, 0, 0, 0.0)])

    def test_serialization_roundtrip(self):
        s = Step([Transfer(3, 1, 2, 4.5)], duration=5.0)
        restored = Step.from_dict(s.to_dict())
        assert restored.duration == 5.0
        assert restored.transfers[0] == Transfer(3, 1, 2, 4.5)

    def test_edge_ids(self):
        s = Step([Transfer(3, 1, 2, 4.5), Transfer(7, 0, 0, 1.0)])
        assert s.edge_ids() == {3, 7}


class TestScheduleMetrics:
    def test_cost_decomposition(self):
        _, sched = simple_schedule()
        assert sched.num_steps == 2
        assert sched.transmission_time == 4.0
        assert sched.setup_time == 2.0
        assert sched.cost == 6.0
        assert sum(sched.transferred_per_edge().values()) == 7.0
        assert sched.max_step_size == 2

    def test_empty_schedule(self):
        s = Schedule([], k=1, beta=2.0)
        assert s.cost == 0.0
        assert s.num_steps == 0
        s.validate(BipartiteGraph())

    def test_transferred_per_edge(self):
        _, sched = simple_schedule()
        totals = sched.transferred_per_edge()
        assert sorted(totals.values()) == [3.0, 4.0]

    def test_invalid_params(self):
        with pytest.raises(ScheduleError):
            Schedule([], k=0, beta=0.0)
        with pytest.raises(ScheduleError):
            Schedule([], k=1, beta=-1.0)


class TestValidation:
    def test_valid_schedule_passes(self):
        g, sched = simple_schedule()
        sched.validate(g)

    def test_k_violation(self):
        g, _ = simple_schedule()
        e0, e1 = g.edges_sorted()
        steps = [
            Step([Transfer(e0.id, 0, 0, 4.0), Transfer(e1.id, 1, 1, 3.0)]),
        ]
        with pytest.raises(ScheduleError, match="exceeds k"):
            Schedule(steps, k=1, beta=0.0).validate(g)

    def test_under_delivery_detected(self):
        g, _ = simple_schedule()
        e0, e1 = g.edges_sorted()
        steps = [Step([Transfer(e0.id, 0, 0, 4.0)])]  # e1 never shipped
        with pytest.raises(ScheduleError, match="shipped"):
            Schedule(steps, k=2, beta=0.0).validate(g)

    def test_over_delivery_detected(self):
        g, _ = simple_schedule()
        e0, e1 = g.edges_sorted()
        steps = [
            Step([Transfer(e0.id, 0, 0, 4.0), Transfer(e1.id, 1, 1, 3.0)]),
            Step([Transfer(e0.id, 0, 0, 1.0)]),
        ]
        with pytest.raises(ScheduleError, match="shipped"):
            Schedule(steps, k=2, beta=0.0).validate(g)

    def test_unknown_edge_detected(self):
        g, _ = simple_schedule()
        steps = [Step([Transfer(999, 0, 0, 1.0)])]
        with pytest.raises(ScheduleError, match="unknown edge"):
            Schedule(steps, k=2, beta=0.0).validate(g)

    def test_wrong_endpoints_detected(self):
        g, _ = simple_schedule()
        e0, e1 = g.edges_sorted()
        steps = [
            Step([Transfer(e0.id, 0, 1, 4.0)]),  # e0 really goes 0->0
            Step([Transfer(e1.id, 1, 1, 3.0)]),
        ]
        with pytest.raises(ScheduleError, match="disagree"):
            Schedule(steps, k=2, beta=0.0).validate(g)


class TestSerializationAndDisplay:
    def test_json_roundtrip(self):
        g, sched = simple_schedule()
        restored = Schedule.from_json(sched.to_json())
        assert restored.cost == sched.cost
        assert restored.k == sched.k
        restored.validate(g)

    def test_describe_mentions_steps(self):
        _, sched = simple_schedule()
        text = sched.describe()
        assert "2 steps" in text
        assert "step 0" in text and "step 1" in text

    def test_repr(self):
        _, sched = simple_schedule()
        assert "cost=6" in repr(sched)

    def test_iteration(self):
        _, sched = simple_schedule()
        assert len(list(sched)) == 2
