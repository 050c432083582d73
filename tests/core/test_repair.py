"""Unit and property tests for repro.core.repair."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import cached_schedule
from repro.core.repair import (
    RepairResult,
    TrafficDelta,
    apply_traffic_delta,
    repair_plan,
)
from repro.core.schedule import Schedule, Step, Transfer
from repro.graph.bipartite import BipartiteGraph
from repro.resilience.churn import ChurnSpec
from repro.util.errors import ConfigError
from tests.conftest import bipartite_graphs


def edges_of(graph: BipartiteGraph) -> dict[int, tuple[int, int, float]]:
    return {
        e.id: (e.left, e.right, float(e.weight)) for e in graph.edges_sorted()
    }


def plan_of(graph: BipartiteGraph, k: int = 3, beta: float = 1.0) -> Schedule:
    return cached_schedule(graph, k, beta, algorithm="oggp", cache=None)


def prefix_delivered(plan: Schedule, pos: int) -> dict[int, float]:
    return Schedule(plan.steps[:pos], plan.k, plan.beta).transferred_per_edge()


SMALL = BipartiteGraph.from_edges(
    [(0, 0, 4), (0, 1, 2), (1, 1, 3), (2, 0, 1), (2, 2, 5)]
)


class TestTrafficDelta:
    def test_bool_and_size(self):
        assert not TrafficDelta()
        delta = TrafficDelta(inject=((9, 0, 1, 2.0),), remove=(1,), resize=((2, 5.0),))
        assert delta and delta.size == 3

    def test_doc_round_trip(self):
        delta = TrafficDelta(
            inject=((9, 0, 1, 2.5),), remove=(1, 3), resize=((2, 5.0),)
        )
        assert TrafficDelta.from_doc(delta.to_doc()) == delta

    def test_doc_round_trip_int_amounts(self):
        delta = TrafficDelta(inject=((9, 0, 1, 2),), resize=((2, 5),))
        back = TrafficDelta.from_doc(delta.to_doc(), amount_kind="int")
        assert back == delta
        assert isinstance(back.inject[0][3], int)


class TestApplyTrafficDelta:
    def setup_method(self):
        self.edges = edges_of(SMALL)

    def test_inject_adds_edge(self):
        out = apply_traffic_delta(
            self.edges, {}, TrafficDelta(inject=((99, 1, 2, 7.0),))
        )
        assert out[99] == (1, 2, 7.0)
        assert 99 not in self.edges  # input never mutated

    def test_remove_keeps_delivered_prefix(self):
        out = apply_traffic_delta(
            self.edges, {0: 1.5}, TrafficDelta(remove=(0,))
        )
        assert out[0] == (0, 0, 1.5)

    def test_remove_undelivered_edge_disappears(self):
        out = apply_traffic_delta(self.edges, {}, TrafficDelta(remove=(0,)))
        assert 0 not in out

    def test_resize_clamps_to_delivered(self):
        out = apply_traffic_delta(
            self.edges, {0: 3.0}, TrafficDelta(resize=((0, 1.0),))
        )
        assert out[0] == (0, 0, 3.0)

    def test_resize_grows(self):
        out = apply_traffic_delta(
            self.edges, {}, TrafficDelta(resize=((0, 11.0),))
        )
        assert out[0] == (0, 0, 11.0)

    @pytest.mark.parametrize(
        "delta",
        [
            TrafficDelta(inject=((0, 0, 0, 1.0),)),  # id already exists
            TrafficDelta(inject=((99, 0, 0, 0.0),)),  # non-positive amount
            TrafficDelta(remove=(12345,)),  # unknown edge
            TrafficDelta(resize=((12345, 1.0),)),  # unknown edge
            TrafficDelta(resize=((0, -1.0),)),  # non-positive total
            TrafficDelta(remove=(0,), resize=((0, 2.0),)),  # targeted twice
        ],
    )
    def test_invalid_deltas_raise(self, delta):
        with pytest.raises(ConfigError):
            apply_traffic_delta(self.edges, {}, delta)


class TestRepairPlan:
    def test_clean_plan_is_noop_and_bit_identical(self):
        plan = plan_of(SMALL)
        pos = len(plan.steps) // 2
        delivered = prefix_delivered(plan, pos)
        result = repair_plan(plan, pos, delivered, edges_of(SMALL))
        assert result.mode == "noop"
        # The suffix steps are the *same objects* — provably untouched.
        assert all(
            a is b
            for a, b in zip(result.remainder.steps, plan.steps[pos:])
        )
        assert len(result.remainder.steps) == len(plan.steps) - pos

    def test_injected_edge_splices(self):
        plan = plan_of(SMALL)
        pos = 1
        delivered = prefix_delivered(plan, pos)
        edges = dict(edges_of(SMALL))
        edges[99] = (1, 0, 3.0)
        result = repair_plan(plan, pos, delivered, edges)
        assert result.mode == "splice"
        assert 99 in result.affected
        shipped = result.remainder.transferred_per_edge()
        assert shipped[99] == pytest.approx(3.0)

    def test_fault_shortfall_heals_without_any_delta(self):
        plan = plan_of(SMALL)
        pos = len(plan.steps) // 2
        delivered = prefix_delivered(plan, pos)
        # Drop part of one edge's delivery: a fault, not churn.
        victim = next(eid for eid, amt in delivered.items() if amt > 0)
        delivered[victim] -= 0.5 * delivered[victim]
        result = repair_plan(plan, pos, delivered, edges_of(SMALL))
        assert result.mode in ("splice", "fallback")
        assert victim in result.affected
        want = {
            eid: total - delivered.get(eid, 0.0)
            for eid, (_, _, total) in edges_of(SMALL).items()
        }
        shipped = result.remainder.transferred_per_edge()
        for eid, amount in want.items():
            assert shipped.get(eid, 0.0) == pytest.approx(amount)

    def test_budget_fallback(self):
        plan = plan_of(SMALL)
        edges = {
            eid: (left, right, total * 2.0)
            for eid, (left, right, total) in edges_of(SMALL).items()
        }
        result = repair_plan(plan, 0, {}, edges, max_affected_frac=0.1)
        assert result.mode == "fallback"
        assert result.reason.startswith("budget")
        assert result.spliced_cost is None  # splice never built
        assert result.full_cost == result.remainder.cost

    def test_quality_fallback(self):
        plan = plan_of(SMALL)
        pos = 1
        delivered = prefix_delivered(plan, pos)
        edges = dict(edges_of(SMALL))
        edges[99] = (1, 0, 3.0)
        result = repair_plan(
            plan, pos, delivered, edges, max_ratio=1.0, max_affected_frac=1.0
        )
        if result.mode == "fallback":  # max_ratio=1.0 is unreachable
            assert result.reason.startswith("quality")
            assert result.spliced_cost is not None

    def test_everything_removed_returns_empty_plan(self):
        plan = plan_of(SMALL)
        result = repair_plan(plan, 0, {}, {})
        # All suffix chunks dropped, nothing left to reschedule: an
        # empty splice, not a fallback.
        assert result.mode == "splice"
        assert result.remainder.steps == ()
        assert result.repair_steps == 0
        assert result.pending == {}

    def test_executed_steps_out_of_range(self):
        plan = plan_of(SMALL)
        with pytest.raises(ConfigError):
            repair_plan(plan, len(plan.steps) + 1, {}, edges_of(SMALL))
        with pytest.raises(ConfigError):
            repair_plan(plan, -1, {}, edges_of(SMALL))

    def test_bad_bounds_raise(self):
        plan = plan_of(SMALL)
        with pytest.raises(ConfigError):
            repair_plan(plan, 0, {}, edges_of(SMALL), max_ratio=0.5)
        with pytest.raises(ConfigError):
            repair_plan(plan, 0, {}, edges_of(SMALL), max_affected_frac=2.0)

    def test_clamped_dust_chunk_does_not_break_the_splice(self):
        # Edge 0 shipped 1.5 of 1.5000000000000002: its remainder is
        # clamped out of ``pending`` and its 2.2e-16 suffix chunk is
        # within tolerance, so it is not affected either.  Resizing edge
        # 1 forces a splice, which must drop that dust chunk instead of
        # failing verification on an edge with no pending traffic.
        dust = 1.5000000000000002
        plan = Schedule(
            [
                Step([Transfer(0, 0, 0, 1.5), Transfer(2, 1, 1, 1.0)]),
                Step([
                    Transfer(0, 0, 0, dust - 1.5),
                    Transfer(2, 1, 1, 1.0),
                    Transfer(3, 2, 2, 1.0),
                ]),
                Step([Transfer(1, 3, 3, 1.0)]),
            ],
            k=3,
            beta=0.5,
        )
        edges = {
            0: (0, 0, dust), 1: (3, 3, 10.0), 2: (1, 1, 2.0), 3: (2, 2, 1.0)
        }
        result = repair_plan(plan, 1, {0: 1.5, 2: 1.0}, edges)
        assert result.mode == "splice"
        assert result.affected == (1,)
        assert 0 not in result.pending
        assert result.remainder.transferred_per_edge() == {
            1: 10.0, 2: 1.0, 3: 1.0
        }

    def test_result_ratio(self):
        plan = plan_of(SMALL)
        edges = dict(edges_of(SMALL))
        edges[99] = (1, 0, 3.0)
        result = repair_plan(plan, 0, {}, edges)
        assert isinstance(result, RepairResult)
        assert result.ratio >= 1.0


@st.composite
def executed_plans(draw):
    """(plan, executed_steps, delivered, edges) of a clean partial run."""
    graph = draw(bipartite_graphs(max_side=4, max_edges=8))
    k = draw(st.integers(1, 4))
    beta = draw(st.sampled_from([0.0, 0.5, 1.0]))
    plan = cached_schedule(graph, k, beta, algorithm="oggp", cache=None)
    pos = draw(st.integers(0, len(plan.steps)))
    delivered = prefix_delivered(plan, pos)
    return plan, pos, delivered, edges_of(graph)


class TestRepairProperties:
    @given(executed_plans())
    @settings(max_examples=60, deadline=None)
    def test_empty_delta_on_clean_plan_is_noop(self, case):
        """Hypothesis: no churn + clean execution => bit-identical suffix."""
        plan, pos, delivered, edges = case
        result = repair_plan(plan, pos, delivered, edges)
        assert result.mode == "noop"
        suffix = plan.steps[pos:]
        assert len(result.remainder.steps) == len(suffix)
        assert all(a is b for a, b in zip(result.remainder.steps, suffix))
        assert result.remainder.k == plan.k
        assert result.remainder.beta == plan.beta

    @given(
        executed_plans(),
        st.integers(0, 2**31 - 1),
        st.floats(1.05, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_churned_repair_delivers_exactly_the_new_matrix(
        self, case, churn_seed, max_ratio
    ):
        """Churn-fuzz: every repaired plan verifies and ships the final traffic."""
        plan, pos, delivered, edges = case
        churn = ChurnSpec(
            seed=churn_seed,
            inject_rate=1.5,
            remove_rate=1.0,
            resize_rate=1.0,
            events=1,
        ).process()
        shape = (
            1 + max((l for l, _, _ in edges.values()), default=0),
            1 + max((r for _, r, _ in edges.values()), default=0),
        )
        delta = churn.delta_for_event(0, edges, delivered, shape=shape)
        new_edges = apply_traffic_delta(edges, delivered, delta)
        # repair_plan verifies internally (raises on a bad plan)...
        result = repair_plan(
            plan, pos, delivered, new_edges, max_ratio=max_ratio
        )
        # ...and the remainder must ship exactly the remaining traffic.
        want = {}
        for eid, (_, _, total) in new_edges.items():
            remaining = total - delivered.get(eid, 0.0)
            if remaining > 1e-9 * max(1.0, total):
                want[eid] = remaining
        shipped = result.remainder.transferred_per_edge()
        assert set(shipped) == set(want)
        for eid, amount in want.items():
            assert shipped[eid] == pytest.approx(amount)
        # 1-port invariant holds step by step (Step enforces it, but a
        # spliced plan must not have snuck duplicates past it).
        for step in result.remainder.steps:
            lefts = [t.left for t in step.transfers]
            rights = [t.right for t in step.transfers]
            assert len(set(lefts)) == len(lefts)
            assert len(set(rights)) == len(rights)
