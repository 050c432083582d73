"""Barrier-synchronised execution of a K-PBS schedule.

Mirrors the structure of the paper's MPI implementation (§5.2): every
cluster-1 node runs a loop of *steps*; in each step it performs at most
one synchronous send (its transfer of the step's matching, if any), then
waits at a barrier before the next step.  The per-step setup delay β
covers the barrier and socket (re)establishment.  A step therefore ends
when its slowest sender does, at ``start + β + max(work)``, and the
clock is advanced step by step in exactly that arithmetic — no event
queue is needed for a run whose every sender waits at the same barrier.

Because the schedule's steps are matchings with at most ``k`` transfers
and ``k·t ≤ T``, the fluid fair-share allocation gives every transfer
the full per-flow rate ``t = min(t1, t2)`` — no congestion, which is the
entire point of application-level scheduling.  The executor still runs
the allocator, so malformed schedules (oversubscribed steps) are
simulated honestly rather than idealised.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro import obs
from repro.core.schedule import Schedule
from repro.netsim.fairshare import FlowDemand, max_min_fair_rates
from repro.netsim.topology import NetworkSpec
from repro.resilience.faults import (
    FaultPlan,
    count_fault,
    count_planned_faults,
    planned_transfer_faults,
)
from repro.util.errors import SimulationError
from repro.util.rng import RngStream, derive_rng


@dataclass(frozen=True)
class StepwiseResult:
    """Outcome of a scheduled run.

    ``total_time`` includes every per-step setup delay;
    ``step_durations`` excludes them (pure transfer time per step).

    Under fault injection, ``delivered`` maps each edge id to the amount
    (in schedule units, before ``volume_scale``) that actually arrived,
    ``failed`` maps each faulted edge to its ``(step, kind)``, and
    ``degraded_steps`` lists the steps that ran on a degraded backbone.
    """

    total_time: float
    step_durations: list[float]
    num_steps: int
    setup_total: float
    delivered: dict[int, float] = field(default_factory=dict)
    failed: dict[int, tuple[int, str]] = field(default_factory=dict)
    degraded_steps: tuple[int, ...] = ()


def simulate_schedule(
    spec: NetworkSpec,
    schedule: Schedule,
    volume_scale: float = 1.0,
    rng: RngStream | int | None = None,
    rate_jitter: float = 0.0,
    faults: FaultPlan | None = None,
    fault_round: int = 0,
) -> StepwiseResult:
    """Execute ``schedule`` on the simulated platform.

    ``schedule`` transfer amounts are volumes in Mbit after multiplying
    by ``volume_scale`` (use 1.0 when the schedule was built from a
    traffic matrix already expressed in Mbit).

    ``rate_jitter`` optionally perturbs each transfer's achieved rate by
    a uniform relative factor — the "random perturbations on the
    network" the paper speculates about; 0 reproduces the deterministic
    behaviour the paper measured.

    ``faults`` injects deterministic failures: a *failed* transfer drops
    out of its step instantly (freeing its bandwidth share); a *stalled*
    transfer occupies its slot for the full would-be duration but
    delivers nothing; either way the edge's later chunks are skipped
    (connection lost, the residual is left to the recovery layer).
    Steps the plan degrades run with the backbone at
    ``link_degradation_factor`` of its rate.
    """
    if volume_scale <= 0:
        raise SimulationError(f"volume_scale must be positive, got {volume_scale}")
    if not (0 <= rate_jitter < 1):
        raise SimulationError(f"rate_jitter must be in [0, 1), got {rate_jitter}")
    rng = derive_rng(rng)

    failed_at = planned_transfer_faults(schedule, faults, fault_round)
    count_planned_faults(failed_at)

    delivered: dict[int, float] = {}
    degraded_steps: list[int] = []
    # Pre-compute each step's per-transfer rates and sender work lists.
    step_plans: list[dict[int, float]] = []  # sender -> transfer seconds
    for step_index, step in enumerate(schedule.steps):
        active = []  # transfers that consume bandwidth this step
        for t in step.transfers:
            delivered.setdefault(t.edge_id, 0.0)
            fault = failed_at.get(t.edge_id)
            if fault is None or step_index < fault[0]:
                active.append((t, True))  # healthy: counts and delivers
            elif step_index == fault[0] and fault[1] == "stall":
                active.append((t, False))  # stalled: burns time, no bytes
            # failed (or post-fault) transfers drop out entirely
        flows = [FlowDemand(t.left, t.right) for t, _ in active]
        for f in flows:
            if not (0 <= f.src < spec.n1) or not (0 <= f.dst < spec.n2):
                raise SimulationError(
                    f"transfer {f.src}->{f.dst} outside clusters "
                    f"({spec.n1}, {spec.n2})"
                )
        step_spec = spec
        if faults is not None:
            factor = faults.link_factor(fault_round, step_index)
            if factor < 1.0:
                degraded_steps.append(step_index)
                step_spec = replace(
                    spec, backbone_rate=spec.backbone_rate * factor
                )
        rates = max_min_fair_rates(step_spec, flows)
        plan: dict[int, float] = {}
        for (t, delivers), rate in zip(active, rates):
            if rate <= 0:
                raise SimulationError(f"zero rate for transfer {t.left}->{t.right}")
            if rate_jitter:
                rate *= 1.0 - rate_jitter * float(rng.random())
            plan[t.left] = (t.amount * volume_scale) / rate
            if delivers:
                delivered[t.edge_id] += t.amount
        step_plans.append(plan)
    count_fault("link_degradation", len(degraded_steps))

    # Every sender starts a step after the setup delay and waits at the
    # barrier, so the step ends with its slowest sender (or after the
    # setup alone when no transfer runs).
    now = 0.0
    step_durations: list[float] = []
    with obs.phase(
        "netsim.stepwise", steps=len(step_plans), parties=spec.n1, k=spec.k
    ):
        for plan in step_plans:
            start = now + spec.step_setup
            end = max((start + work for work in plan.values()), default=start)
            step_durations.append(end - now - spec.step_setup)
            now = end

    metrics = obs.metrics()
    metrics.counter("netsim.runs").inc()
    metrics.counter("netsim.steps").inc(len(step_plans))
    step_hist = metrics.histogram("netsim.step_duration")
    flows_hist = metrics.histogram("netsim.step_flows")
    util_hist = metrics.histogram("netsim.backbone_utilization")
    k = spec.k
    for plan, duration in zip(step_plans, step_durations):
        step_hist.observe(duration)
        flows_hist.observe(len(plan))
        util_hist.observe(len(plan) / k)
    metrics.gauge("netsim.total_time").set(now)

    return StepwiseResult(
        total_time=now,
        step_durations=step_durations,
        num_steps=len(step_plans),
        setup_total=spec.step_setup * len(step_plans),
        delivered=delivered,
        failed=dict(failed_at),
        degraded_steps=tuple(degraded_steps),
    )
