"""Live-churn redistribution and the netsim backend of the round loop.

The simulated counterpart of a redistribution that has to keep up with
a *moving* traffic matrix: the plan is executed ``segment_steps`` steps
at a time, and between segments a seeded
:class:`~repro.resilience.churn.ChurnProcess` injects, removes and
resizes cells.  Each churn batch (and each fault shortfall) is healed
by :func:`~repro.core.repair.repair_plan`: the unexecuted suffix of
the in-flight plan is kept for unaffected edges and only the affected
remainder is rescheduled and spliced in — falling back to a full
reschedule when the repair budget or quality bound says so.

With a :class:`~repro.resilience.CheckpointStore`, every applied churn
delta, every plan change and every executed segment is journalled, so
a SIGKILL'd run resumed by :func:`resume_redistribution_churn`
replays the *same* trajectory — same plans, same churn draws, same
per-round deliveries — and ends bit-identical to an uninterrupted run.

The rounds themselves are the shared round loop's
(:func:`repro.resilience.recovery._drive`); this module supplies its
netsim backend, which moves Mbit through
:func:`~repro.netsim.stepwise.simulate_schedule` and is also what
:func:`repro.netsim.runner.run_redistribution` runs its fault-recovery
rounds on.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Literal, Mapping

import numpy as np

from repro.core.cache import DEFAULT_SCHEDULE_CACHE, ScheduleCache
from repro.core.repair import validate_repair_bounds
from repro.core.schedule import Schedule
from repro.graph.generators import _traffic_array, from_traffic_matrix
from repro.netsim.stepwise import simulate_schedule
from repro.netsim.topology import NetworkSpec
from repro.resilience.churn import ChurnProcess
from repro.resilience.faults import FaultPlan
from repro.resilience.journal import CheckpointStore
from repro.resilience.recovery import (
    _drive,
    _opened,
    _Run,
    _Segment,
    residual_graph_from_amounts,
)
from repro.resilience.retry import RetryPolicy
from repro.util.errors import ConfigError, GraphError

# perfbench/tracing.py wraps these names in this module.
from repro.core.repair import repair_plan  # noqa: F401
from repro.resilience.recovery import verify_recovery_schedule  # noqa: F401

__all__ = [
    "ChurnOutcome",
    "run_redistribution_churn",
    "resume_redistribution_churn",
    "delivered_digest",
]

#: Relative tolerance for "this edge is done" in Mbit space.
_DUST = 1e-9


@dataclass(frozen=True)
class ChurnOutcome:
    """Result of a live-churn redistribution run.

    ``edges`` is the *final* traffic (after all churn) as ``edge_id ->
    (left, right, total_mbit)`` and ``delivered`` the final delivered
    Mbit per edge (snapped to the exact total for completed edges, so
    two trajectories that both finish agree bit-for-bit).  ``splices``
    / ``fallbacks`` / ``noops`` count the repair outcomes,
    ``fresh_builds`` the from-scratch schedules (the initial plan, and
    a resumed run's rebuild when no plan record survived).  ``history``
    holds one dict per executed round for reporting.
    """

    method: str
    total_time: float
    num_steps: int
    rounds: int
    churn_events: int
    churn_ops: int
    splices: int
    fallbacks: int
    noops: int
    fresh_builds: int
    repair_seconds: float
    volume_mbit: float
    undelivered_mbit: float
    complete: bool
    edges: Mapping[int, tuple[int, int, float]]
    delivered: Mapping[int, float]
    history: tuple[dict, ...] = field(default_factory=tuple)


def delivered_digest(
    edges: Mapping[int, tuple[int, int, float]],
    delivered: Mapping[int, float],
) -> str:
    """SHA-256 over the exact per-edge delivered amounts.

    Keyed by ``edge_id:left:right:repr(amount)`` in ascending edge
    order — ``repr`` round-trips floats exactly, so two runs agree iff
    their delivered states are bit-identical.
    """
    h = hashlib.sha256()
    for eid in sorted(edges):
        left, right, _total = edges[eid]
        amount = delivered.get(eid, 0.0)
        h.update(f"{eid}:{left}:{right}:{amount!r}\n".encode("utf-8"))
    return h.hexdigest()


def _cell_edges(traffic) -> dict[int, tuple[int, int, float]]:
    """Stable edge labelling of a traffic matrix's positive cells.

    Row-major, so the same matrix always yields the same edge ids — the
    ids the checkpoint journal is keyed by, and the ids
    :func:`~repro.graph.generators.from_traffic_matrix` gives its edges.
    """
    arr = _traffic_array(traffic)
    cells = zip(*np.nonzero(arr > 0))
    return {
        eid: (int(i), int(j), float(arr[i, j])) for eid, (i, j) in enumerate(cells)
    }


@dataclass
class _Netsim:
    """The round loop's netsim backend: Mbit over the simulated platform.

    A splice run (live churn) schedules pending Mbit as seconds at the
    per-flow rate and reports each segment's landed Mbit; a rebuild run
    schedules the residual traffic *matrix* whole, as the initial
    traffic was scheduled, and reports what each faulted edge left
    undelivered: (scheduled − delivered) × flow rate.
    """

    name, unit, kind = "netsim", "mbit", "float"

    spec: NetworkSpec
    shape: tuple[int, int]
    splice: bool
    rng: object
    rate_jitter: float
    faults: FaultPlan | None

    @property
    def dust(self) -> float:
        # A rebuild run drops what its checkpoint reader calls dust; a
        # splice run snaps edges within _DUST of their totals.
        return _DUST if self.splice else 1e-12

    @property
    def rate(self) -> float:
        return self.spec.flow_rate

    def pause(self, seconds: float) -> None:
        """Simulated time: a retry backoff costs no wall clock."""

    def churned(self, delta, round_index: int, edges: Mapping) -> None:
        """Mbit totals live in the ledger alone."""

    def matrix(self, pending: Mapping) -> np.ndarray:
        """The pending Mbit as a traffic matrix of the run's shape."""
        out = np.zeros(self.shape, dtype=float)
        for left, right, remaining in pending.values():
            out[left, right] = remaining
        return out

    def graph(self, pending: Mapping):
        flow = self.spec.flow_rate
        if self.splice:
            return residual_graph_from_amounts(
                {
                    eid: (left, right, remaining / flow)
                    for eid, (left, right, remaining) in pending.items()
                }
            )
        # Row-major cells are ascending ledger ids.
        graph = from_traffic_matrix(self.matrix(pending), speed=flow)
        return graph, dict(enumerate(sorted(pending)))

    def run_segment(self, schedule: Schedule, round_index: int, ids) -> _Segment:
        flow = self.spec.flow_rate
        result = simulate_schedule(
            self.spec, schedule, volume_scale=flow, rng=self.rng,
            rate_jitter=self.rate_jitter, faults=self.faults,
            fault_round=round_index,
        )
        moved = left = None
        if ids is None:
            moved = {eid: amount * flow for eid, amount in result.delivered.items()}
        else:
            scheduled: dict[int, float] = {}
            for step in schedule.steps:
                for t in step.transfers:
                    scheduled[t.edge_id] = scheduled.get(t.edge_id, 0.0) + t.amount
            left = {}
            for eid in result.failed:
                remaining = scheduled[eid] - result.delivered.get(eid, 0.0)
                if remaining > 1e-12 * max(scheduled[eid], 1.0):
                    left[ids[eid]] = remaining * flow
        return _Segment(
            moved=moved, failed=bool(result.failed),
            degraded=bool(result.degraded_steps), steps=result.num_steps,
            seconds=result.total_time, report=result, left=left,
        )


def _restored(
    store: CheckpointStore, spec: NetworkSpec, engine: str
) -> tuple[int, int]:
    """Check a reopened netsim journal against ``spec``; its matrix shape."""
    state = store.state
    meta = state.meta
    if meta.extra.get("engine") != engine:
        raise ConfigError(
            f"checkpoint was not written by a {engine} run "
            f"(engine={meta.extra.get('engine')!r})"
        )
    if meta.k != spec.k or meta.beta != spec.step_setup:
        raise ConfigError(
            f"platform mismatch: checkpoint recorded k={meta.k}, "
            f"beta={meta.beta}; spec has k={spec.k}, "
            f"beta={spec.step_setup}"
        )
    shape = meta.extra.get("shape")
    if (
        not isinstance(shape, list)
        or len(shape) != 2
        or not all(isinstance(n, int) and n > 0 for n in shape)
    ):
        raise GraphError(f"checkpoint metadata has no valid shape: {shape!r}")
    for eid, (left, right, _total) in state.edges.items():
        if not (0 <= left < shape[0] and 0 <= right < shape[1]):
            raise GraphError(
                f"checkpoint edge {eid} endpoint ({left}, {right}) "
                f"outside the recorded {shape[0]}x{shape[1]} matrix"
            )
    return shape[0], shape[1]


def _outcome(method: str, run: _Run) -> ChurnOutcome:
    undelivered = sum(remaining for _, _, remaining in run.pending.values())
    return ChurnOutcome(
        method=method,
        total_time=run.seconds(),
        num_steps=run.steps(),
        rounds=len(run.rounds),
        churn_events=run.churn_events,
        churn_ops=run.churn_ops,
        splices=run.splices,
        fallbacks=run.fallbacks,
        noops=run.noops,
        fresh_builds=run.fresh_builds,
        repair_seconds=run.repair_seconds,
        volume_mbit=float(sum(t for _, _, t in run.edges.values())),
        undelivered_mbit=float(undelivered),
        complete=undelivered == 0.0,
        edges=dict(run.edges),
        delivered=dict(run.delivered),
        history=tuple(
            {
                "round": rd.index,
                "mode": rd.mode,
                "churn": rd.churn,
                "steps": rd.segment.steps,
                "sim_seconds": rd.segment.seconds,
                "failed": len(rd.segment.report.failed),
            }
            for rd in run.rounds
        ),
    )


def run_redistribution_churn(
    spec: NetworkSpec,
    traffic_mbit: np.ndarray,
    method: Literal["ggp", "oggp"],
    churn: ChurnProcess,
    *,
    segment_steps: int = 4,
    rng=None,
    rate_jitter: float = 0.0,
    cache: ScheduleCache | None = DEFAULT_SCHEDULE_CACHE,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
    checkpoint: CheckpointStore | str | os.PathLike | None = None,
    engine: str = "fast",
    max_ratio: float = 1.5,
    max_affected_frac: float = 0.5,
) -> ChurnOutcome:
    """Redistribute ``traffic_mbit`` while its cells churn live.

    The initial matrix is scheduled as usual; then, every
    ``segment_steps`` executed steps, churn event ``r`` (one per round,
    up to the spec's horizon) mutates the traffic and the in-flight
    plan is splice-repaired — or fully rescheduled when the repair
    budget (``max_affected_frac``) or quality bound (``max_ratio``
    times the residual lower bound) is exceeded.  Transfer faults
    compose freely: a failed segment's shortfall is healed by the same
    repair call.  ``retry`` bounds the number of faulted segments the
    run tolerates (default 8 attempts).

    ``checkpoint`` (a store or directory) journals churn deltas, plan
    changes and per-segment deliveries; resume with
    :func:`resume_redistribution_churn`.
    """
    if method not in ("ggp", "oggp"):
        raise ConfigError(f"churn runs need a schedule; got method {method!r}")
    if segment_steps < 1:
        raise ConfigError(f"segment_steps must be >= 1, got {segment_steps}")
    validate_repair_bounds(max_ratio, max_affected_frac)
    traffic = np.asarray(traffic_mbit, dtype=float)
    edges = _cell_edges(traffic)
    if not edges:
        raise ConfigError("traffic matrix has no positive cells")
    shape = (int(traffic.shape[0]), int(traffic.shape[1]))
    with _opened(checkpoint) as store:
        run = _drive(
            _Netsim(spec, shape, True, rng, rate_jitter, faults), store,
            edges, {eid: 0.0 for eid in edges},
            extra={"engine": "netsim-churn", "shape": list(shape),
                   "segment_steps": int(segment_steps)},
            method=method, engine=engine, k=spec.k, beta=spec.step_setup,
            cache=cache, retry=retry, churn=churn, segment_steps=segment_steps,
            max_ratio=max_ratio, max_affected_frac=max_affected_frac,
        )
    return _outcome(method, run)


def resume_redistribution_churn(
    spec: NetworkSpec,
    checkpoint: CheckpointStore | str | os.PathLike,
    churn: ChurnProcess,
    *,
    rng=None,
    rate_jitter: float = 0.0,
    cache: ScheduleCache | None = DEFAULT_SCHEDULE_CACHE,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
    engine: str = "fast",
    max_ratio: float = 1.5,
    max_affected_frac: float = 0.5,
) -> ChurnOutcome:
    """Finish a killed live-churn run bit-identically.

    Restores the current edge map, delivered amounts, evolving plan and
    execution position from the journal, then continues the round loop
    exactly where the dead process stopped: already-journalled churn
    rounds are never re-drawn, future events draw from the same
    reconstructed state, and a segment whose delivery record was torn
    away is simply re-executed (same round, same plan, same faults —
    same result).  ``churn`` must carry the same spec as the original
    run; ``spec`` is cross-checked against the metadata.
    """
    validate_repair_bounds(max_ratio, max_affected_frac)
    with _opened(checkpoint, resume=True) as store:
        shape = _restored(store, spec, "netsim-churn")
        state = store.state
        method = str(state.meta.method)
        plan, pos = None, 0
        if state.plan is not None:
            plan = Schedule.from_dict(state.plan)
            pos = min(int(state.plan_pos), len(plan.steps))
        run = _drive(
            _Netsim(spec, shape, True, rng, rate_jitter, faults), store,
            {eid: tuple(lrt) for eid, lrt in state.edges.items()},
            dict(state.delivered), method=method, engine=engine,
            k=spec.k, beta=spec.step_setup, cache=cache, retry=retry,
            churn=churn, segment_steps=int(state.meta.extra.get("segment_steps", 4)),
            max_ratio=max_ratio, max_affected_frac=max_affected_frac,
            plan=plan, pos=pos, first_round=state.next_round,
            last_churn_round=state.last_churn_round, resumed=True,
        )
    return _outcome(method, run)
