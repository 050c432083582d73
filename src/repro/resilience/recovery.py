"""Residual-graph recovery scheduling.

The recovery move after a failed or partial round is the one the
open-shop rerouting literature and K-PBS's own preemption model both
suggest: build the bipartite graph of the traffic that is still
*unfinished* — for every interrupted message, the suffix that was never
delivered — and hand it back to GGP/OGGP.  Preemption semantics make
this sound: a schedule of the residual graph composed with the chunks
already delivered is a valid preemptive schedule of the original graph
(the per-edge amounts sum to the full weight).

When the backbone is degraded, :func:`recovery_k` lowers the number of
simultaneous transfers the recovery schedule may use, so the rescheduled
traffic does not oversubscribe the remaining bandwidth (graceful
degradation).

:func:`_drive` is the one round loop every redistribution executor runs
(netsim and runtime, faults and churn, fresh and resumed): it keeps the
per-edge ledger, draws churn, builds, repairs or rebuilds the plan,
spends the retry budget, writes every journal record and emits the run
events.  A backend only moves traffic: ``run_segment`` executes one
schedule as one round and reports what landed.
"""

from __future__ import annotations

import os
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro import obs
from repro.graph.bipartite import BipartiteGraph
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import RetryPolicy
from repro.util.errors import ConfigError, GraphError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.schedule import Schedule
    from repro.resilience.journal import CheckpointState, CheckpointStore

__all__ = [
    "residual_graph_from_amounts",
    "recovery_k",
    "ResumeState",
    "resume_run",
    "verify_recovery_schedule",
]


def residual_graph_from_amounts(
    pending: Mapping[int, tuple[int, int, int | float]],
) -> tuple[BipartiteGraph, dict[int, int]]:
    """Bipartite graph of unfinished traffic, plus an edge-id mapping.

    ``pending`` maps an *original* edge id to ``(left, right,
    remaining)`` where ``remaining`` is the undelivered amount (> 0).
    Returns ``(graph, mapping)`` with ``mapping[new_edge_id] =
    original_edge_id``; edges are installed in ascending original-id
    order, so the residual graph — and everything scheduled from it —
    is deterministic.
    """
    graph = BipartiteGraph()
    mapping: dict[int, int] = {}
    for orig_id in sorted(pending):
        left, right, remaining = pending[orig_id]
        if remaining <= 0:
            raise ConfigError(
                f"edge {orig_id}: residual amount must be positive, "
                f"got {remaining!r}"
            )
        edge = graph.add_edge(left, right, remaining)
        mapping[edge.id] = orig_id
    return graph, mapping


def recovery_k(k: int, plan: FaultPlan | None, degraded: bool) -> int:
    """The ``k`` to reschedule with after a failed round.

    While the backbone is healthy the full ``k`` stands.  After a round
    that saw link degradation, scale ``k`` by the plan's degradation
    factor (never below 1): the backbone constraint is ``k·t ≤ T``, so
    a backbone at ``factor·T`` only supports ``factor·k`` simultaneous
    transfers at full per-flow rate.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if not degraded or plan is None:
        return k
    return max(1, int(k * plan.spec.link_degradation_factor))


@dataclass(frozen=True)
class ResumeState:
    """A crashed run's durable state, ready to reschedule.

    ``checkpoint`` is everything the journal + snapshot recovered;
    ``residual`` is the bipartite graph of the still-undelivered
    traffic (empty when ``complete``), with ``id_map`` mapping its
    edge ids back to the original run's.
    """

    checkpoint: "CheckpointState"
    residual: BipartiteGraph
    id_map: Mapping[int, int]

    @property
    def complete(self) -> bool:
        return self.checkpoint.complete or not self.id_map

    @property
    def delivered(self) -> Mapping[int, int | float]:
        return self.checkpoint.delivered


def resume_run(checkpoint_dir: str | os.PathLike) -> ResumeState:
    """Rebuild a crashed run's schedulable state from its checkpoint.

    Loads the snapshot + journal (tolerating a torn journal tail),
    derives the per-edge delivered amounts, and rebuilds the residual
    graph of undelivered traffic via
    :func:`residual_graph_from_amounts` — the same primitive the
    in-process recovery loop uses, so a resumed run schedules exactly
    like a recovery round would have.  The ``checkpoint.resume`` timer
    records how long state recovery took.
    """
    from repro.resilience.journal import load_checkpoint

    with obs.phase("checkpoint.resume"):
        state = load_checkpoint(checkpoint_dir)
        pending = state.pending()
        if pending:
            residual, id_map = residual_graph_from_amounts(pending)
        else:
            residual, id_map = BipartiteGraph(), {}
    return ResumeState(checkpoint=state, residual=residual, id_map=id_map)


def verify_recovery_schedule(
    graph: BipartiteGraph, schedule: "Schedule"
) -> None:
    """Validate a rescheduled residual graph's schedule before running it.

    Runs :func:`repro.core.verify.verify_solution` — per-step matching
    property, the ``<= k`` limit, and exact coverage of the residual
    weights — and raises :class:`ConfigError` carrying the
    :meth:`~repro.core.verify.VerificationReport.summary` when any
    constraint is violated.  Executing an invalid recovery schedule
    could deadlock the runtime's barrier or silently under-deliver, so
    every recovery loop calls this first.
    """
    from repro.core.verify import verify_solution

    report = verify_solution(graph, schedule)
    if not report.ok:
        raise ConfigError(
            f"recovery schedule failed verification: {report.summary()}"
        )


# ----------------------------------------------------------------------
# The round loop
# ----------------------------------------------------------------------


@contextmanager
def _opened(checkpoint, *, resume: bool = False):
    """The :class:`~repro.resilience.CheckpointStore` behind ``checkpoint``.

    ``checkpoint`` is a store, a directory or ``None`` (passed through).
    A store opened here from a directory — fresh, or reopened with
    ``resume=True`` — is closed on the way out; a caller's store is not.
    """
    from repro.resilience.journal import CheckpointStore

    if checkpoint is None or isinstance(checkpoint, CheckpointStore):
        yield checkpoint
        return
    store = (CheckpointStore.resume if resume else CheckpointStore)(checkpoint)
    try:
        yield store
    finally:
        store.close()


@dataclass(frozen=True)
class _Segment:
    """One round as a backend ran it.

    ``moved`` maps ledger edge ids to the amount that landed.  A backend
    that measures what a whole-plan round left undelivered reports that
    as ``left`` (``edge id -> remaining``) and ``moved=None`` instead;
    what landed is then pending minus left.  ``seconds`` is simulated or
    wall-clock time, ``report`` the backend's own record of the round.
    """

    moved: Mapping[int, int | float] | None
    failed: bool
    degraded: bool
    steps: int
    seconds: float
    report: object
    left: Mapping[int, float] | None = None


#: One executed round: index, plan mode, churn ops, schedule, segment.
_Round = namedtuple("_Round", "index mode churn schedule segment")


@dataclass
class _Run:
    """The ledger and round log :func:`_drive` leaves for the entry point."""

    edges: dict
    delivered: dict
    pending: dict = field(default_factory=dict)
    rounds: list[_Round] = field(default_factory=list)
    splices: int = 0
    fallbacks: int = 0
    noops: int = 0
    fresh_builds: int = 0
    churn_events: int = 0
    churn_ops: int = 0
    repair_seconds: float = 0.0

    def seconds(self, start: int = 0) -> float:
        """Summed round durations from round ``start`` on, in order."""
        return sum((r.segment.seconds for r in self.rounds[start:]), 0.0)

    def steps(self) -> int:
        return sum(r.segment.steps for r in self.rounds)


def _drive(
    backend,
    store: "CheckpointStore | None",
    edges: dict,
    delivered: dict,
    *,
    method: str,
    engine: str,
    k: int,
    beta: float,
    cache,
    retry: RetryPolicy | None,
    extra: dict | None = None,
    graph: BipartiteGraph | None = None,
    churn=None,
    segment_steps: int = 0,
    max_ratio: float = 1.5,
    max_affected_frac: float = 0.5,
    plan: "Schedule | None" = None,
    pos: int = 0,
    first_round: int = 0,
    last_churn_round: int = -1,
    resumed: bool = False,
) -> _Run:
    """Run rounds until nothing is pending or the retry budget is spent.

    ``edges`` (``edge id -> (left, right, total)``) and ``delivered``
    are the ledger, in the backend's units.  Round ``r`` draws churn
    event ``r`` (with ``churn``), settles the plan, runs it through
    ``backend.run_segment`` with ``fault_round=r``, folds what landed
    into the ledger and journals it.  The plan is a verified fresh build
    — from ``graph``, whose edge ids are the ledger's, for a run's very
    first plan when given — and then:

    - with ``churn``: a plan in ledger ids run ``segment_steps`` steps
      at a time, repaired by :func:`~repro.core.repair.repair_plan`
      after a churn delta, a faulted segment or a resume, and journaled
      whenever it changes;
    - without: rebuilt whole from the residual at :func:`recovery_k`
      after every faulted round.

    ``extra`` (the journal metadata's ``extra``) begins ``store``; a
    resumed run passes its restored plan, position and round counters
    with ``resumed=True`` instead.

    The backend supplies ``name``, ``unit`` (of its amounts, for events),
    ``kind`` (``"int"`` or ``"float"`` amounts), ``dust`` (relative
    tolerance of "done"), ``shape`` (churn's injection grid),
    ``faults``, ``rate`` (ledger units per schedule unit),
    ``graph(pending) -> (graph, ids)``, ``pause(seconds)``,
    ``churned(delta, round, edges)`` and
    ``run_segment(schedule, round, ids) -> _Segment``; ``ids`` maps plan
    edge ids to ledger ids, ``None`` when they are the same.
    """
    from repro.core.cache import cached_schedule
    from repro.core.repair import _remap_steps, apply_traffic_delta, repair_plan
    from repro.core.schedule import Schedule

    if retry is None:
        retry = RetryPolicy(max_attempts=8, backoff_base=0.0, jitter=0.0)
    if store is not None and extra is not None:
        from repro.resilience.journal import RunMeta

        store.begin(RunMeta(dict(edges), k, beta, method, backend.kind, extra))
    splice = churn is not None
    horizon = churn.spec.events if splice else 0
    zero = 0.0 if backend.kind == "float" else 0
    dust = backend.dust
    engine_name = backend.name + ("-churn" if splice else "")
    metrics = obs.metrics()
    run = _Run(edges=edges, delivered=delivered)

    def pending() -> dict:
        out = {}
        for eid, (left, right, total) in run.edges.items():
            remaining = total - run.delivered.get(eid, zero)
            if remaining > dust * max(1.0, total):
                out[eid] = (left, right, remaining)
        return out

    def amount(traffic: Mapping) -> int | float:
        return sum(remaining for _, _, remaining in traffic.values())

    def build(todo: Mapping, k_round: int):
        """A verified fresh plan of ``todo`` and its plan-to-ledger ids."""
        if graph is not None and not run.rounds:
            g, ids = graph, {eid: eid for eid in run.edges}
        else:
            g, ids = backend.graph(todo)
        schedule = cached_schedule(
            g, k_round, beta, algorithm=method, engine=engine, cache=cache
        )
        verify_recovery_schedule(g, schedule)
        if splice:  # repairs work on plans in ledger ids
            return Schedule(_remap_steps(schedule, ids), k, beta), None
        return schedule, ids

    todo = pending()
    r = first_round
    # A churn run spends attempt 1 on its first segment and one more per
    # faulted segment; a rebuild run's first round is free and its
    # recovery round n is attempt n.
    attempts = 1 if splice else 0
    failed = degraded = False
    repair_due = resumed
    ids = None
    with obs.phase("redistribute", engine=engine_name, method=method):
        obs.emit(
            "run.start", engine=engine_name, method=method, k=k, beta=beta,
            unit=backend.unit, edges=len(run.edges), volume=amount(run.edges),
            churn_events=horizon, resumed=resumed,
            checkpointed=store is not None,
        )
        while True:
            if not todo and r >= horizon:
                break
            if todo and not retry.allows_retry(attempts):
                break

            delta = None
            if r < horizon and r > last_churn_round:
                delta = churn.delta_for_event(
                    r, run.edges, run.delivered, shape=backend.shape,
                    integer_amounts=backend.kind == "int",
                )
                if delta:
                    if store is not None:
                        store.record_churn(delta, r)
                    run.edges = apply_traffic_delta(run.edges, run.delivered, delta)
                    for eid, _, _, _ in delta.inject:
                        run.delivered.setdefault(eid, zero)
                    for eid in list(run.delivered):
                        if eid not in run.edges:
                            del run.delivered[eid]
                    backend.churned(delta, r, run.edges)
                    last_churn_round = r
                    run.churn_events += 1
                    run.churn_ops += delta.size
                    metrics.counter("churn.events").inc()
                    metrics.counter("churn.ops").inc(delta.size)
                    obs.emit(
                        "churn.delta", round=r, inject=len(delta.inject),
                        remove=len(delta.remove), resize=len(delta.resize),
                    )
                    todo = pending()

            mode = "steady"
            if not splice:
                mode, k_round = "fresh", k
                if run.rounds:
                    backend.pause(retry.delay(attempts))
                    mode = "rebuild"
                    k_round = recovery_k(k, backend.faults, degraded)
                    obs.emit(
                        "recovery.start", round=r, pending_edges=len(todo),
                        pending=amount(todo), k=k_round, degraded=degraded,
                    )
                plan, ids = build(todo, k_round)
                pos = 0
            elif plan is None:
                if todo:
                    plan, _ = build(todo, k)
                    pos = 0
                    run.fresh_builds += 1
                    mode = "fresh"
            elif repair_due or delta or failed or (pos >= len(plan.steps) and todo):
                rate = backend.rate
                result = repair_plan(
                    plan, pos,
                    {eid: a / rate for eid, a in run.delivered.items()},
                    {
                        eid: (left, right, total / rate)
                        for eid, (left, right, total) in run.edges.items()
                    },
                    algorithm=method, engine=engine, cache=cache,
                    max_ratio=max_ratio, max_affected_frac=max_affected_frac,
                )
                mode = result.mode
                run.repair_seconds += result.repair_seconds
                plan, pos = result.remainder, 0
                if mode == "splice":
                    run.splices += 1
                elif mode == "fallback":
                    run.fallbacks += 1
                else:
                    run.noops += 1
            if splice and mode not in ("steady", "noop") and store is not None:
                store.record_plan(
                    plan.to_dict(), pos=0, round_index=r, segment=segment_steps
                )
            repair_due = failed = False

            if plan is None or pos >= len(plan.steps):
                if not todo:  # churn may still arrive in a later round
                    r += 1
                    continue
                raise GraphError(
                    "round loop stalled with pending traffic and an "
                    "exhausted plan"
                )

            segment = plan
            if splice:
                segment = Schedule(plan.steps[pos : pos + segment_steps], k, beta)
            seg = backend.run_segment(segment, r, ids)
            moved = seg.moved
            if moved is None:
                moved = {
                    eid: todo[eid][2] - seg.left.get(eid, 0.0)
                    for eid in ids.values()
                }
            deltas = {}
            for eid, landed in moved.items():
                if landed > 0:
                    before = run.delivered.get(eid, zero)
                    after = before + landed
                    if splice:
                        # Snap a completed edge to its exact total so every
                        # trajectory that finishes it agrees bit for bit;
                        # the journal gets the snapped increment, so a
                        # resume restores exactly this state.
                        total = run.edges[eid][2]
                        if total - after <= dust * max(1.0, total):
                            after = total
                        landed = after - before
                    run.delivered[eid] = after
                    deltas[eid] = landed
            if store is not None:
                store.record_round(deltas, r)
            if seg.failed:
                attempts += 1
                failed = True
            degraded = seg.degraded
            pos += len(segment.steps)
            churned = delta.size if delta else 0
            run.rounds.append(_Round(r, mode, churned, segment, seg))
            if seg.left is None:
                todo = pending()
            else:
                todo = {
                    eid: (*run.edges[eid][:2], remaining)
                    for eid, remaining in seg.left.items()
                }
            obs.emit(
                "recovery.result" if mode == "rebuild" else "round.result",
                round=r, mode=mode, churn=churned, steps=seg.steps,
                seconds=seg.seconds, failed=seg.failed,
                moved=sum(deltas.values()), undelivered=amount(todo),
            )
            if mode == "rebuild":
                metrics.counter("resilience.recovery_rounds").inc()
                metrics.counter("resilience.recovery_steps").inc(seg.steps)
                metrics.counter("resilience.retries").inc()
                metrics.counter(f"resilience.retries.{backend.name}").inc()
            r += 1

        run.pending = todo
        recovery = sum(
            (rd.segment.seconds for rd in run.rounds if rd.mode == "rebuild"), 0.0
        )
        if recovery > 0:
            metrics.counter("resilience.recovery_overhead_seconds").inc(recovery)
        if store is not None and not todo and not store.state.complete:
            store.mark_complete()
        obs.emit(
            "run.complete", engine=engine_name, rounds=len(run.rounds),
            splices=run.splices, fallbacks=run.fallbacks, seconds=run.seconds(),
            complete=not todo, undelivered=amount(todo),
        )
    return run
