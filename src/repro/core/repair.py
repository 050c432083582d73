"""Live-churn schedule repair: splice rescheduling of in-flight plans.

``core/online.py`` handles *batched* arrivals by re-running OGGP on the
whole remaining instance — fine between batches, wasteful mid-run: a
single injected, removed or resized cell invalidates only the chunks of
the edges it touches, yet a full reschedule pays for every edge again.

This module repairs an in-flight plan instead.  Given the schedule, the
number of steps already executed and the per-edge delivered amounts
(from the journal or the runtime), plus the *post-churn* edge totals,
:func:`repair_plan`:

1. keeps the unexecuted suffix of the plan for every edge whose
   remaining chunks still cover exactly its remaining traffic;
2. drops the suffix chunks of every *affected* edge (churned cells, and
   edges short-delivered by faults) and reschedules just that remainder
   with the residual-graph machinery from
   :mod:`repro.resilience.recovery`;
3. splices the repair tail after the kept suffix and bounds the spliced
   cost against the K-PBS lower bound of the full remaining traffic —
   when the bound is exceeded, or too large a fraction of the plan was
   affected, it degrades gracefully to a full reschedule and records
   which path was taken;
4. verifies the resulting plan with
   :func:`~repro.resilience.recovery.verify_recovery_schedule` before
   returning it — an unverified plan is never handed to an executor.

Because the repair is driven purely by *state* (suffix coverage vs
remaining traffic), the same call heals fault shortfalls, applies churn
deltas, and is a provable no-op when nothing changed: an empty delta on
a cleanly executing plan returns the suffix bit-identically.

Everything reports through :mod:`repro.obs` under ``repair.*``
(``splices``, ``fallbacks``, ``noops``, ``affected_edges`` counters and
the ``repair.plan`` timer) and emits ``repair.splice`` /
``repair.fallback`` events.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro import obs
from repro.core.bounds import lower_bound
from repro.core.cache import ScheduleCache, cached_schedule
from repro.core.schedule import Schedule, Step, Transfer
from repro.util.errors import ConfigError

__all__ = [
    "TrafficDelta",
    "apply_traffic_delta",
    "RepairResult",
    "repair_plan",
    "validate_repair_bounds",
]

Number = int | float


def validate_repair_bounds(max_ratio: float, max_affected_frac: float) -> None:
    """Reject out-of-range repair bounds.

    Shared by :func:`repair_plan` and the churn executors' entry points,
    so a bad ``--max-ratio``/``--max-affected`` fails at configuration
    time rather than only on runs whose churn draw happens to trigger a
    repair.
    """
    if max_ratio < 1:
        raise ConfigError(f"max_ratio must be >= 1, got {max_ratio!r}")
    if not 0 <= max_affected_frac <= 1:
        raise ConfigError(
            f"max_affected_frac must be in [0, 1], got {max_affected_frac!r}"
        )


@dataclass(frozen=True)
class TrafficDelta:
    """One batch of live traffic churn.

    ``inject`` adds new cells as ``(edge_id, left, right, amount)`` —
    the producer assigns fresh, explicit edge ids so the delta replays
    deterministically from a journal.  ``remove`` cancels an edge's
    undelivered remainder (delivered data stays delivered).  ``resize``
    sets an edge's *new full total* as ``(edge_id, new_total)``; a
    total at or below the delivered amount means the edge is done.
    """

    inject: tuple[tuple[int, int, int, Number], ...] = ()
    remove: tuple[int, ...] = ()
    resize: tuple[tuple[int, Number], ...] = ()

    def __bool__(self) -> bool:
        return bool(self.inject or self.remove or self.resize)

    @property
    def size(self) -> int:
        """Number of individual churn operations in the delta."""
        return len(self.inject) + len(self.remove) + len(self.resize)

    def to_doc(self) -> dict:
        """JSON-compatible representation (journal record payloads)."""
        return {
            "inject": [list(op) for op in self.inject],
            "remove": list(self.remove),
            "resize": [list(op) for op in self.resize],
        }

    @classmethod
    def from_doc(cls, doc: Mapping, *, amount_kind: str = "float") -> "TrafficDelta":
        """Inverse of :meth:`to_doc`; amounts cast per ``amount_kind``."""
        cast = int if amount_kind == "int" else float
        return cls(
            inject=tuple(
                (int(eid), int(l), int(r), cast(amount))
                for eid, l, r, amount in doc.get("inject", ())
            ),
            remove=tuple(int(eid) for eid in doc.get("remove", ())),
            resize=tuple(
                (int(eid), cast(total)) for eid, total in doc.get("resize", ())
            ),
        )


def apply_traffic_delta(
    edges: Mapping[int, tuple[int, int, Number]],
    delivered: Mapping[int, Number],
    delta: TrafficDelta,
) -> dict[int, tuple[int, int, Number]]:
    """New ``edge_id -> (left, right, total)`` map after ``delta``.

    Validates every operation (injected ids must be fresh, removed and
    resized ids must exist, amounts positive, no edge targeted twice)
    and keeps the ``delivered <= total`` invariant: a removed edge's
    total becomes exactly what was delivered (or the edge disappears if
    nothing was), and a resize below the delivered amount clamps to it.
    Raises :class:`ConfigError` on an invalid delta; the input mapping
    is never mutated.
    """
    out = {eid: tuple(lrt) for eid, lrt in edges.items()}
    touched: set[int] = set()

    def _claim(eid: int, op: str) -> None:
        if eid in touched:
            raise ConfigError(f"traffic delta targets edge {eid} twice ({op})")
        touched.add(eid)

    for eid, left, right, amount in delta.inject:
        _claim(eid, "inject")
        if eid in out:
            raise ConfigError(
                f"traffic delta injects edge {eid} which already exists"
            )
        if amount <= 0:
            raise ConfigError(
                f"injected edge {eid}: amount must be positive, got {amount!r}"
            )
        out[eid] = (left, right, amount)
    for eid in delta.remove:
        _claim(eid, "remove")
        if eid not in out:
            raise ConfigError(f"traffic delta removes unknown edge {eid}")
        left, right, _ = out[eid]
        done = delivered.get(eid, 0)
        if done > 0:
            out[eid] = (left, right, done)
        else:
            del out[eid]
    for eid, new_total in delta.resize:
        _claim(eid, "resize")
        if eid not in out:
            raise ConfigError(f"traffic delta resizes unknown edge {eid}")
        if new_total <= 0:
            raise ConfigError(
                f"resized edge {eid}: total must be positive, got {new_total!r}"
            )
        left, right, _ = out[eid]
        out[eid] = (left, right, max(new_total, delivered.get(eid, 0)))
    return out


@dataclass(frozen=True)
class RepairResult:
    """Outcome of one :func:`repair_plan` call.

    ``mode`` is ``"noop"`` (suffix already covers the remaining
    traffic, returned bit-identically), ``"splice"`` (kept suffix +
    repair tail) or ``"fallback"`` (full reschedule; ``reason`` says
    whether the repair ``"budget"`` or the ``"quality"`` bound forced
    it).  ``remainder`` is the verified plan for everything still
    undelivered, in original edge ids; execution continues at its step
    0.  Costs are in schedule units: ``spliced_cost`` is ``None`` when
    the splice was never built (budget fallback), ``full_cost`` is only
    measured on fallback.
    """

    mode: str
    remainder: Schedule
    affected: tuple[int, ...]
    kept_steps: int
    repair_steps: int
    lower_bound: float
    spliced_cost: float | None
    full_cost: float | None
    reason: str
    repair_seconds: float
    pending: Mapping[int, tuple[int, int, Number]] = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        """Evaluation ratio of the returned remainder (1.0 when empty)."""
        from repro.core.bounds import evaluation_ratio

        return evaluation_ratio(self.remainder.cost, self.lower_bound)


def _suffix_coverage(suffix: Sequence[Step]) -> dict[int, float]:
    cover: dict[int, float] = {}
    for step in suffix:
        for t in step.transfers:
            cover[t.edge_id] = cover.get(t.edge_id, 0.0) + t.amount
    return cover


def _remap_steps(schedule: Schedule, id_map: Mapping[int, int]) -> list[Step]:
    """Rewrite a residual-graph schedule back into original edge ids."""
    steps: list[Step] = []
    for step in schedule.steps:
        steps.append(
            Step(
                (
                    Transfer(id_map[t.edge_id], t.left, t.right, t.amount)
                    for t in step.transfers
                ),
                duration=step.duration,
            )
        )
    return steps


def _verify_remainder(
    remainder: Schedule,
    pending: Mapping[int, tuple[int, int, Number]],
    k: int,
    beta: float,
) -> None:
    """Every repaired plan must pass recovery verification before use."""
    from repro.resilience.recovery import (
        residual_graph_from_amounts,
        verify_recovery_schedule,
    )

    graph, id_map = residual_graph_from_amounts(pending)
    back = {orig: rid for rid, orig in id_map.items()}
    steps = []
    for step in remainder.steps:
        steps.append(
            Step(
                (
                    Transfer(back[t.edge_id], t.left, t.right, t.amount)
                    for t in step.transfers
                ),
                duration=step.duration,
            )
        )
    verify_recovery_schedule(graph, Schedule(steps, k, beta))


def repair_plan(
    schedule: Schedule,
    executed_steps: int,
    delivered: Mapping[int, Number],
    edges: Mapping[int, tuple[int, int, Number]],
    *,
    algorithm: str = "oggp",
    engine: str = "fast",
    cache: ScheduleCache | None = None,
    max_ratio: float = 1.5,
    max_affected_frac: float = 0.5,
    rel_tol: float = 1e-9,
) -> RepairResult:
    """Splice-repair an in-flight plan against the current traffic state.

    ``schedule`` is the plan being executed, of which the first
    ``executed_steps`` steps already ran; ``delivered`` maps original
    edge ids to cumulative delivered amounts and ``edges`` holds the
    *current* (post-churn) ``edge_id -> (left, right, total)`` traffic.
    Apply churn first with :func:`apply_traffic_delta` — the repair
    itself is purely state-driven, so fault shortfalls and churn are
    healed by the same mechanism and an unchanged, cleanly executing
    plan is a provable no-op (the suffix is returned bit-identically).

    The spliced plan falls back to a full reschedule when more than
    ``max_affected_frac`` of the remaining edges were affected (repair
    budget blown — splicing would redo most of the work anyway) or when
    its cost exceeds ``max_ratio`` times the K-PBS lower bound of the
    remaining traffic (quality bound).  Whichever plan is returned has
    passed :func:`~repro.resilience.recovery.verify_recovery_schedule`.
    """
    from repro.resilience.recovery import residual_graph_from_amounts

    if not 0 <= executed_steps <= len(schedule.steps):
        raise ConfigError(
            f"executed_steps must be in [0, {len(schedule.steps)}], "
            f"got {executed_steps}"
        )
    validate_repair_bounds(max_ratio, max_affected_frac)
    start = time.perf_counter()
    k, beta = schedule.k, schedule.beta
    suffix = schedule.steps[executed_steps:]

    # Remaining traffic per edge, with rounding dust clamped to zero.
    pending: dict[int, tuple[int, int, Number]] = {}
    for eid, (left, right, total) in edges.items():
        remaining = total - delivered.get(eid, 0)
        if remaining > rel_tol * max(1.0, abs(float(total))):
            pending[eid] = (left, right, remaining)

    # An edge is affected when its suffix chunks no longer ship exactly
    # its remaining traffic: resized/injected (under-covered), removed
    # (over-covered or unknown), or short-delivered by a fault.
    cover = _suffix_coverage(suffix)
    affected: list[int] = []
    for eid in sorted(set(cover) | set(pending)):
        want = float(pending[eid][2]) if eid in pending else 0.0
        got = cover.get(eid, 0.0)
        if abs(got - want) > rel_tol * max(1.0, abs(want), abs(got)):
            affected.append(eid)

    def _done(result: RepairResult) -> RepairResult:
        metrics = obs.metrics()
        metrics.counter(f"repair.{result.mode}s").inc()
        metrics.counter("repair.affected_edges").inc(len(result.affected))
        if result.mode != "noop":
            obs.emit(
                f"repair.{result.mode}",
                affected=len(result.affected),
                kept_steps=result.kept_steps,
                repair_steps=result.repair_steps,
                cost=result.remainder.cost,
                lower_bound=result.lower_bound,
                reason=result.reason,
                seconds=result.repair_seconds,
            )
        return result

    with obs.phase("repair.plan"):
        if not affected:
            return _done(
                RepairResult(
                    mode="noop",
                    remainder=Schedule(suffix, k, beta),
                    affected=(),
                    kept_steps=len(suffix),
                    repair_steps=0,
                    lower_bound=0.0,
                    spliced_cost=None,
                    full_cost=None,
                    reason="suffix covers remaining traffic",
                    repair_seconds=time.perf_counter() - start,
                    pending=pending,
                )
            )

        residual, residual_map = (
            residual_graph_from_amounts(pending) if pending else (None, {})
        )
        bound = lower_bound(residual, k, beta) if pending else 0.0
        deficit = {
            eid: pending[eid] for eid in affected if eid in pending
        }

        def _fallback(reason: str, spliced_cost: float | None) -> RepairResult:
            if pending:
                full = cached_schedule(
                    residual, k, beta,
                    algorithm=algorithm, engine=engine, cache=cache,
                )
                remainder = Schedule(_remap_steps(full, residual_map), k, beta)
            else:
                remainder = Schedule((), k, beta)
            _verify_remainder(remainder, pending, k, beta)
            return RepairResult(
                mode="fallback",
                remainder=remainder,
                affected=tuple(affected),
                kept_steps=0,
                repair_steps=len(remainder.steps),
                lower_bound=bound,
                spliced_cost=spliced_cost,
                full_cost=remainder.cost,
                reason=reason,
                repair_seconds=time.perf_counter() - start,
                pending=pending,
            )

        frac = len(deficit) / max(1, len(pending))
        if pending and frac > max_affected_frac:
            return _done(_fallback(
                f"budget: {len(deficit)}/{len(pending)} remaining edges "
                f"affected (> {max_affected_frac:g})",
                None,
            ))

        # Kept suffix: drop every affected edge's chunks, and the dust
        # chunks of edges whose remainder was clamped out of ``pending``
        # (within tolerance, so not affected); keep the rest.
        dropped = set(affected)
        kept: list[Step] = []
        for step in suffix:
            transfers = [
                t for t in step.transfers
                if t.edge_id in pending and t.edge_id not in dropped
            ]
            if not transfers:
                continue
            if len(transfers) == len(step.transfers):
                kept.append(step)
            else:
                kept.append(Step(transfers))

        # Repair tail: reschedule only the affected remainder.
        tail: list[Step] = []
        if deficit:
            repair_graph, repair_map = residual_graph_from_amounts(deficit)
            repaired = cached_schedule(
                repair_graph, k, beta,
                algorithm=algorithm, engine=engine, cache=cache,
            )
            tail = _remap_steps(repaired, repair_map)

        spliced = Schedule(kept + tail, k, beta)
        if bound > 0 and spliced.cost > max_ratio * bound:
            return _done(_fallback(
                f"quality: spliced cost {spliced.cost:.6g} exceeds "
                f"{max_ratio:g} x lower bound {bound:.6g}",
                spliced.cost,
            ))

        _verify_remainder(spliced, pending, k, beta)
        return _done(
            RepairResult(
                mode="splice",
                remainder=spliced,
                affected=tuple(affected),
                kept_steps=len(kept),
                repair_steps=len(tail),
                lower_bound=bound,
                spliced_cost=spliced.cost,
                full_cost=None,
                reason="spliced within budget and quality bounds",
                repair_seconds=time.perf_counter() - start,
                pending=pending,
            )
        )
