"""Live-churn execution and the runtime backend of the round loop.

The byte-moving counterpart of :mod:`repro.netsim.watch`: the plan is
executed ``segment_steps`` steps at a time over a
:class:`~repro.runtime.LocalCluster`, and between segments a seeded
:class:`~repro.resilience.ChurnProcess` mutates the message set —
injecting new messages, truncating removed ones at whatever prefix
already landed, growing or shrinking totals.  After every churn batch
(and every faulted segment) the in-flight plan is healed with
:func:`repro.core.repair.repair_plan` and the spliced remainder is
verified before another byte moves.

Payload bytes for injected messages and grown totals are generated
deterministically from the churn seed and the event's coordinates, so
two runs with the same spec move byte-identical traffic.  Schedule
amounts are byte counts (``amount_to_bytes=1``), which keeps chunk
boundaries exact across splices.

The rounds themselves are the shared round loop's
(:func:`repro.resilience.recovery._drive`); this module supplies its
runtime backend, which also runs
:func:`~repro.runtime.executor.schedule_and_run_resilient`'s
fault-recovery rounds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.cache import DEFAULT_SCHEDULE_CACHE, ScheduleCache
from repro.core.repair import validate_repair_bounds
from repro.core.schedule import Schedule
from repro.resilience.churn import _CAT_CHURN, ChurnProcess
from repro.resilience.faults import FaultPlan, count_fault
from repro.resilience.recovery import _drive, _Segment, residual_graph_from_amounts
from repro.resilience.retry import RetryPolicy
from repro.runtime.executor import RuntimeFailure, RuntimeReport, run_scheduled
from repro.runtime.local import LocalCluster
from repro.util.errors import ConfigError, SimulationError
from repro.util.rng import derive_rng

# perfbench/tracing.py wraps these names in this module.
from repro.core.repair import repair_plan  # noqa: F401
from repro.resilience.recovery import verify_recovery_schedule  # noqa: F401

__all__ = ["ChurnRunReport", "run_resilient_churn"]


@dataclass(frozen=True)
class ChurnRunReport:
    """Outcome of :func:`run_resilient_churn`.

    ``payloads`` is the *final* message set after all churn (injected
    messages included, removed ones truncated at their delivered
    prefix) and ``delivered`` what actually landed; ``complete`` means
    they are byte-identical.  ``splices``/``fallbacks``/``noops`` count
    repair outcomes, ``reports`` the per-segment runtime reports.
    """

    rounds: int
    total_seconds: float
    bytes_moved: int
    churn_events: int
    churn_ops: int
    splices: int
    fallbacks: int
    noops: int
    fresh_builds: int
    complete: bool
    payloads: Mapping[int, bytes]
    destinations: Mapping[int, tuple[int, int]]
    delivered: Mapping[int, bytes] = field(default_factory=dict)
    reports: tuple[RuntimeReport, ...] = ()
    errors: tuple[RuntimeFailure, ...] = ()

    def raise_on_errors(self) -> None:
        """Raise if any traffic was still undelivered at the end."""
        if self.errors:
            raise SimulationError(
                "live-churn execution incomplete:\n"
                + "\n".join(f"  - {e}" for e in self.errors)
            )


def _synth_bytes(seed: int, event: int, eid: int, n: int) -> bytes:
    """Deterministic payload bytes for churn-created traffic."""
    if n <= 0:
        return b""
    return derive_rng(seed, _CAT_CHURN, event, eid).bytes(n)


@dataclass
class _Runtime:
    """The round loop's runtime backend: byte prefixes over a cluster.

    ``delivered`` holds the landed prefix of every payload.  A plan in
    ledger ids (a splice run's segment) moves the next bytes of each
    edge it carries; a plan in residual ids (a rebuild round) moves
    each edge's whole undelivered suffix.  Only the first plan may
    weigh edges in other units than bytes (``amount_to_bytes``).
    """

    name, unit, kind, dust, rate = "runtime", "bytes", "int", 0, 1

    cluster: LocalCluster
    payloads: dict[int, bytes]
    destinations: dict[int, tuple[int, int]]
    delivered: dict[int, bytes]
    faults: FaultPlan | None
    amount_to_bytes: float = 1.0
    seed: int = 0

    @property
    def shape(self) -> tuple[int, int]:
        return self.cluster.n1, self.cluster.n2

    def ledger(self) -> tuple[dict, dict]:
        """The round loop's ledger: payload sizes and landed prefix lengths."""
        edges = {
            eid: (*self.destinations[eid], len(payload))
            for eid, payload in self.payloads.items()
        }
        return edges, {eid: len(self.delivered[eid]) for eid in edges}

    def pause(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)

    def graph(self, pending: Mapping):
        return residual_graph_from_amounts(pending)

    def churned(self, delta, round_index: int, edges: Mapping) -> None:
        """Synthesize, truncate or drop payload bytes the way ``delta`` says."""
        payloads, seed = self.payloads, self.seed
        for eid, left, right, amount in delta.inject:
            self.destinations[eid] = (left, right)
            payloads[eid] = _synth_bytes(seed, round_index, eid, int(amount))
            self.delivered[eid] = b""
        for eid in delta.remove:
            if eid not in edges:  # nothing delivered: drop it
                del payloads[eid], self.delivered[eid], self.destinations[eid]
            else:  # keep the landed prefix as the new total
                payloads[eid] = payloads[eid][: edges[eid][2]]
        for eid, _new_total in delta.resize:
            if eid not in edges:
                continue
            total = edges[eid][2]
            if total <= len(payloads[eid]):
                payloads[eid] = payloads[eid][:total]
            else:
                payloads[eid] = payloads[eid] + _synth_bytes(
                    seed, round_index, eid, total - len(payloads[eid])
                )

    def run_segment(self, schedule: Schedule, round_index: int, ids) -> _Segment:
        if ids is None:
            ids = {}
            sizes: dict[int, int] = {}
            for step in schedule.steps:
                for t in step.transfers:
                    ids[t.edge_id] = t.edge_id
                    sizes[t.edge_id] = sizes.get(t.edge_id, 0) + round(t.amount)
            payloads = {
                eid: self.payloads[eid][
                    len(self.delivered[eid]) : len(self.delivered[eid]) + n
                ]
                for eid, n in sizes.items()
            }
        else:
            payloads = {
                new: self.payloads[orig][len(self.delivered[orig]) :]
                for new, orig in ids.items()
            }
        report = run_scheduled(
            self.cluster, schedule, payloads,
            {new: self.destinations[orig] for new, orig in ids.items()},
            amount_to_bytes=self.amount_to_bytes, faults=self.faults,
            fault_round=round_index,
        )
        self.amount_to_bytes = 1.0  # later plans schedule byte counts
        moved = {}
        for new, chunk in report.delivered.items():
            self.delivered[ids[new]] += chunk
            moved[ids[new]] = len(chunk)
        # The runtime's backbone does not slow down, but a degraded
        # step still lowers the k the next rebuild may use.
        degraded = 0
        if self.faults is not None:
            degraded = sum(
                self.faults.link_factor(round_index, step) < 1.0
                for step in range(len(schedule.steps))
            )
            count_fault("link_degradation", degraded)
        return _Segment(
            moved=moved, failed=bool(report.errors), degraded=degraded > 0,
            steps=report.num_steps, seconds=report.total_seconds,
            report=report,
        )


def run_resilient_churn(
    cluster: LocalCluster,
    payloads: dict[int, bytes],
    destinations: dict[int, tuple[int, int]],
    churn: ChurnProcess,
    *,
    k: int,
    beta: float,
    method: str = "oggp",
    engine: str = "fast",
    segment_steps: int = 4,
    cache: ScheduleCache | None = DEFAULT_SCHEDULE_CACHE,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
    max_ratio: float = 1.5,
    max_affected_frac: float = 0.5,
) -> ChurnRunReport:
    """Move a churning message set until everything lands.

    Starts from ``payloads``/``destinations`` (edge id -> message bytes
    and ``(sender, receiver)``), schedules the byte counts with
    ``method``, then alternates segment execution with churn draws and
    splice repair.  ``retry`` bounds how many *faulted* segments the
    run tolerates (default 8 attempts, no pauses); churned-but-clean
    rounds do not consume attempts.

    Not checkpointable: live-churn runtime runs are exercised through
    the (resumable) :mod:`repro.netsim.watch` loop; this executor is
    for moving real bytes under churn in one process.
    """
    if segment_steps < 1:
        raise ConfigError(f"segment_steps must be >= 1, got {segment_steps}")
    validate_repair_bounds(max_ratio, max_affected_frac)
    if set(payloads) != set(destinations):
        raise ConfigError("payloads and destinations must cover the same edges")
    if not payloads:
        raise ConfigError("nothing to move: empty payload set")
    backend = _Runtime(
        cluster, dict(payloads), dict(destinations),
        {eid: b"" for eid in payloads}, faults=faults, seed=churn.spec.seed,
    )
    run = _drive(
        backend, None, *backend.ledger(), method=method, engine=engine, k=k,
        beta=beta, cache=cache, retry=retry, churn=churn,
        segment_steps=segment_steps, max_ratio=max_ratio,
        max_affected_frac=max_affected_frac,
    )
    payloads, delivered = backend.payloads, backend.delivered
    errors: list[RuntimeFailure] = []
    for eid in sorted(payloads):
        if delivered[eid] == payloads[eid]:
            continue
        if payloads[eid].startswith(delivered[eid]):
            errors.append(
                RuntimeFailure(
                    "undelivered",
                    f"{len(payloads[eid]) - len(delivered[eid])} of "
                    f"{len(payloads[eid])} bytes missing",
                    edge_id=eid,
                )
            )
        else:
            errors.append(
                RuntimeFailure(
                    "integrity",
                    "delivered bytes are not a prefix of the payload",
                    edge_id=eid,
                )
            )
    reports = tuple(rd.segment.report for rd in run.rounds)
    return ChurnRunReport(
        rounds=len(run.rounds),
        total_seconds=run.seconds(),
        bytes_moved=sum(report.bytes_moved for report in reports),
        churn_events=run.churn_events,
        churn_ops=run.churn_ops,
        splices=run.splices,
        fallbacks=run.fallbacks,
        noops=run.noops,
        fresh_builds=run.fresh_builds,
        complete=not errors,
        payloads=dict(payloads),
        destinations=dict(backend.destinations),
        delivered=dict(delivered),
        reports=reports,
        errors=tuple(errors),
    )
