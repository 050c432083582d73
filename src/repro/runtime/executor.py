"""Executors moving real bytes over a :class:`LocalCluster`.

Two engines, mirroring the paper's §5.2 implementations:

- :func:`run_scheduled` — the GGP/OGGP engine: every step performs at
  most one synchronous send per sender, with a cluster-wide barrier
  between steps (preempted messages are sliced into per-step chunks);
- :func:`run_bruteforce` — all flows at once, contention resolved only
  by the shapers (the transport layer's job in the paper).

:func:`schedule_and_run` bundles scheduling and execution, reusing
schedules for repeated patterns through the process-wide
:class:`~repro.core.cache.ScheduleCache`; its fault-tolerant sibling
:func:`schedule_and_run_resilient` adds deterministic fault injection
and residual-graph recovery — after a round with failed transfers, the
unfinished traffic is rebuilt into a bipartite graph and rescheduled
with the same algorithm until everything lands (or the retry policy
runs out).  Every recovery schedule is verified
(:func:`~repro.resilience.recovery.verify_recovery_schedule`) before a
single byte moves.

With ``checkpoint=`` the resilient run is also **durable**: each
completed round's per-edge delivered byte counts are appended to a
crash-safe journal (:mod:`repro.resilience.journal`), and
:func:`resume_and_run_resilient` finishes a SIGKILL'd run from
another process — bit-identical to the uninterrupted run, because
delivered bytes are exact prefixes and the residual suffixes are
rescheduled with the same deterministic algorithms.

All engines verify payload integrity on arrival and report wall-clock
timings.  Failures are reported as structured
:class:`RuntimeFailure` records carrying the step index and edge id
where they occurred.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro import obs
from repro.core.cache import DEFAULT_SCHEDULE_CACHE, ScheduleCache, cached_schedule
from repro.core.schedule import Schedule
from repro.graph.bipartite import BipartiteGraph
from repro.runtime.local import LocalCluster
from repro.util.errors import ConfigError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import os

    from repro.resilience.faults import FaultPlan
    from repro.resilience.journal import CheckpointStore
    from repro.resilience.retry import RetryPolicy


class TransferPlanError(SimulationError):
    """Raised when a schedule and its payloads disagree."""


@dataclass(frozen=True)
class RuntimeFailure:
    """One failure observed during a runtime execution.

    ``kind`` is a short machine-readable tag (``"sender"``,
    ``"receiver"``, ``"integrity"``, ``"transfer_fail"``,
    ``"transfer_stall"``, ``"undelivered"``, ...); ``step`` and
    ``edge_id`` locate the failure when they are known.
    """

    kind: str
    detail: str
    step: int | None = None
    edge_id: int | None = None

    def __str__(self) -> str:
        where = []
        if self.step is not None:
            where.append(f"step {self.step}")
        if self.edge_id is not None:
            where.append(f"edge {self.edge_id}")
        location = f" @ {', '.join(where)}" if where else ""
        return f"[{self.kind}{location}] {self.detail}"


@dataclass(frozen=True)
class RuntimeReport:
    """Wall-clock outcome of a runtime execution.

    ``delivered`` maps each edge id to the bytes that actually arrived
    (a prefix of the payload when a transfer failed mid-schedule) — the
    recovery layer reschedules exactly the missing suffixes.
    """

    total_seconds: float
    bytes_moved: int
    num_steps: int
    errors: tuple[RuntimeFailure, ...] = ()
    delivered: Mapping[int, bytes] = field(default_factory=dict)

    def raise_on_errors(self) -> None:
        """Raise if any worker thread recorded a failure."""
        if self.errors:
            raise SimulationError(
                "runtime execution failed:\n"
                + "\n".join(f"  - {e}" for e in self.errors)
            )


def _slice_plan(
    schedule: Schedule,
    payloads: dict[int, bytes],
    amount_to_bytes: float,
) -> list[dict[int, tuple[int, int, bytes]]]:
    """Per-step maps ``sender -> (edge_id, dst, chunk)``.

    Chunks are consecutive slices of each edge's payload, proportional
    to the scheduled amounts; the final chunk absorbs rounding so the
    slices reassemble exactly.
    """
    offsets = {eid: 0 for eid in payloads}
    shipped = {eid: 0.0 for eid in payloads}
    totals: dict[int, float] = {}
    for step in schedule.steps:
        for t in step.transfers:
            totals[t.edge_id] = totals.get(t.edge_id, 0.0) + t.amount
    plans: list[dict[int, tuple[int, int, bytes]]] = []
    for step in schedule.steps:
        plan: dict[int, tuple[int, int, bytes]] = {}
        for t in step.transfers:
            payload = payloads.get(t.edge_id)
            if payload is None:
                raise TransferPlanError(f"no payload for edge {t.edge_id}")
            shipped[t.edge_id] += t.amount
            if abs(shipped[t.edge_id] - totals[t.edge_id]) < 1e-9:
                end = len(payload)  # final chunk: take the remainder
            else:
                end = min(len(payload), offsets[t.edge_id] + round(t.amount * amount_to_bytes))
            chunk = payload[offsets[t.edge_id] : end]
            offsets[t.edge_id] = end
            plan[t.left] = (t.edge_id, t.right, chunk)
        plans.append(plan)
    for eid, off in offsets.items():
        if off != len(payloads[eid]):
            raise TransferPlanError(
                f"edge {eid}: schedule ships {off} of {len(payloads[eid])} bytes "
                f"(is amount_to_bytes={amount_to_bytes} right?)"
            )
    return plans


def run_scheduled(
    cluster: LocalCluster,
    schedule: Schedule,
    payloads: dict[int, bytes],
    destinations: dict[int, tuple[int, int]],
    amount_to_bytes: float = 1.0,
    faults: "FaultPlan | None" = None,
    fault_round: int = 0,
) -> RuntimeReport:
    """Execute ``schedule`` over the cluster, moving ``payloads``.

    ``payloads`` maps edge id to the full message bytes;
    ``destinations`` maps edge id to its ``(sender, receiver)`` pair
    (used for integrity checks).  ``amount_to_bytes`` converts schedule
    amounts into byte counts.

    ``faults`` injects deterministic transfer failures: the planned
    fault set is a pure function of ``(schedule, faults, fault_round)``,
    so the sender and receiver threads agree on which chunks to skip
    without coordinating.  Once an edge's transfer fails or stalls at a
    step, its later chunks are skipped too (the connection is lost for
    the rest of this schedule); the report's ``delivered`` prefixes and
    ``errors`` carry everything the recovery layer needs.
    """
    for t_step in schedule.steps:
        for t in t_step.transfers:
            if not (0 <= t.left < cluster.n1) or not (0 <= t.right < cluster.n2):
                # Checked before any thread starts: an unroutable
                # transfer would otherwise deadlock the barrier.
                raise TransferPlanError(
                    f"transfer {t.left}->{t.right} outside cluster "
                    f"({cluster.n1}, {cluster.n2})"
                )
    from repro.resilience.faults import count_planned_faults, planned_transfer_faults

    plans = _slice_plan(schedule, payloads, amount_to_bytes)
    # Pure function of (schedule, faults, fault_round): both thread
    # pools consult the same dict, so no skip-coordination is needed.
    failed_at = planned_transfer_faults(schedule, faults, fault_round)
    count_planned_faults(failed_at)

    def dropped(eid: int, step_index: int) -> bool:
        fault = failed_at.get(eid)
        return fault is not None and step_index >= fault[0]

    received: dict[int, list[bytes]] = {eid: [] for eid in payloads}
    errors: list[RuntimeFailure] = []
    errors_lock = threading.Lock()
    # Per-sender (transfer, barrier-wait) seconds for every step; each
    # rank owns its row, so no locking inside the worker loop.
    sender_timings: dict[int, list[tuple[float, float]]] = {
        r: [] for r in range(cluster.n1)
    }

    def fail(failure: RuntimeFailure) -> None:
        with errors_lock:
            errors.append(failure)

    def sender_main(rank: int) -> None:
        step_index = -1
        try:
            ep = cluster.sender(rank)
            timings = sender_timings[rank]
            for step_index, plan in enumerate(plans):
                t0 = time.perf_counter()
                item = plan.get(rank)
                if item is not None:
                    eid, dst, chunk = item
                    if chunk and not dropped(eid, step_index):
                        ep.send(dst, chunk)
                t1 = time.perf_counter()
                ep.barrier()
                timings.append((t1 - t0, time.perf_counter() - t1))
        except Exception as exc:  # propagate through the report
            fail(
                RuntimeFailure(
                    "sender",
                    f"rank {rank}: {exc!r}",
                    step=step_index if step_index >= 0 else None,
                )
            )
            raise

    def receiver_main(rank: int) -> None:
        step_index = -1
        try:
            ep = cluster.receiver(rank)
            for step_index, plan in enumerate(plans):
                incoming = [
                    (eid, src_rank, chunk)
                    for src_rank, (eid, dst, chunk) in plan.items()
                    if dst == rank and chunk and not dropped(eid, step_index)
                ]
                if len(incoming) > 1:
                    fail(
                        RuntimeFailure(
                            "receiver",
                            f"rank {rank}: step is not a matching",
                            step=step_index,
                        )
                    )
                for eid, src_rank, _chunk in incoming:
                    data = ep.recv(src_rank)
                    received[eid].append(data)
                ep.barrier()
        except Exception as exc:
            fail(
                RuntimeFailure(
                    "receiver",
                    f"rank {rank}: {exc!r}",
                    step=step_index if step_index >= 0 else None,
                )
            )
            raise

    threads = [
        threading.Thread(target=sender_main, args=(r,), daemon=True)
        for r in range(cluster.n1)
    ] + [
        threading.Thread(target=receiver_main, args=(r,), daemon=True)
        for r in range(cluster.n2)
    ]
    total_bytes = sum(len(p) for p in payloads.values())
    with obs.phase(
        "runtime.run_scheduled", steps=len(plans), bytes=total_bytes
    ):
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - start

    # Expected delivery: the full payload, or — for a faulted edge —
    # the prefix its pre-failure chunks cover.
    expected_len = {eid: len(p) for eid, p in payloads.items()}
    for eid, (fault_step, _kind) in failed_at.items():
        expected_len[eid] = sum(
            len(plans[s][src][2])
            for s in range(fault_step)
            for src in (destinations[eid][0],)
            if src in plans[s] and plans[s][src][0] == eid
        )

    delivered = {eid: b"".join(parts) for eid, parts in received.items()}
    for eid, data in delivered.items():
        if data != payloads[eid][: expected_len[eid]]:
            errors.append(
                RuntimeFailure(
                    "integrity",
                    "payload corrupted or incomplete",
                    edge_id=eid,
                )
            )
    for eid, (fault_step, kind) in sorted(failed_at.items()):
        errors.append(
            RuntimeFailure(
                f"transfer_{kind}",
                f"delivered {len(delivered[eid])} of {len(payloads[eid])} "
                "bytes before the connection was lost",
                step=fault_step,
                edge_id=eid,
            )
        )

    bytes_moved = sum(len(d) for d in delivered.values())
    metrics = obs.metrics()
    metrics.counter("runtime.scheduled_runs").inc()
    metrics.counter("runtime.bytes_moved").inc(bytes_moved)
    transfer_hist = metrics.histogram("runtime.step_transfer_seconds")
    barrier_hist = metrics.histogram("runtime.step_barrier_wait")
    for timings in sender_timings.values():
        for transfer_s, barrier_s in timings:
            transfer_hist.observe(transfer_s)
            barrier_hist.observe(barrier_s)

    return RuntimeReport(
        total_seconds=elapsed,
        bytes_moved=bytes_moved,
        num_steps=len(plans),
        errors=tuple(errors),
        delivered=delivered,
    )


def schedule_and_run(
    cluster: LocalCluster,
    graph: BipartiteGraph,
    k: int,
    beta: float,
    payloads: dict[int, bytes],
    destinations: dict[int, tuple[int, int]],
    method: str = "oggp",
    amount_to_bytes: float = 1.0,
    cache: ScheduleCache | None = DEFAULT_SCHEDULE_CACHE,
    engine: str = "fast",
) -> tuple[Schedule, RuntimeReport]:
    """Schedule ``graph`` (via the cache) and execute it on ``cluster``.

    ``method`` is ``'ggp'`` or ``'oggp'``.  Repeated redistribution of
    an equivalent pattern — common when an iterative application
    re-issues the same traffic each phase — skips the peeling loops
    entirely on a cache hit; pass ``cache=None`` to always recompute.
    ``engine`` picks the peeling engine (see
    :data:`repro.core.wrgp.VALID_ENGINES`).  Returns the schedule
    alongside the execution report.
    """
    schedule = cached_schedule(
        graph, k=k, beta=beta, algorithm=method, engine=engine, cache=cache
    )
    report = run_scheduled(
        cluster,
        schedule,
        payloads,
        destinations,
        amount_to_bytes=amount_to_bytes,
    )
    return schedule, report


@dataclass(frozen=True)
class ResilientRunReport:
    """Outcome of :func:`schedule_and_run_resilient`.

    ``reports[0]`` is the initial run; ``reports[1:]`` pair up with
    ``recovery_schedules``.  ``delivered`` is the merged per-edge
    delivery; ``complete`` means it is byte-identical to the input
    payloads.  ``errors`` lists only *unresolved* failures — transfers
    still undelivered when the retry budget ran out (per-round fault
    records stay in the individual reports).
    """

    schedule: Schedule
    recovery_schedules: tuple[Schedule, ...]
    reports: tuple[RuntimeReport, ...]
    rounds: int
    total_seconds: float
    bytes_moved: int
    complete: bool
    delivered: Mapping[int, bytes] = field(default_factory=dict)
    errors: tuple[RuntimeFailure, ...] = ()

    def raise_on_errors(self) -> None:
        """Raise if any traffic was still undelivered at the end."""
        if self.errors:
            raise SimulationError(
                "resilient execution incomplete:\n"
                + "\n".join(f"  - {e}" for e in self.errors)
            )


def schedule_and_run_resilient(
    cluster: LocalCluster,
    graph: BipartiteGraph,
    k: int,
    beta: float,
    payloads: dict[int, bytes],
    destinations: dict[int, tuple[int, int]],
    method: str = "oggp",
    engine: str = "fast",
    amount_to_bytes: float = 1.0,
    cache: ScheduleCache | None = DEFAULT_SCHEDULE_CACHE,
    faults: "FaultPlan | None" = None,
    retry: "RetryPolicy | None" = None,
    checkpoint: "CheckpointStore | str | os.PathLike | None" = None,
    churn=None,
    segment_steps: int = 4,
) -> ResilientRunReport:
    """Schedule, execute, and recover until every byte lands.

    ``churn`` — a :class:`~repro.resilience.ChurnProcess` — switches to
    the live-churn executor: the plan runs ``segment_steps`` steps at a
    time, seeded traffic deltas mutate the message set between
    segments, and the in-flight plan is splice-repaired via
    :func:`repro.core.repair.repair_plan` (see
    :func:`repro.runtime.churn.run_resilient_churn`, whose
    :class:`~repro.runtime.churn.ChurnRunReport` is returned instead).
    Churned runtime runs are not checkpointable — combining ``churn``
    with ``checkpoint`` raises :class:`ConfigError`; the resumable
    churn path is ``kpbs watch`` over :mod:`repro.netsim.watch`.  The
    churn route schedules the payload byte counts directly, so it
    requires ``amount_to_bytes == 1``.

    Like :func:`schedule_and_run`, but failures do not end the story:
    after a round with failed or stalled transfers, the undelivered
    suffixes are rebuilt into a *residual* bipartite graph (weights =
    remaining byte counts), rescheduled with the same algorithm — with
    a reduced ``k`` when the fault plan degraded the backbone —
    verified against the residual graph, then executed as the next
    recovery round.  Rounds continue until everything is delivered or
    ``retry`` runs out of attempts.

    ``faults`` drives deterministic fault injection (same seed, same
    fault sequence, same recovery trajectory — run to run).  ``retry``
    bounds the recovery rounds (attempt 1 is the initial run) and paces
    them with its backoff; the default allows up to 7 recovery rounds
    with no pauses.

    ``checkpoint`` — a :class:`~repro.resilience.CheckpointStore` or a
    directory path — makes the run durable: the run's metadata and each
    completed round's per-edge delivered byte counts are journaled, so
    a process killed mid-run can be finished with
    :func:`resume_and_run_resilient` and the same payloads.

    ``engine`` picks the peeling engine for the initial schedule *and*
    every recovery round (see :data:`repro.core.wrgp.VALID_ENGINES`).
    Pass the same engine to :func:`resume_and_run_resilient` — with the
    inexact ``"approx"`` engine a resumed run is only bit-identical to
    an uninterrupted one when both used the same engine.
    """
    from repro.resilience.recovery import _drive, _opened
    from repro.runtime.churn import _Runtime, run_resilient_churn

    if churn is not None:
        if checkpoint is not None:
            raise ConfigError(
                "churned runtime runs are not checkpointable; use "
                "kpbs watch (repro.netsim.watch) for a resumable churn run"
            )
        if amount_to_bytes != 1.0:
            raise ConfigError(
                "the churn executor schedules byte counts directly; "
                f"amount_to_bytes must be 1, got {amount_to_bytes}"
            )
        return run_resilient_churn(
            cluster, payloads, destinations, churn, k=k, beta=beta,
            method=method, engine=engine, segment_steps=segment_steps,
            cache=cache, faults=faults, retry=retry,
        )
    backend = _Runtime(
        cluster, payloads, destinations, {eid: b"" for eid in payloads},
        faults=faults, amount_to_bytes=amount_to_bytes,
    )
    with _opened(checkpoint) as store:
        run = _drive(
            backend, store, *backend.ledger(), extra={"engine": "runtime"},
            graph=graph, method=method, engine=engine, k=k, beta=beta,
            cache=cache, retry=retry,
        )
    return _report(run, backend, k, beta)


def resume_and_run_resilient(
    cluster: LocalCluster,
    checkpoint: "CheckpointStore | str | os.PathLike",
    payloads: dict[int, bytes],
    destinations: dict[int, tuple[int, int]] | None = None,
    method: str | None = None,
    engine: str = "fast",
    cache: ScheduleCache | None = DEFAULT_SCHEDULE_CACHE,
    faults: "FaultPlan | None" = None,
    retry: "RetryPolicy | None" = None,
) -> ResilientRunReport:
    """Finish a checkpointed run that a previous process did not.

    ``checkpoint`` is the killed run's directory (or an already-resumed
    :class:`~repro.resilience.CheckpointStore`); ``payloads`` must be
    the *same* payload bytes the original run was moving (they are not
    stored in the journal — regenerate them from the same seed, or
    reread the same files), validated against the checkpoint metadata.
    The delivered prefixes are rebuilt from the journal, the missing
    suffixes are rescheduled as a residual graph, and the recovery loop
    continues exactly where the dead process stopped — journaling into
    the same checkpoint, with fault rounds numbered continuously, so
    the final delivered matrix is bit-identical to an uninterrupted
    run.  ``method`` defaults to the one recorded in the metadata;
    ``engine`` is not journaled and must match the original run's when
    bit-identical resumption matters (it always does for the exact
    engines, which all produce the same schedules).
    """
    from repro.resilience.recovery import _drive, _opened
    from repro.runtime.churn import _Runtime

    with _opened(checkpoint, resume=True) as store:
        state = store.state
        meta = state.meta
        if destinations is None:
            destinations = {
                eid: (left, right)
                for eid, (left, right, _total) in meta.edges.items()
            }
        if set(payloads) != set(meta.edges):
            raise SimulationError(
                "resume payloads do not match the checkpoint's edge set"
            )
        for eid, payload in payloads.items():
            total = meta.edges[eid][2]
            if len(payload) != total:
                raise SimulationError(
                    f"edge {eid}: resume payload is {len(payload)} bytes, "
                    f"checkpoint metadata says {total}"
                )
        delivered = {
            eid: payloads[eid][: int(state.delivered.get(eid, 0))]
            for eid in payloads
        }
        backend = _Runtime(cluster, payloads, destinations, delivered, faults=faults)
        run = _drive(
            backend, store, *backend.ledger(),
            method=meta.method if method is None else method, engine=engine,
            k=meta.k, beta=meta.beta, cache=cache, retry=retry,
            first_round=state.next_round, resumed=True,
        )
    return _report(run, backend, meta.k, meta.beta)


def _report(run, backend, k: int, beta: float) -> ResilientRunReport:
    """A rebuild run's report: its first plan, then its recovery rounds."""
    payloads, delivered = backend.payloads, backend.delivered
    plans = [rd.schedule for rd in run.rounds]
    reports = [rd.segment.report for rd in run.rounds]
    recovery = plans[1:]
    return ResilientRunReport(
        schedule=plans[0] if plans else Schedule([], k=k, beta=beta),
        recovery_schedules=tuple(recovery),
        reports=tuple(reports),
        rounds=len(recovery),
        total_seconds=sum(r.total_seconds for r in reports),
        bytes_moved=sum(len(d) for d in delivered.values()),
        complete=all(delivered[eid] == payloads[eid] for eid in payloads),
        delivered=delivered,
        errors=tuple(
            RuntimeFailure(
                "undelivered",
                f"{remaining} of {len(payloads[eid])} bytes still missing "
                f"after {len(recovery)} recovery round(s)",
                edge_id=eid,
            )
            for eid, (_src, _dst, remaining) in sorted(run.pending.items())
        ),
    )


def run_bruteforce(
    cluster: LocalCluster,
    payloads: dict[int, bytes],
    destinations: dict[int, tuple[int, int]],
) -> RuntimeReport:
    """Start every transfer simultaneously; shapers arbitrate.

    One thread per flow on each side — the thread-level analogue of the
    paper's "start all communications and wait".
    """
    pairs = list(destinations.values())
    if len(set(pairs)) != len(pairs):
        raise TransferPlanError(
            "brute-force runs need distinct (sender, receiver) pairs — "
            "parallel messages would interleave on one channel"
        )
    for src, dst in pairs:
        if not (0 <= src < cluster.n1) or not (0 <= dst < cluster.n2):
            raise TransferPlanError(
                f"flow {src}->{dst} outside cluster ({cluster.n1}, {cluster.n2})"
            )
    errors: list[RuntimeFailure] = []
    errors_lock = threading.Lock()
    received: dict[int, bytes] = {}

    def send_flow(eid: int) -> None:
        src, dst = destinations[eid]
        try:
            cluster.sender(src).send(dst, payloads[eid])
        except Exception as exc:
            with errors_lock:
                errors.append(
                    RuntimeFailure("sender", f"flow send: {exc!r}", edge_id=eid)
                )

    def recv_flow(eid: int) -> None:
        src, dst = destinations[eid]
        try:
            received[eid] = cluster.receiver(dst).recv(src)
        except Exception as exc:
            with errors_lock:
                errors.append(
                    RuntimeFailure("receiver", f"flow recv: {exc!r}", edge_id=eid)
                )

    threads = [
        threading.Thread(target=send_flow, args=(eid,), daemon=True)
        for eid in payloads
    ] + [
        threading.Thread(target=recv_flow, args=(eid,), daemon=True)
        for eid in payloads
    ]
    bytes_moved = sum(len(p) for p in payloads.values())
    with obs.phase("runtime.run_bruteforce", flows=len(payloads), bytes=bytes_moved):
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - start

    metrics = obs.metrics()
    metrics.counter("runtime.bruteforce_runs").inc()
    metrics.counter("runtime.bytes_moved").inc(bytes_moved)

    for eid, payload in payloads.items():
        if received.get(eid) != payload:
            errors.append(
                RuntimeFailure(
                    "integrity", "payload corrupted or incomplete", edge_id=eid
                )
            )
    return RuntimeReport(
        total_seconds=elapsed,
        bytes_moved=bytes_moved,
        num_steps=1,
        errors=tuple(errors),
        delivered=dict(received),
    )
