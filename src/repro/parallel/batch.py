"""``schedule_batch`` — the batch scheduling front door.

The workloads the paper evaluates (hundreds of random instances per
figure point) and the service workloads the ROADMAP targets (many
clients re-issuing redistribution patterns) are batch-shaped and
embarrassingly parallel.  This module schedules a *list* of graphs at
once:

1. **Canonical dedup** (when a :class:`~repro.core.cache.ScheduleCache`
   is in play, which is the default): graphs that are equivalent up to
   edge ids are scheduled once; the other members of the class get the
   cached schedule remapped onto their own edge ids — exactly what the
   serial ``cached_schedule`` path does for repeated patterns, so the
   results are bit-identical to processing the batch serially in
   submission order with the same cache.
2. **Parallel fan-out**: the remaining unique instances are dispatched
   to a persistent :class:`~repro.parallel.pool.WorkerPool` over the
   compact :mod:`~repro.parallel.wire` format (O(edges) bytes per
   graph, no per-Edge pickling).
3. **Deterministic assembly**: results are keyed by submission index,
   so the returned list matches the input order no matter how many
   workers ran or which finished first.

Determinism contract: for every ``(algorithm, engine)`` pair,
``schedule_batch(graphs, ..., jobs=N)`` returns exactly the schedules of
``[cached_schedule(g, ...) for g in graphs]`` with a shared cache — and,
with ``cache=None``, exactly the schedules of the plain serial loop
``[oggp(g, k, beta) for g in graphs]`` (no caching anywhere, every graph
computed independently).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro import obs
from repro.core.cache import (
    DEFAULT_SCHEDULE_CACHE,
    ScheduleCache,
    _canonical,
    cache_tag,
    cached_schedule,
)
# Not called here: the benchmark tracer patches this name in this module.
from repro.core.cache import canonical_signature  # noqa: F401
from repro.core.schedule import Schedule, Step, Transfer
from repro.core.wrgp import _check_engine
from repro.graph.bipartite import BipartiteGraph
from repro.parallel.pool import (
    WorkerPool,
    WorkerTaskError,
    resolve_jobs,
    worker_cache,
)
from repro.parallel.wire import decode_graph, encode_graph
from repro.util.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.faults import FaultPlan
    from repro.resilience.retry import RetryPolicy

__all__ = [
    "schedule_batch",
    "make_schedule_pool",
    "BATCH_ALGORITHMS",
    "MIN_PARALLEL_COST",
]

#: Algorithms ``schedule_batch`` accepts (mirrors ``cached_schedule``).
BATCH_ALGORITHMS = ("ggp", "oggp", "wrgp", "greedy")

#: Estimated-work floor (see :func:`_estimated_cost`) below which
#: ``schedule_batch`` ignores ``jobs`` and runs the serial cached loop:
#: for tiny batches the worker spawn + wire round-trip costs more than
#: the scheduling itself (the committed BENCH rows showed a 0.2×
#: *slowdown* at ``max_side=5`` with 4 jobs).  Roughly 50–100 ms of
#: serial scheduling work.
MIN_PARALLEL_COST = 100_000


def _estimated_cost(graphs: Sequence[BipartiteGraph]) -> int:
    """Crude batch work estimate: Σ edges × side per graph.

    The peeling loops are ~O(edges × side) per schedule, which is
    accurate enough to separate "milliseconds" from "worth fanning out".
    """
    return sum(g.num_edges * max(g.num_left, g.num_right, 1) for g in graphs)


def _schedule_task(payload: tuple) -> tuple:
    """Worker-side task: decode, schedule, return plain step data.

    Consults the worker-persistent schedule cache (kept warm across
    batches) unless the caller disabled caching batch-wide.
    """
    wire, algorithm, k, beta, engine, use_cache = payload
    graph = decode_graph(wire)
    cache = worker_cache() if use_cache else None
    schedule = cached_schedule(
        graph, k=k, beta=beta, algorithm=algorithm, engine=engine, cache=cache
    )
    return (
        schedule.k,
        schedule.beta,
        tuple(
            (
                step.duration,
                tuple(
                    (t.edge_id, t.left, t.right, t.amount)
                    for t in step.transfers
                ),
            )
            for step in schedule.steps
        ),
    )


def _schedule_from_data(data: tuple) -> Schedule:
    """Inverse of the tuple form returned by :func:`_schedule_task`."""
    sched_k, sched_beta, steps_data = data
    steps = [
        Step(
            (Transfer(eid, left, right, amount) for eid, left, right, amount in transfers),
            duration=duration,
        )
        for duration, transfers in steps_data
    ]
    return Schedule(steps, k=sched_k, beta=sched_beta)


def make_schedule_pool(
    jobs: int | None = None,
    cache_size: int = 128,
    retry: "RetryPolicy | None" = None,
    task_timeout: float | None = None,
    fault_plan: "FaultPlan | None" = None,
    stream_items: int | None = 32,
    stream_seconds: float | None = 0.5,
) -> WorkerPool:
    """A reusable pool bound to the scheduling task.

    Pass it to repeated :func:`schedule_batch` calls to keep the workers
    (and their per-worker schedule caches) warm across batches; call
    ``shutdown()`` — or use it as a context manager — when done.
    ``retry``/``task_timeout``/``fault_plan`` configure fault tolerance
    and deterministic fault injection;
    ``stream_items``/``stream_seconds`` tune how often workers stream
    live telemetry snapshots (see
    :class:`~repro.parallel.pool.WorkerPool`).
    """
    return WorkerPool(
        jobs,
        _schedule_task,
        cache_size=cache_size,
        retry=retry,
        task_timeout=task_timeout,
        fault_plan=fault_plan,
        stream_items=stream_items,
        stream_seconds=stream_seconds,
    )


def schedule_batch(
    graphs: Sequence[BipartiteGraph],
    algorithm: str = "oggp",
    k: int = 1,
    beta: float = 0.0,
    *,
    engine: str = "fast",
    jobs: int | None = 1,
    cache: ScheduleCache | None = DEFAULT_SCHEDULE_CACHE,
    pool: WorkerPool | None = None,
    chunk_size: int | None = None,
    retry: "RetryPolicy | None" = None,
    task_timeout: float | None = None,
    fault_plan: "FaultPlan | None" = None,
    min_parallel_items: int | None = None,
) -> list[Schedule]:
    """Schedule every graph in ``graphs``; returns schedules in order.

    ``jobs=1`` (the default) runs serially in-process; ``jobs=N`` fans
    the unique instances out over ``N`` persistent worker processes
    (``None``/``0`` = one per CPU; a negative count is a
    :class:`ConfigError`).  Pass a pool from
    :func:`make_schedule_pool` to reuse warm workers across calls (the
    pool's worker count then wins over ``jobs``, as do the pool's own
    retry/timeout/fault settings).

    Small batches short-circuit to the serial cached loop even when
    ``jobs > 1`` — for sub-millisecond schedules the worker spawn and
    wire round-trip dwarf the work (a measured slowdown, not a wash).
    By default the cutoff is cost-based (estimated batch work below
    :data:`MIN_PARALLEL_COST`); pass ``min_parallel_items`` to use a
    plain item-count floor instead (``0`` forces fan-out regardless of
    size).  The fallback is observable via the
    ``parallel.batch.serial_fallback`` counter and changes nothing else:
    the serial path returns bit-identical schedules by contract.  An
    explicitly supplied ``pool`` is always used — its workers are
    already warm.

    ``retry`` makes worker crashes and deadline overruns survivable:
    crashed workers are respawned and their graphs rescheduled, up to
    ``retry.max_attempts`` per graph — scheduling is a pure function of
    the graph, so a retried item yields the same schedule and the
    batch result stays **bit-identical** to the serial path for any
    ``jobs`` and any (injected or real) crash sequence.  ``fault_plan``
    injects deterministic worker crashes (chaos testing); it is ignored
    on the serial path, which has no workers to crash.

    Worker failures that survive retry raise
    :class:`~repro.parallel.pool.WorkerTaskError` naming the failing
    graph's index in ``graphs``.
    """
    if algorithm not in BATCH_ALGORITHMS:
        raise ConfigError(
            f"unknown algorithm {algorithm!r}; "
            f"valid: {', '.join(BATCH_ALGORITHMS)}"
        )
    _check_engine(engine)
    if pool is None:
        jobs = resolve_jobs(jobs)
    graphs = list(graphs)
    n = len(graphs)
    metrics = obs.metrics()
    metrics.counter("parallel.batch_calls").inc()
    metrics.counter("parallel.batch_graphs").inc(n)
    if n == 0:
        return []

    serial = pool is None and (jobs == 1)
    if not serial and pool is None:
        if min_parallel_items is not None:
            fallback = n < min_parallel_items
        else:
            fallback = _estimated_cost(graphs) < MIN_PARALLEL_COST
        if fallback:
            metrics.counter("parallel.batch.serial_fallback").inc()
            serial = True
    if serial:
        return [
            cached_schedule(
                g, k=k, beta=beta, algorithm=algorithm, engine=engine,
                cache=cache,
            )
            for g in graphs
        ]

    # Single pass in submission order, mirroring the serial cached loop:
    # a graph either hits the parent cache, opens a new canonical group
    # (becoming its representative), or joins an existing group.  Each
    # graph's canonical form is sorted once and reused for every
    # lookup and store below.
    tag = cache_tag(algorithm, engine)
    results: list[Schedule | None] = [None] * n
    forms: list = [None] * n  # canonical form per graph (cached batches)
    rep_indices: list[int] = []  # representative graph index per group
    group_of: dict[tuple, int] = {}  # canonical signature -> group number
    members: list[list[int]] = []  # non-representative indices per group
    for i, graph in enumerate(graphs):
        if cache is not None:
            forms[i] = form = _canonical(graph)
            group = group_of.get(form[0])
            if group is not None:
                members[group].append(i)
                continue
            hit = cache._get(form, k, beta, tag)
            if hit is not None:
                results[i] = hit
                continue
            group_of[form[0]] = len(rep_indices)
        rep_indices.append(i)
        members.append([])

    payloads = [
        (
            encode_graph(graphs[i]),
            algorithm,
            k,
            beta,
            engine,
            cache is not None,
        )
        for i in rep_indices
    ]
    metrics.counter("parallel.batch_dispatched").inc(len(payloads))

    own_pool = pool is None
    active = (
        pool
        if pool is not None
        else make_schedule_pool(
            jobs, retry=retry, task_timeout=task_timeout,
            fault_plan=fault_plan,
        )
    )
    try:
        try:
            raw = active.map(payloads, chunk_size=chunk_size)
        except WorkerTaskError as exc:
            graph_index = rep_indices[exc.index]
            raise WorkerTaskError(
                graph_index,
                f"{exc.detail} (graph {graph_index} of the batch, "
                f"algorithm {algorithm!r}, engine {engine!r})",
            ) from exc
    finally:
        if own_pool:
            active.shutdown()

    for group, (rep_index, data) in enumerate(zip(rep_indices, raw)):
        schedule = _schedule_from_data(data)
        results[rep_index] = schedule
        if cache is not None:
            cache._put(forms[rep_index], k, beta, tag, schedule)
            for member in members[group]:
                results[member] = cache._get(forms[member], k, beta, tag)
    assert all(s is not None for s in results)
    return results  # type: ignore[return-value]
