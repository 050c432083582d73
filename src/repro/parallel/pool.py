"""Persistent worker-process pool with telemetry ship-back.

One pool implementation backs every parallel path in the library: the
batch scheduling engine (:mod:`repro.parallel.batch`), the Figure 7–9
simulation sweeps (:mod:`repro.experiments.simulation`) and anything an
embedder wants to fan out.  Design points:

- **Warm workers.**  Worker processes are started once and stay alive
  across :meth:`WorkerPool.map` calls, holding process-local state (the
  per-worker :class:`~repro.core.cache.ScheduleCache`, imported modules,
  allocator warmth) between tasks — the libnbc lesson that batch
  throughput comes from amortising setup across requests, not only from
  faster inner loops.
- **Deterministic results.**  Every payload is keyed by its submission
  index; :meth:`WorkerPool.map` reassembles results in submission order,
  so output never depends on completion order, chunking, worker count,
  or how many times an item had to be retried.
- **Chunked dispatch.**  Payloads travel in chunks to amortise queue
  round-trips; chunk size adapts to the payload count (override with
  ``chunk_size``).  Workers acknowledge each chunk as they pick it up,
  so the parent always knows which items are in whose hands.
- **Telemetry merge.**  When the parent has :mod:`repro.obs` enabled at
  pool creation, each worker records into its own
  :class:`~repro.obs.MetricsRegistry`; on :meth:`shutdown` the
  registries (histograms with full samples) and the per-worker schedule
  cache statistics are shipped back and merged into the parent's active
  registry, so ``--profile`` output stays complete under parallelism —
  including registries of workers respawned after a crash.  (Tracing
  spans are parent-process only.)
- **Fault tolerance.**  With a :class:`~repro.resilience.RetryPolicy`,
  a crashed worker is respawned and its in-flight items are retried
  (bounded by ``max_attempts``); a task that raises is retried the same
  way; a worker that exceeds the per-task deadline is killed, respawned
  and its chunk retried.  :class:`WorkerCrashError` is the *last*
  resort, raised only once retries are exhausted.  Without a policy the
  pool keeps its strict fail-fast contract: the first task failure
  raises :class:`WorkerTaskError`, a dead worker raises
  :class:`WorkerCrashError`, and a deadline overrun raises
  :class:`TaskTimeoutError` — never a silent hang.
- **Deterministic fault injection.**  A
  :class:`~repro.resilience.FaultPlan` with a nonzero
  ``worker_crash_rate`` makes workers crash on chosen ``(item,
  attempt)`` coordinates — reproducibly, for tests and chaos drills.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro import obs
from repro.core.cache import ScheduleCache
from repro.obs import live
from repro.obs.metrics import MetricsRegistry
from repro.util.errors import ConfigError, ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.faults import FaultPlan
    from repro.resilience.retry import RetryPolicy

__all__ = [
    "ParallelError",
    "WorkerTaskError",
    "WorkerCrashError",
    "TaskTimeoutError",
    "PoolReport",
    "WorkerPool",
    "resolve_jobs",
    "worker_cache",
]

#: Exit code used by deterministic crash injection (distinguishable from
#: a SIGKILL'd worker in ``ps`` output while debugging).
_CRASH_EXIT = 47


class ParallelError(ReproError):
    """Base class for batch/pool execution failures."""


class WorkerTaskError(ParallelError):
    """A task raised inside a worker; ``index`` names the failing item."""

    def __init__(self, index: int, detail: str) -> None:
        super().__init__(f"task {index} failed in worker: {detail}")
        self.index = index
        self.detail = detail


class WorkerCrashError(ParallelError):
    """A worker process died mid-batch (signal, OOM kill, interpreter abort)."""


class TaskTimeoutError(ParallelError):
    """A chunk exceeded its wall-clock deadline in a live (stuck) worker."""


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``jobs`` argument: ``None``/``0`` means one per CPU."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1 (or None for all CPUs), got {jobs}")
    return int(jobs)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: Process-local schedule cache, created in ``_worker_main``.  Task
#: functions reach it through :func:`worker_cache`; it lives as long as
#: the worker process, so repeated patterns across batches hit it.
_WORKER_CACHE: ScheduleCache | None = None


def worker_cache() -> ScheduleCache | None:
    """The calling worker process's schedule cache (None in the parent)."""
    return _WORKER_CACHE


def _worker_main(
    task: Callable,
    task_q,
    result_q,
    record_obs: bool,
    worker_id: int,
    epoch: int,
    cache_size: int,
    fault_plan: "FaultPlan | None",
    stream_spec: tuple[int | None, float | None] | None,
) -> None:
    """Worker loop: process chunks until a stop message arrives.

    ``epoch`` is this process's incarnation number for its pool slot —
    stamped on every telemetry message so the parent can tell a
    respawned worker's stream from its predecessor's.  ``stream_spec``
    is ``(items, seconds)``: ship a cumulative registry snapshot after
    every ``items`` completed payloads or ``seconds`` of wall time,
    whichever comes first (``None`` disables streaming).  Snapshots are
    cumulative, so any one of them supersedes all earlier ones — the
    parent folds them idempotently and the final snapshot keeps the
    merge-at-shutdown totals bit-identical to a non-streaming run.
    """
    global _WORKER_CACHE
    _WORKER_CACHE = ScheduleCache(maxsize=cache_size)
    registry: MetricsRegistry | None = None
    if record_obs:
        registry, _ = obs.enable(registry=MetricsRegistry())
    else:
        # Forked workers inherit the parent's obs state; make the
        # disabled case explicit so workers never write to a registry
        # object shared (copy-on-write) with the parent.
        obs.disable()
    stream_items = stream_seconds = None
    if registry is not None and stream_spec is not None:
        stream_items, stream_seconds = stream_spec
    streaming = stream_items is not None or stream_seconds is not None
    completed = 0
    stream_seq = 0
    last_stream_items = 0
    last_stream_t = time.monotonic()

    def maybe_stream() -> None:
        nonlocal stream_seq, last_stream_items, last_stream_t
        now = time.monotonic()
        due = (
            stream_items is not None
            and completed - last_stream_items >= stream_items
        ) or (
            stream_seconds is not None and now - last_stream_t >= stream_seconds
        )
        if not due:
            return
        stream_seq += 1
        last_stream_items = completed
        last_stream_t = now
        result_q.put(
            (
                "stream",
                worker_id,
                epoch,
                stream_seq,
                registry.snapshot(samples=True),
                _WORKER_CACHE.stats(),
            )
        )

    while True:
        message = task_q.get()
        if message[0] == "stop":
            snapshot = registry.snapshot(samples=True) if registry else {}
            result_q.put(
                ("final", worker_id, epoch, snapshot, _WORKER_CACHE.stats())
            )
            return
        _kind, chunk_id, chunk = message
        # Acknowledge pickup before any task code runs: the parent then
        # knows exactly which items die with this process.
        result_q.put(("taken", worker_id, chunk_id))
        results = []
        for index, attempt, payload in chunk:
            if fault_plan is not None and fault_plan.worker_crashes(
                index, attempt
            ):
                # Injected crash: die without cleanup or a final
                # message, like a SIGKILL'd worker.  The queue feeder
                # is flushed first so the pickup acknowledgement above
                # is not torn mid-write (a torn frame would corrupt the
                # result stream for every other worker).  The parent
                # recomputes this decision to account the fault.
                result_q.close()
                result_q.join_thread()
                os._exit(_CRASH_EXIT)
            try:
                results.append((index, True, task(payload)))
            except Exception as exc:  # ship it back; the worker stays warm
                results.append((index, False, f"{type(exc).__name__}: {exc}"))
            completed += 1
            if streaming:
                maybe_stream()
        result_q.put(("done", worker_id, chunk_id, results))


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


@dataclass
class PoolReport:
    """What :meth:`WorkerPool.shutdown` shipped back from the workers."""

    #: Per-worker metrics snapshots (empty dicts when obs was off).
    worker_metrics: list[dict] = field(default_factory=list)
    #: Per-worker ``ScheduleCache.stats()`` dicts.
    cache_stats: list[dict] = field(default_factory=list)


class _MapState:
    """Bookkeeping for one :meth:`WorkerPool.map` call."""

    def __init__(self, n: int) -> None:
        self.results: dict[int, object] = {}
        self.failed: dict[int, str] = {}
        self.attempts: dict[int, int] = {}
        #: chunk id -> [(index, attempt), ...] for every dispatched,
        #: unfinished chunk (whether or not a worker has taken it yet).
        self.outstanding: dict[tuple, list[tuple[int, int]]] = {}
        #: chunk id -> (worker slot, monotonic pickup time).
        self.taken: dict[tuple, tuple[int, float]] = {}
        #: worker slot -> chunk ids currently in its hands.
        self.worker_chunks: dict[int, set[tuple]] = {}
        self.unresolved = n
        self.seq = 0

    def resolved(self, index: int) -> bool:
        return index in self.results or index in self.failed


class WorkerPool:
    """Persistent pool of worker processes running one task function.

    ``task`` must be a module-level (picklable) callable taking a single
    payload argument.  The pool is reusable: call :meth:`map` any number
    of times, then :meth:`shutdown` (or use it as a context manager).

    ``record_obs`` defaults to whether :mod:`repro.obs` is enabled in
    the parent *at pool creation*; worker registries are merged into the
    parent's active registry at shutdown.

    ``retry`` (a :class:`~repro.resilience.RetryPolicy`) bounds how many
    times an item may be re-attempted after a task failure, a worker
    crash or a deadline overrun; without it the pool fails fast on the
    first incident.  ``task_timeout`` is the default per-chunk wall
    clock deadline in seconds (``None`` — also the ``retry`` policy's
    ``task_timeout`` when set — disables it); :meth:`map` can override
    it per call.  ``fault_plan`` enables deterministic worker-crash
    injection (see :mod:`repro.resilience.faults`).

    ``stall_grace`` is how long (seconds) the queues must stay silent
    before the watchdog re-dispatches pre-pickup orphaned chunks, and
    before a shutdown with a known-dead worker gives the survivors up
    for termination.  ``join_timeout`` bounds each ``Process.join`` when
    shutdown reaps workers.  Both default to the historical 1.0s; tests
    shrink them to keep crash scenarios fast.

    **Streaming telemetry.**  While ``record_obs`` is on, workers also
    ship *cumulative* registry snapshots mid-run — after every
    ``stream_items`` completed payloads or ``stream_seconds`` of wall
    time, whichever comes first (set both to ``None`` to disable).  The
    parent folds them into a thread-safe live aggregate, registered
    with :mod:`repro.obs.live` so a :class:`~repro.obs.server.MetricsServer`
    can serve worker-sourced counters *before* shutdown.  Because each
    snapshot is cumulative (idempotent, monotone), the final snapshot a
    worker sends at shutdown supersedes its whole stream, keeping the
    merged totals bit-identical to a non-streaming run; and when a
    worker crashes, its last streamed snapshot survives in the
    shutdown report instead of vanishing with the process.
    """

    def __init__(
        self,
        jobs: int | None,
        task: Callable,
        record_obs: bool | None = None,
        cache_size: int = 128,
        retry: "RetryPolicy | None" = None,
        task_timeout: float | None = None,
        fault_plan: "FaultPlan | None" = None,
        stall_grace: float = 1.0,
        join_timeout: float = 1.0,
        stream_items: int | None = 32,
        stream_seconds: float | None = 0.5,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.task = task
        self._record_obs = obs.enabled() if record_obs is None else record_obs
        self._retry = retry
        if task_timeout is None and retry is not None:
            task_timeout = retry.task_timeout
        if task_timeout is not None and task_timeout <= 0:
            raise ConfigError(
                f"task_timeout must be positive, got {task_timeout}"
            )
        if stall_grace <= 0:
            raise ConfigError(
                f"stall_grace must be positive, got {stall_grace}"
            )
        if join_timeout <= 0:
            raise ConfigError(
                f"join_timeout must be positive, got {join_timeout}"
            )
        if stream_items is not None and stream_items < 1:
            raise ConfigError(
                f"stream_items must be >= 1 (or None), got {stream_items}"
            )
        if stream_seconds is not None and stream_seconds <= 0:
            raise ConfigError(
                f"stream_seconds must be positive (or None), got {stream_seconds}"
            )
        self._task_timeout = task_timeout
        self._stall_grace = stall_grace
        self._join_timeout = join_timeout
        self._fault_plan = fault_plan
        self._cache_size = cache_size
        self._stream_spec = (
            (stream_items, stream_seconds)
            if (stream_items is not None or stream_seconds is not None)
            else None
        )
        self._streaming = self._record_obs and self._stream_spec is not None
        #: (worker slot, epoch) -> (stream seq, registry snapshot,
        #: cache stats) — the latest cumulative snapshot per incarnation.
        self._live: dict[tuple[int, int], tuple[int, dict, dict]] = {}
        self._live_lock = threading.Lock()
        self._closed = False
        self._generation = 0
        self._ctx = multiprocessing.get_context()
        self._task_q = self._ctx.Queue()
        self._result_q = self._ctx.Queue()
        self._workers: list = [None] * self.jobs
        self._epochs: list[int] = [0] * self.jobs
        for worker_id in range(self.jobs):
            self._spawn(worker_id)
        if self._streaming:
            live.add_live_source(self.live_metrics_snapshot)

    # ------------------------------------------------------------------

    def _spawn(self, worker_id: int) -> None:
        self._epochs[worker_id] += 1
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                self.task,
                self._task_q,
                self._result_q,
                self._record_obs,
                worker_id,
                self._epochs[worker_id],
                self._cache_size,
                self._fault_plan,
                self._stream_spec if self._streaming else None,
            ),
            daemon=True,
            name=f"repro-worker-{worker_id}",
        )
        proc.start()
        self._workers[worker_id] = proc

    def _respawn(self, worker_id: int) -> None:
        """Replace a dead or killed worker with a fresh process."""
        obs.metrics().counter("resilience.worker_respawns").inc()
        self._spawn(worker_id)
        obs.emit(
            "worker.respawn", worker=worker_id, epoch=self._epochs[worker_id]
        )

    def _kill(self, worker_id: int) -> None:
        """Forcibly terminate a live-but-stuck worker."""
        proc = self._workers[worker_id]
        if proc.exitcode is None:
            proc.terminate()
            proc.join(timeout=0.5)
            if proc.is_alive():  # pragma: no cover - SIGTERM ignored
                proc.kill()
                proc.join(timeout=0.5)

    def _dead_workers(self) -> list[int]:
        return [
            i
            for i, p in enumerate(self._workers)
            if p is not None and p.exitcode is not None
        ]

    # ------------------------------------------------------------------
    # Live telemetry
    # ------------------------------------------------------------------

    def _fold_stream(
        self,
        worker_id: int,
        epoch: int,
        seq: int,
        snapshot: dict,
        cache_stats: dict,
    ) -> None:
        """Keep the newest cumulative snapshot per worker incarnation."""
        key = (worker_id, epoch)
        with self._live_lock:
            current = self._live.get(key)
            if current is not None and current[0] >= seq:
                return  # stale or duplicate frame
            self._live[key] = (seq, snapshot, cache_stats)
        lookups = cache_stats.get("hits", 0) + cache_stats.get("misses", 0)
        if lookups:
            obs.emit(
                "cache.tick",
                worker=worker_id,
                hits=cache_stats.get("hits", 0),
                misses=cache_stats.get("misses", 0),
                hit_rate=round(cache_stats.get("hits", 0) / lookups, 4),
            )

    def live_metrics_snapshot(self) -> dict[str, dict]:
        """Merged snapshot of every streamed worker registry (with samples).

        This is the pool's live source for :mod:`repro.obs.live`: the
        metrics endpoint folds it together with the parent registry, so
        worker-side counters are visible *while* a map is running.
        """
        with self._live_lock:
            frames = [snapshot for _, snapshot, _ in self._live.values()]
        merged = MetricsRegistry()
        for snapshot in frames:
            if snapshot:
                merged.merge(MetricsRegistry.from_snapshot(snapshot))
        return merged.snapshot(samples=True)

    # ------------------------------------------------------------------

    def map(
        self,
        payloads: Iterable,
        chunk_size: int | None = None,
        timeout: float | None = None,
    ) -> list:
        """Run ``task`` over ``payloads``; results in submission order.

        ``timeout`` is a wall-clock deadline in seconds for each chunk,
        measured from the moment a worker picks it up (default: the
        pool's ``task_timeout``).  Raises :class:`WorkerTaskError` for
        the lowest-indexed payload whose task (after any retries)
        raised, :class:`WorkerCrashError` when a worker death cannot be
        retried away, and :class:`TaskTimeoutError` when a chunk
        overruns its deadline with retries exhausted or disabled.
        """
        if self._closed:
            raise ParallelError("pool already shut down")
        items: Sequence = list(payloads)
        n = len(items)
        if n == 0:
            return []
        if timeout is None:
            timeout = self._task_timeout
        if chunk_size is None:
            chunk_size = max(1, -(-n // (self.jobs * 4)))
        self._generation += 1
        gen = self._generation
        state = _MapState(n)

        def dispatch(pairs: list[tuple[int, int]]) -> None:
            chunk_id = (gen, state.seq)
            state.seq += 1
            state.outstanding[chunk_id] = list(pairs)
            self._task_q.put(
                ("chunk", chunk_id, [(i, a, items[i]) for i, a in pairs])
            )

        for lo in range(0, n, chunk_size):
            pairs = [(i, 1) for i in range(lo, min(lo + chunk_size, n))]
            for i, _ in pairs:
                state.attempts[i] = 1
            dispatch(pairs)

        retries_counter = obs.metrics().counter("resilience.retries")
        pool_retries = obs.metrics().counter("resilience.retries.pool")

        def settle_failure(index: int, detail: str) -> None:
            """Retry a failed item if allowed, else record it as final."""
            attempt = state.attempts[index]
            if self._retry is not None and self._retry.allows_retry(attempt):
                state.attempts[index] = attempt + 1
                retries_counter.inc()
                pool_retries.inc()
                dispatch([(index, attempt + 1)])
            else:
                state.failed[index] = detail
                state.unresolved -= 1

        # -- incident handling -----------------------------------------

        def reclaim(worker_id: int) -> list[tuple[int, int]]:
            """Forget a lost worker's chunks; return its unfinished items."""
            lost: list[tuple[int, int]] = []
            for chunk_id in sorted(state.worker_chunks.pop(worker_id, ())):
                pairs = state.outstanding.pop(chunk_id, [])
                state.taken.pop(chunk_id, None)
                lost.extend(p for p in pairs if not state.resolved(p[0]))
            return lost

        def account_injected_crash(lost: list[tuple[int, int]]) -> None:
            """Recompute (deterministically) whether this crash was injected."""
            if self._fault_plan is None:
                return
            from repro.resilience.faults import count_fault

            if any(self._fault_plan.worker_crashes(i, a) for i, a in lost):
                count_fault("worker_crash")

        def recover_or_raise(
            worker_id: int, lost: list[tuple[int, int]], why: str,
            error: type[ParallelError],
        ) -> None:
            """Respawn ``worker_id``; retry ``lost`` or raise ``error``."""
            if self._retry is None:
                self._respawn(worker_id)
                missing = sorted(
                    i for i in range(n) if not state.resolved(i)
                )
                raise error(
                    f"worker process {worker_id} {why}; "
                    f"items not completed: {missing[:20]}"
                    + ("..." if len(missing) > 20 else "")
                )
            exhausted = [(i, a) for i, a in lost if not self._retry.allows_retry(a)]
            if exhausted:
                self._respawn(worker_id)
                raise error(
                    f"worker process {worker_id} {why}; retries exhausted "
                    f"(max_attempts={self._retry.max_attempts}) for items "
                    f"{sorted(i for i, _ in exhausted)[:20]}"
                )
            self._respawn(worker_id)
            if lost:
                retries_counter.inc(len(lost))
                pool_retries.inc(len(lost))
            for i, a in lost:
                # One item per retry chunk: a chunk crashes if *any* of
                # its items does, so retrying items together would burn
                # the attempt budget of every innocent chunk-mate.
                state.attempts[i] = a + 1
                dispatch([(i, a + 1)])

        def handle_dead_workers() -> None:
            for worker_id in self._dead_workers():
                lost = reclaim(worker_id)
                account_injected_crash(lost)
                obs.emit(
                    "worker.crash",
                    worker=worker_id,
                    epoch=self._epochs[worker_id],
                    exitcode=self._workers[worker_id].exitcode,
                    items_lost=len(lost),
                )
                recover_or_raise(
                    worker_id, lost, "died mid-batch", WorkerCrashError
                )

        def handle_deadline_overruns(now: float) -> None:
            for chunk_id, (worker_id, taken_at) in list(state.taken.items()):
                if now - taken_at <= timeout:
                    continue
                # The worker is alive but silent past the deadline:
                # deadlocked or stuck.  Kill it so its slot can respawn.
                self._kill(worker_id)
                lost = reclaim(worker_id)
                recover_or_raise(
                    worker_id,
                    lost,
                    f"exceeded the {timeout:g}s task deadline",
                    TaskTimeoutError,
                )

        def watchdog_requeue(last_event: float, now: float) -> bool:
            """Re-dispatch chunks that vanished with a worker pre-pickup.

            A worker can die in the instant between taking a chunk off
            the queue and acknowledging it; such a chunk is in nobody's
            hands.  If every worker is idle (nothing acknowledged), some
            chunks are unaccounted for, and the queues have been silent
            for a grace period, those chunks are re-dispatched.  Results
            are keyed by submission index, so in the rare race where the
            original chunk *was* still queued and both copies run, the
            duplicate results are identical and harmless.
            """
            if self._retry is None or state.taken or not state.outstanding:
                return False
            if now - last_event < self._stall_grace:
                return False
            stale = [cid for cid in state.outstanding if cid not in state.taken]
            requeued = 0
            for chunk_id in stale:
                for i, a in state.outstanding.pop(chunk_id):
                    if not state.resolved(i) and self._retry.allows_retry(a):
                        state.attempts[i] = a + 1
                        dispatch([(i, a + 1)])
                        requeued += 1
            if requeued:
                retries_counter.inc(requeued)
                pool_retries.inc(requeued)
            return True

        # -- result loop ----------------------------------------------

        queue_depth = obs.metrics().gauge("parallel.pool.queue_depth")
        items_done = obs.metrics().counter("parallel.pool.items_done")
        queue_depth.set(state.unresolved)

        poll = 1.0
        if timeout is not None:
            poll = max(0.01, min(0.1, timeout / 4.0))
        elif self._retry is not None:
            poll = 0.25
        last_event = time.monotonic()
        while state.unresolved:
            try:
                message = self._result_q.get(timeout=poll)
            except queue.Empty:
                now = time.monotonic()
                handle_dead_workers()
                if timeout is not None:
                    handle_deadline_overruns(now)
                if watchdog_requeue(last_event, now):
                    last_event = now
                continue
            last_event = time.monotonic()
            kind = message[0]
            if kind == "taken":
                _tag, worker_id, chunk_id = message
                if chunk_id[0] != gen or chunk_id not in state.outstanding:
                    continue  # stale chunk from an aborted map
                state.taken[chunk_id] = (worker_id, last_event)
                state.worker_chunks.setdefault(worker_id, set()).add(chunk_id)
            elif kind == "done":
                _tag, worker_id, chunk_id, chunk_results = message
                if chunk_id[0] != gen:
                    continue
                state.outstanding.pop(chunk_id, None)
                state.taken.pop(chunk_id, None)
                state.worker_chunks.get(worker_id, set()).discard(chunk_id)
                for index, ok, value in chunk_results:
                    if state.resolved(index):
                        continue  # duplicate from a requeued chunk
                    if ok:
                        state.results[index] = value
                        state.unresolved -= 1
                        items_done.inc()
                    else:
                        settle_failure(index, value)
                queue_depth.set(state.unresolved)
            elif kind == "stream":
                _tag, worker_id, epoch, seq, snapshot, cache_stats = message
                self._fold_stream(worker_id, epoch, seq, snapshot, cache_stats)
            elif kind == "final":  # pragma: no cover - protocol guard
                continue  # late shutdown echo; never expected mid-map
            else:  # pragma: no cover - protocol guard
                raise ParallelError(f"unexpected pool message {kind!r}")

        queue_depth.set(0)
        if state.failed:
            index = min(state.failed)
            raise WorkerTaskError(index, state.failed[index])
        return [state.results[i] for i in range(n)]

    # ------------------------------------------------------------------

    def shutdown(self, timeout: float = 10.0) -> PoolReport:
        """Stop the workers, merge their telemetry, return the report.

        Idempotent; after the first call the pool is unusable.  Worker
        metrics registries are merged into the parent's *currently
        active* registry (a no-op when obs is disabled in the parent).
        Workers that already died contribute their last *streamed*
        snapshot (if any) instead of vanishing, and cost nothing to
        wait for: only live workers are stopped and waited for, so
        shutdown under pre-crashed workers returns promptly instead of
        stalling on queue timeouts.
        """
        if self._closed:
            return PoolReport()
        self._closed = True
        if self._streaming:
            live.remove_live_source(self.live_metrics_snapshot)
        remaining = {
            i
            for i, p in enumerate(self._workers)
            if p is not None and p.exitcode is None
        }
        for _ in remaining:
            self._task_q.put(("stop",))
        report = PoolReport()
        #: Incarnations that answered with a final (authoritative,
        #: cumulative) snapshot; their streamed frames are superseded.
        finalized: set[tuple[int, int]] = set()
        deadline = time.monotonic() + timeout
        last_message = time.monotonic()
        while remaining and time.monotonic() < deadline:
            try:
                message = self._result_q.get(timeout=0.2)
            except queue.Empty:
                # A worker that died after the stop was sent can never
                # answer; drop it rather than waiting out the deadline.
                remaining -= {
                    i for i in remaining if self._workers[i].exitcode is not None
                }
                # A worker killed while blocked inside ``task_q.get()``
                # dies holding the queue's shared lock, so survivors can
                # never pick up their stop messages.  Once any worker is
                # known dead, a short stall means exactly that: give the
                # survivors up for termination instead of waiting out
                # the full deadline.
                any_dead = any(
                    p is not None and p.exitcode is not None
                    for p in self._workers
                )
                if any_dead and time.monotonic() - last_message > self._stall_grace:
                    break
                continue
            last_message = time.monotonic()
            if message[0] == "stream":
                _tag, worker_id, epoch, seq, snapshot, cache_stats = message
                self._fold_stream(worker_id, epoch, seq, snapshot, cache_stats)
                continue
            if message[0] != "final":
                continue  # late task results from an aborted map
            _tag, worker_id, epoch, snapshot, cache_stats = message
            report.worker_metrics.append(snapshot)
            report.cache_stats.append(cache_stats)
            finalized.add((worker_id, epoch))
            remaining.discard(worker_id)
        # Crashed (or unreachable) incarnations never sent a final: fall
        # back to the last cumulative snapshot they streamed, so their
        # telemetry survives the crash instead of being lost — clean
        # runs are unaffected because every final supersedes its stream.
        with self._live_lock:
            leftovers = sorted(
                key for key in self._live if key not in finalized
            )
            for key in leftovers:
                _seq, snapshot, cache_stats = self._live[key]
                report.worker_metrics.append(snapshot)
                report.cache_stats.append(cache_stats)
        for proc in self._workers:
            proc.join(timeout=self._join_timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=self._join_timeout)
        registry = obs.metrics()
        if isinstance(registry, MetricsRegistry):
            for snapshot in report.worker_metrics:
                if snapshot:
                    registry.merge(MetricsRegistry.from_snapshot(snapshot))
        return report

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"WorkerPool(jobs={self.jobs}, task={self.task.__name__}, {state})"
