"""The ``kpbs serve`` asyncio daemon.

One long-lived process multiplexing many concurrent clients onto a
single shared warm :class:`~repro.parallel.pool.WorkerPool` and
:class:`~repro.core.cache.ScheduleCache`:

- **replay** — a repeated graph-blob schedule request is answered with
  the response frame sent the first time (an LRU memo bounded by
  ``cache_size``), before any decode, compute-lock wait or encode;
- **framing** — every connection speaks KPBR
  (:mod:`repro.serve.protocol`); a malformed frame gets a structured
  error frame and a close, never a crash or a hang, and a per-read
  timeout caps how long a slow-loris client can hold a handler;
- **admission** — per-tenant token-bucket quotas and a bounded
  round-robin-fair queue (:mod:`repro.serve.admission`); an over-quota
  or queue-full request is shed immediately with a ``RETRY_AFTER``
  response whose backoff hint reuses
  :class:`~repro.resilience.retry.RetryPolicy` semantics;
- **deadlines** — each request carries (or inherits) a deadline; a
  request that cannot be answered in time gets ``DEADLINE_EXPIRED``
  and its parked work is cancelled (work already running on a compute
  thread finishes into a dropped future — the *client* never waits
  past its deadline);
- **degradation** — sustained queue pressure walks the
  :class:`~repro.serve.admission.DegradationLadder`: engine drops to
  ``approx``, then algorithm to ``greedy``; degraded responses say so;
- **crash resumability** — transfer requests journal through
  :class:`~repro.resilience.journal.CheckpointStore` under the state
  directory (:mod:`repro.serve.runs`); on startup the daemon finishes
  whatever a SIGKILL left behind before reporting ready;
- **observability** — ``serve.*`` counters/gauges/timers, ``server.*``
  events, and the :class:`~repro.obs.server.MetricsServer` endpoints
  (``/metrics``, ``/events.json``, ``/healthz`` with ready=false while
  resuming or shedding).
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import os
import time
import traceback
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.serve.admission import (
    DegradationLadder,
    FairQueue,
    LadderConfig,
    QueueItem,
    TenantQuotas,
)
from repro.serve.protocol import (
    DEFAULT_MAX_PAYLOAD,
    FRAME_ERROR,
    FRAME_REQUEST,
    FRAME_RESPONSE,
    ProtocolError,
    encode_frame,
    error_response,
    ok_response,
    read_frame,
    retry_response,
)
from repro.serve.runs import RunActiveError, RunRegistry
from repro.util.errors import ConfigError, ReproError

__all__ = ["ServeConfig", "ScheduleServer", "BackgroundServer"]

#: Ops a request document may name.
_OPS = ("ping", "status", "schedule", "transfer", "run_status")


def _internal_error(where: str, exc: Exception) -> dict:
    """Count and log an unexpected failure; returns the error to answer."""
    detail = f"{type(exc).__name__}: {exc}"
    obs.metrics().counter("serve.internal_errors").inc()
    obs.emit(
        "server.error", where=where, error=detail,
        traceback="".join(traceback.format_exception(exc)),
    )
    return error_response("INTERNAL", detail)


@dataclass
class ServeConfig:
    """Tunables of one daemon instance (all have serving defaults)."""

    host: str = "127.0.0.1"
    port: int = 0                      # 0 = ephemeral
    socket_path: str | None = None     # unix socket instead of TCP
    state_dir: str | None = None       # enables journaled transfer ops
    jobs: int = 1                      # worker processes (1 = in-process)
    max_queue: int = 64                # bounded admission queue
    max_batch: int = 16                # schedule requests per micro-batch
    max_transfers: int = 2             # concurrent transfer executions
    tenant_rate: float | None = None   # requests/sec/tenant (None = off)
    tenant_burst: float | None = None
    default_deadline: float = 30.0     # seconds; requests may override
    idle_timeout: float = 30.0         # per-read slow-loris guard
    max_payload: int = DEFAULT_MAX_PAYLOAD
    metrics_port: int | None = 0       # None disables the HTTP endpoint
    fsync: str = "round"
    snapshot_every: int = 8
    cache_size: int = 256
    ladder: LadderConfig = field(default_factory=LadderConfig)

    def __post_init__(self) -> None:
        if self.default_deadline <= 0:
            raise ConfigError(
                f"default_deadline must be positive, got "
                f"{self.default_deadline}"
            )
        if self.idle_timeout <= 0:
            raise ConfigError(
                f"idle_timeout must be positive, got {self.idle_timeout}"
            )
        if self.max_batch <= 0 or self.max_transfers <= 0:
            raise ConfigError("max_batch and max_transfers must be positive")


class ScheduleServer:
    """The daemon: listener + dispatcher over shared warm state."""

    def __init__(self, config: ServeConfig) -> None:
        from repro.core.cache import ScheduleCache
        from repro.resilience.retry import RetryPolicy

        self.config = config
        self.cache = ScheduleCache(maxsize=config.cache_size)
        self.quotas = TenantQuotas(config.tenant_rate, config.tenant_burst)
        self.queue = FairQueue(config.max_queue)
        self.ladder = DegradationLadder(config.ladder)
        #: Backoff hints for queue-full sheds follow the stock
        #: RetryPolicy curve keyed by the client-reported attempt.
        self.shed_policy = RetryPolicy(max_attempts=1000, backoff_base=0.05)
        self.registry: RunRegistry | None = None
        if config.state_dir:
            self.registry = RunRegistry(
                config.state_dir,
                fsync=config.fsync,
                snapshot_every=config.snapshot_every,
                cache=self.cache,
            )
        self.resumed_results: list[dict] = []
        #: ``(algorithm, engine, k, beta, KPBW blob)`` -> the KPBR frame
        #: of its ok answer, least recently used first.
        self._answers: OrderedDict[tuple, bytes] = OrderedDict()
        self._pool = None
        self._executor: ThreadPoolExecutor | None = None
        self._metrics_server = None
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._tasks: set[asyncio.Task] = set()
        self._started = False
        self._resuming = False
        self._shutting_down = False
        self._start_time = 0.0

    # -- health ----------------------------------------------------------

    def health(self) -> dict:
        """The ``/healthz`` document (ready gates on resume + shedding)."""
        shedding = self.queue.full
        return {
            "live": True,
            "ready": (
                self._started
                and not self._resuming
                and not self._shutting_down
                and not shedding
            ),
            "resuming": self._resuming,
            "shedding": shedding,
            "queue_depth": self.queue.depth,
            "degraded_level": self.ladder.level,
        }

    @property
    def address(self) -> str:
        """``host:port`` or ``unix:<path>`` once the listener is up."""
        if self.config.socket_path:
            return f"unix:{self.config.socket_path}"
        if self._server is None or not self._server.sockets:
            raise ConfigError("serve daemon is not listening yet")
        host, port = self._server.sockets[0].getsockname()[:2]
        return f"{host}:{port}"

    @property
    def metrics_url(self) -> str | None:
        if self._metrics_server is None:
            return None
        return self._metrics_server.url

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> "ScheduleServer":
        from repro.obs.server import MetricsServer
        from repro.parallel import make_schedule_pool

        self._loop = asyncio.get_running_loop()
        self._queue_event = asyncio.Event()
        self._resumed = asyncio.Event()
        self._stopped = asyncio.Event()
        self._compute_lock = asyncio.Lock()
        self._transfer_sem = asyncio.Semaphore(self.config.max_transfers)
        self._start_time = time.monotonic()
        # Enable observability for the daemon's lifetime, but remember
        # whether it was on already so stop() can restore the ambient
        # state (in-process servers must not leak global obs state).
        self._obs_enabled_here = not obs.enabled()
        if self._obs_enabled_here:
            obs.enable()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_transfers + 2,
            thread_name_prefix="kpbs-serve",
        )
        if self.config.jobs != 1:  # 0/None = one worker per CPU
            self._pool = make_schedule_pool(self.config.jobs or None)
        if self.config.metrics_port is not None:
            self._metrics_server = MetricsServer(
                port=self.config.metrics_port, health_fn=self.health
            ).start()
        if self.config.socket_path:
            path = Path(self.config.socket_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            if path.exists():
                path.unlink()
            self._server = await asyncio.start_unix_server(
                self._on_connect, path=str(path)
            )
        else:
            self._server = await asyncio.start_server(
                self._on_connect, self.config.host, self.config.port
            )
        self._track(asyncio.create_task(self._dispatch_loop()))
        if self.registry is not None and self.registry.incomplete_runs():
            self._resuming = True
            self._track(asyncio.create_task(self._resume_runs()))
        else:
            self._resumed.set()
        self._started = True
        obs.emit("server.start", address=self.address, jobs=self.config.jobs)
        return self

    async def _resume_runs(self) -> None:
        """Finish what a crashed predecessor left behind, then go ready."""
        try:
            results = await self._loop.run_in_executor(
                self._executor, self.registry.resume_incomplete
            )
            self.resumed_results = results
            obs.metrics().counter("serve.runs_resumed").inc(len(results))
        except Exception as exc:  # never kill the daemon over a bad run
            obs.metrics().counter("serve.internal_errors").inc()
            obs.emit("server.error", where="resume", error=str(exc))
        finally:
            self._resuming = False
            self._resumed.set()
            obs.emit("server.ready", resumed=len(self.resumed_results))

    async def stop(self) -> None:
        """Graceful shutdown; safe to call more than once."""
        if self._shutting_down:
            await self._stopped.wait()
            return
        self._shutting_down = True
        obs.emit("server.stop", address=self.address)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for item in self.queue.drain_all():
            self._resolve(
                item, error_response("SHUTTING_DOWN", "daemon stopping")
            )
        self._queue_event.set()
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        if self._pool is not None:
            await self._loop.run_in_executor(None, self._pool.shutdown)
            self._pool = None
        if self._executor is not None:
            await self._loop.run_in_executor(
                None, functools.partial(self._executor.shutdown, wait=True)
            )
            self._executor = None
        if self._metrics_server is not None:
            self._metrics_server.shutdown()
            self._metrics_server = None
        if self.config.socket_path:
            with contextlib.suppress(OSError):
                os.unlink(self.config.socket_path)
        if getattr(self, "_obs_enabled_here", False):
            obs.disable()
            self._obs_enabled_here = False
        self._stopped.set()

    def request_stop(self) -> None:
        """Thread/signal-safe shutdown trigger."""
        if self._loop is None:
            return
        self._loop.call_soon_threadsafe(
            lambda: asyncio.ensure_future(self.stop())
        )

    async def wait_ready(self) -> None:
        """Blocks until startup crash recovery (if any) has finished."""
        await self._resumed.wait()

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    async def serve_forever(self) -> None:
        """Start, handle SIGTERM/SIGINT gracefully, block until stopped."""
        import signal as _signal

        await self.start()
        for signum in (_signal.SIGTERM, _signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                self._loop.add_signal_handler(signum, self.request_stop)
        await self.wait_stopped()

    # -- connection handling ----------------------------------------------

    def _track(self, task: asyncio.Task) -> None:
        self._tasks.add(task)
        task.add_done_callback(self._untrack)

    def _untrack(self, task: asyncio.Task) -> None:
        self._tasks.discard(task)
        if task.cancelled():
            return
        exc = task.exception()
        if exc is not None:  # a handler bug must not go unnoticed or fatal
            obs.metrics().counter("serve.internal_errors").inc()
            obs.emit(
                "server.error", where="task", error=f"{type(exc).__name__}: {exc}"
            )

    async def _send(
        self, writer: asyncio.StreamWriter, answer: dict | bytes
    ) -> None:
        """Write an answer document, or a stored frame as it is."""
        if isinstance(answer, dict):
            frame_type = (
                FRAME_ERROR if answer.get("status") == "error"
                else FRAME_RESPONSE
            )
            answer = encode_frame(frame_type, answer)
        writer.write(answer)
        # A reader that stops draining its socket must not pin this
        # handler: bound the flush like every read.
        await asyncio.wait_for(writer.drain(), self.config.idle_timeout)

    async def _on_connect(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        metrics = obs.metrics()
        metrics.counter("serve.connections_total").inc()
        self._track(asyncio.current_task())
        try:
            while not self._shutting_down:
                frame = await read_frame(
                    reader,
                    max_payload=self.config.max_payload,
                    timeout=self.config.idle_timeout,
                )
                if frame is None:
                    break
                frame_type, doc, blob = frame
                if frame_type != FRAME_REQUEST:
                    await self._send(
                        writer,
                        error_response(
                            "BAD_FRAME",
                            f"expected a request frame, got type {frame_type}",
                        ),
                    )
                    break
                response = await self._handle_request(doc, blob)
                await self._send(writer, response)
        except asyncio.CancelledError:
            # stop() cancels open handlers.  Returning normally (the
            # writer still closes below) keeps the stream protocol's
            # done-callback from logging the cancellation as an error.
            if not self._shutting_down:
                raise
        except ProtocolError as exc:
            # Malformed/corrupt/stalled frame: answer with a structured
            # error when the socket still works, then drop the
            # connection — after a framing error the stream offset
            # cannot be trusted.
            metrics.counter("serve.malformed_frames").inc()
            obs.emit("server.bad_frame", error=str(exc))
            with contextlib.suppress(Exception):
                await self._send(
                    writer, error_response("BAD_FRAME", str(exc))
                )
        except (ConnectionError, asyncio.TimeoutError):
            pass  # client vanished mid-write; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except asyncio.CancelledError:
                # stop() may cancel a handler that is already closing.
                if not self._shutting_down:
                    raise
            except Exception:
                pass  # the peer is gone; the writer is closed either way

    # -- request handling -------------------------------------------------

    async def _handle_request(self, doc: dict, blob: bytes) -> dict | bytes:
        metrics = obs.metrics()
        op = str(doc.get("op", ""))
        tenant = str(doc.get("tenant") or "default")
        metrics.counter("serve.requests_total").inc()
        metrics.counter(f"serve.requests.{op or 'unknown'}").inc()
        started = time.monotonic()
        try:
            if self._shutting_down:
                return error_response("SHUTTING_DOWN", "daemon stopping")
            if op == "ping":
                return ok_response(op="ping")
            if op == "status":
                return self._status_doc()
            if op == "run_status":
                return await self._run_status(doc)
            if op in ("schedule", "transfer"):
                return await self._admit_and_wait(op, tenant, doc, blob)
            return error_response(
                "UNKNOWN_OP",
                f"unknown op {op!r}; valid ops: {', '.join(_OPS)}",
            )
        except asyncio.CancelledError:
            raise
        except (ConfigError, ProtocolError, ReproError) as exc:
            return error_response("BAD_REQUEST", str(exc))
        except Exception as exc:  # the daemon must answer, never die
            return _internal_error(f"op:{op}", exc)
        finally:
            metrics.histogram("serve.request.seconds", max_samples=4096).observe(
                time.monotonic() - started
            )

    def _status_doc(self) -> dict:
        doc = ok_response(
            op="status",
            address=self.address,
            uptime_s=round(time.monotonic() - self._start_time, 3),
            queue_depth=self.queue.depth,
            max_queue=self.config.max_queue,
            degraded_level=self.ladder.level,
            resuming=self._resuming,
            jobs=self.config.jobs,
            tenants=self.quotas.tenants,
            transfers_enabled=self.registry is not None,
        )
        if self.registry is not None:
            doc["runs"] = self.registry.list_runs()
            doc["runs_resumed"] = len(self.resumed_results)
        return doc

    async def _run_status(self, doc: dict) -> dict:
        if self.registry is None:
            return error_response(
                "BAD_REQUEST",
                "daemon started without --state-dir; run ops are disabled",
            )
        run_id = str(doc.get("run_id") or "")
        status = await self._loop.run_in_executor(
            self._executor, self.registry.status, run_id
        )
        return ok_response(op="run_status", **status)

    async def _admit_and_wait(
        self, op: str, tenant: str, doc: dict, blob: bytes
    ) -> dict | bytes:
        metrics = obs.metrics()
        if op == "transfer" and self.registry is None:
            return error_response(
                "BAD_REQUEST",
                "daemon started without --state-dir; transfer ops are "
                "disabled",
            )
        wait = self.quotas.admit(tenant)
        if wait > 0.0:
            metrics.counter("serve.shed_total").inc()
            metrics.counter("serve.shed.quota").inc()
            obs.emit(
                "server.shed", tenant=tenant, reason="quota",
                retry_after=round(wait, 6),
            )
            return retry_response(
                wait, f"tenant {tenant!r} is over its request quota",
                tenant=tenant,
            )
        deadline_s = float(doc.get("deadline_s", self.config.default_deadline))
        now = self._loop.time()
        item = QueueItem(
            tenant=tenant,
            op=op,
            doc=doc,
            blob=blob,
            future=self._loop.create_future(),
            enqueued_at=now,
            deadline_at=now + deadline_s if deadline_s > 0 else None,
        )
        if not self.queue.push(item):
            attempt = max(1, int(doc.get("attempt", 1)))
            hint = self.shed_policy.delay(min(attempt, 16))
            metrics.counter("serve.shed_total").inc()
            metrics.counter("serve.shed.queue_full").inc()
            obs.emit(
                "server.shed", tenant=tenant, reason="queue_full",
                retry_after=round(hint, 6),
            )
            return retry_response(
                hint, "admission queue is full",
                queue_depth=self.queue.depth, tenant=tenant,
            )
        self.ladder.observe(self.queue.depth, self.config.max_queue)
        metrics.gauge("serve.queue_depth").set(self.queue.depth)
        self._queue_event.set()
        try:
            if deadline_s > 0:
                return await asyncio.wait_for(item.future, deadline_s)
            return await item.future
        except asyncio.TimeoutError:
            metrics.counter("serve.deadline_expired").inc()
            obs.emit(
                "server.deadline", tenant=tenant, op=op,
                deadline_s=deadline_s,
            )
            return error_response(
                "DEADLINE_EXPIRED",
                f"request exceeded its {deadline_s}s deadline",
                deadline_s=deadline_s,
            )

    # -- dispatch ---------------------------------------------------------

    def _resolve(self, item: QueueItem, answer: dict | bytes) -> None:
        if not item.future.done():
            item.future.set_result(answer)

    async def _dispatch_loop(self) -> None:
        while not self._shutting_down:
            item = self.queue.pop()
            if item is None:
                self._queue_event.clear()
                await self._queue_event.wait()
                continue
            obs.metrics().gauge("serve.queue_depth").set(self.queue.depth)
            if (
                item.deadline_at is not None
                and self._loop.time() >= item.deadline_at
            ):
                # Expired while parked: answer (the waiter usually beat
                # us to it) without spending any compute.
                self._resolve(
                    item,
                    error_response(
                        "DEADLINE_EXPIRED", "deadline expired while queued"
                    ),
                )
                continue
            if item.future.done():
                continue  # waiter timed out or connection died
            if item.op == "schedule":
                batch = [item] + self.queue.drain_op(
                    "schedule", self.config.max_batch - 1
                )
                self._track(
                    asyncio.create_task(self._run_schedule_batch(batch))
                )
            else:
                self._track(asyncio.create_task(self._run_transfer(item)))

    # -- schedule op ------------------------------------------------------

    def _parse_schedule_request(self, doc: dict, blob: bytes):
        """``(algorithm, engine, k, beta)``; the graph is not decoded."""
        from repro.core.wrgp import VALID_ENGINES
        from repro.parallel import BATCH_ALGORITHMS

        algorithm = str(doc.get("algorithm", "oggp"))
        engine = str(doc.get("engine", "fast"))
        if algorithm not in BATCH_ALGORITHMS:
            raise ConfigError(
                f"unknown algorithm {algorithm!r}; valid algorithms: "
                + ", ".join(BATCH_ALGORITHMS)
            )
        if engine not in VALID_ENGINES:
            raise ConfigError(
                f"unknown engine {engine!r}; valid engines: "
                + ", ".join(VALID_ENGINES)
            )
        try:
            k = int(doc.get("k", 1))
            beta = float(doc.get("beta", 0.0))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad k/beta: {exc}") from exc
        if k < 1:
            raise ConfigError(f"k must be >= 1, got {k}")
        if beta < 0:
            raise ConfigError(f"beta must be >= 0, got {beta}")
        if not blob and doc.get("matrix") is None:
            raise ConfigError(
                "schedule request needs a 'matrix' field or a KPBW graph "
                "blob"
            )
        return algorithm, engine, k, beta

    @staticmethod
    def _request_graph(doc: dict, blob: bytes):
        """The request's graph: its KPBW blob, or else its traffic matrix."""
        from repro.graph.generators import from_traffic_matrix
        from repro.parallel import decode_graph

        if blob:
            return decode_graph(blob)
        try:
            return from_traffic_matrix(doc["matrix"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad traffic matrix: {exc}") from exc

    async def _run_schedule_batch(self, items: list[QueueItem]) -> None:
        level = self.ladder.observe(self.queue.depth, self.config.max_queue)
        metrics = obs.metrics()
        metrics.gauge("serve.degraded_level").set(level)
        groups: dict[tuple, list] = {}
        for item in items:
            if item.future.done():
                continue
            try:
                algorithm, engine, k, beta = self._parse_schedule_request(
                    item.doc, item.blob
                )
                algorithm, engine, degraded = self.ladder.apply(
                    algorithm, engine
                )
                # A repeated graph blob gets the frame its first answer
                # was sent in.  Degraded answers are never stored, and
                # matrix requests are not replayed: JSON 1 and 1.0 are
                # one request but two answers.
                memo_key = None
                if item.blob and not degraded:
                    memo_key = (algorithm, engine, k, beta, item.blob)
                    frame = self._answers.get(memo_key)
                    if frame is not None:
                        self._answers.move_to_end(memo_key)
                        metrics.counter("serve.answer_cache.hits").inc()
                        metrics.counter("serve.schedules_total").inc()
                        self._resolve(item, frame)
                        continue
                    metrics.counter("serve.answer_cache.misses").inc()
                graph = self._request_graph(item.doc, item.blob)
            except (ConfigError, ProtocolError, ReproError) as exc:
                self._resolve(item, error_response("BAD_REQUEST", str(exc)))
                continue
            except Exception as exc:  # must not strand the rest of the batch
                self._resolve(item, _internal_error("schedule_parse", exc))
                continue
            groups.setdefault((algorithm, engine, k, beta), []).append(
                (item, graph, degraded, memo_key)
            )
        if not groups:
            return
        # One shared pool: batches serialize on the compute lock, and
        # each group becomes a single schedule_batch fan-out.
        async with self._compute_lock:
            for (algorithm, engine, k, beta), entries in groups.items():
                graphs = [graph for _, graph, *_ in entries]
                work = functools.partial(
                    self._compute_group, graphs, algorithm, engine, k, beta
                )
                try:
                    schedules, bounds = await self._loop.run_in_executor(
                        self._executor, work
                    )
                except (ConfigError, ReproError) as exc:
                    for item, *_ in entries:
                        self._resolve(
                            item, error_response("BAD_REQUEST", str(exc))
                        )
                    continue
                except Exception as exc:
                    error = _internal_error("schedule_batch", exc)
                    for item, *_ in entries:
                        self._resolve(item, error)
                    continue
                for (item, _, degraded, memo_key), sched, bound in zip(
                    entries, schedules, bounds
                ):
                    metrics.counter("serve.schedules_total").inc()
                    try:
                        answer = ok_response(
                            op="schedule",
                            schedule=sched.to_dict(),
                            cost=sched.cost,
                            num_steps=sched.num_steps,
                            lower_bound=bound,
                            algorithm=algorithm,
                            engine=engine,
                            degraded=degraded,
                            degraded_level=level if degraded else 0,
                        )
                        if memo_key is not None:
                            answer = encode_frame(FRAME_RESPONSE, answer)
                            self._answers[memo_key] = answer
                            if len(self._answers) > self.config.cache_size:
                                self._answers.popitem(last=False)
                    except Exception as exc:  # must not strand the batch
                        answer = _internal_error("schedule_answer", exc)
                    self._resolve(item, answer)

    def _compute_group(self, graphs, algorithm, engine, k, beta):
        """Executor-thread body: schedules plus their lower bounds."""
        from repro.core.bounds import lower_bound
        from repro.parallel import schedule_batch

        with obs.phase("serve.schedule_batch"):
            schedules = schedule_batch(
                graphs, algorithm, k, beta,
                engine=engine, cache=self.cache,
                pool=self._pool, jobs=1,
            )
        bounds = [lower_bound(g, k, beta) for g in graphs]
        return schedules, bounds

    # -- transfer op ------------------------------------------------------

    async def _run_transfer(self, item: QueueItem) -> None:
        metrics = obs.metrics()
        # Crash recovery owns the journals until it finishes; new
        # transfers queue up behind it (their deadline still applies —
        # the waiter side times out independently).
        await self._resumed.wait()
        async with self._transfer_sem:
            if item.future.done():
                return
            run_id = str(item.doc.get("run_id") or "")
            params = item.doc.get("params") or {}
            if not isinstance(params, dict):
                self._resolve(
                    item,
                    error_response(
                        "BAD_REQUEST", "'params' must be a JSON object"
                    ),
                )
                return
            obs.emit("server.transfer", run_id=run_id, tenant=item.tenant)
            try:
                with obs.phase("serve.transfer"):
                    result = await self._loop.run_in_executor(
                        self._executor,
                        self.registry.execute, run_id, params,
                    )
            except RunActiveError as exc:
                self._resolve(item, error_response("RUN_ACTIVE", str(exc)))
                return
            except (ConfigError, ReproError) as exc:
                self._resolve(item, error_response("BAD_REQUEST", str(exc)))
                return
            except Exception as exc:
                self._resolve(item, _internal_error("transfer", exc))
                return
            metrics.counter("serve.transfers_total").inc()
            self._resolve(item, ok_response(op="transfer", **result))


class BackgroundServer:
    """A :class:`ScheduleServer` on its own thread + event loop.

    The in-process harness tests and ``load_gen`` use: start, read
    ``address``, drive blocking clients from any thread, ``stop()``.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.server: ScheduleServer | None = None
        self.address: str | None = None
        self._thread = None
        self._started = None
        self._error: BaseException | None = None

    def start(self, timeout: float = 60.0) -> "BackgroundServer":
        import threading

        self._started = threading.Event()
        self._thread = threading.Thread(
            target=self._thread_main, daemon=True, name="kpbs-serve"
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise ConfigError("serve daemon failed to start in time")
        if self._error is not None:
            raise ConfigError(
                f"serve daemon failed to start: {self._error}"
            ) from self._error
        return self

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # surface startup failures
            self._error = exc
            if self._started is not None:
                self._started.set()

    async def _amain(self) -> None:
        self.server = ScheduleServer(self.config)
        await self.server.start()
        self.address = self.server.address
        self._started.set()
        await self.server.wait_stopped()

    def stop(self, timeout: float = 60.0) -> None:
        if self.server is not None and self._thread.is_alive():
            self.server.request_stop()
        self._thread.join(timeout)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
