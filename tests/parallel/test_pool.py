"""WorkerPool: ordering, reuse, failure surfacing, telemetry merge."""

import os
import pathlib
import signal
import time

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.parallel.pool import (
    ParallelError,
    PoolReport,
    TaskTimeoutError,
    WorkerCrashError,
    WorkerPool,
    WorkerTaskError,
    resolve_jobs,
)
from repro.resilience import FaultSpec, RetryPolicy
from repro.util.errors import ConfigError


def square(x):
    return x * x


def sleepy(seconds):
    time.sleep(seconds)
    return seconds


def sleep_until_retried(path_str):
    """Deadlock on the first attempt, succeed on any later one."""
    flag = pathlib.Path(path_str)
    if not flag.exists():
        flag.write_text("first attempt")
        time.sleep(60)
    return "ok"


def fail_on_negative(x):
    if x < 0:
        raise ValueError(f"no negatives, got {x}")
    return x + 1


def record_metric(x):
    obs.metrics().counter("pooltest.calls").inc()
    obs.metrics().histogram("pooltest.values").observe(float(x))
    return x


def die_on_sentinel(x):
    if x == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    return x


def record_then_die(x):
    obs.metrics().counter("pooltest.calls").inc()
    if x == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    return x


class TestResolveJobs:
    def test_defaults_to_cpu_count(self):
        assert resolve_jobs(None) == (os.cpu_count() or 1)
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_explicit(self):
        assert resolve_jobs(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            resolve_jobs(-1)


class TestMap:
    def test_submission_order(self):
        with WorkerPool(2, square) as pool:
            assert pool.map(list(range(20))) == [x * x for x in range(20)]

    def test_reuse_across_maps(self):
        with WorkerPool(2, square) as pool:
            assert pool.map([1, 2, 3]) == [1, 4, 9]
            assert pool.map([4, 5]) == [16, 25]
            assert pool.map([]) == []

    def test_explicit_chunk_size(self):
        with WorkerPool(2, square) as pool:
            assert pool.map(list(range(7)), chunk_size=1) == [
                x * x for x in range(7)
            ]

    def test_task_error_names_lowest_index(self):
        with WorkerPool(2, fail_on_negative) as pool:
            with pytest.raises(WorkerTaskError) as excinfo:
                pool.map([1, 2, -7, 3, -1])
            assert excinfo.value.index == 2
            assert "ValueError" in excinfo.value.detail
            assert "-7" in excinfo.value.detail

    def test_worker_stays_warm_after_task_error(self):
        with WorkerPool(1, fail_on_negative) as pool:
            with pytest.raises(WorkerTaskError):
                pool.map([-1])
            assert pool.map([5]) == [6]

    def test_map_after_shutdown_raises(self):
        pool = WorkerPool(1, square)
        pool.shutdown()
        with pytest.raises(ParallelError):
            pool.map([1])

    def test_worker_crash_detected(self):
        pool = WorkerPool(1, die_on_sentinel)
        try:
            with pytest.raises(WorkerCrashError, match="died mid-batch"):
                pool.map(["ok", "die", "never"])
        finally:
            pool.shutdown()


class TestTaskTimeout:
    def test_deadlocked_worker_raises_timeout_not_hang(self):
        """Regression: map() used to hang forever on a deadlocked worker."""
        pool = WorkerPool(1, sleepy, task_timeout=0.3)
        try:
            start = time.monotonic()
            with pytest.raises(TaskTimeoutError, match="task deadline"):
                pool.map([60.0])
            assert time.monotonic() - start < 10.0
        finally:
            pool.shutdown()

    def test_per_call_timeout_overrides_pool_default(self):
        pool = WorkerPool(1, sleepy, task_timeout=120.0)
        try:
            with pytest.raises(TaskTimeoutError, match="0.3"):
                pool.map([60.0], timeout=0.3)
        finally:
            pool.shutdown()

    def test_pool_usable_after_timeout(self):
        """The stuck worker is killed and respawned, not leaked."""
        pool = WorkerPool(1, sleepy, task_timeout=0.3)
        try:
            with pytest.raises(TaskTimeoutError):
                pool.map([60.0])
            assert pool.map([0.0]) == [0.0]
        finally:
            pool.shutdown()

    def test_timeout_retried_when_policy_allows(self, tmp_path):
        flag = tmp_path / "attempted"
        retry = RetryPolicy(max_attempts=2, backoff_base=0.0, jitter=0.0)
        with obs.observed() as (registry, _):
            pool = WorkerPool(1, sleep_until_retried, retry=retry,
                              task_timeout=0.5)
            try:
                assert pool.map([str(flag)]) == ["ok"]
            finally:
                pool.shutdown()
            snap = registry.snapshot()
            assert snap["resilience.retries.pool"]["value"] >= 1
            assert snap["resilience.worker_respawns"]["value"] >= 1

    def test_retry_task_timeout_is_the_default(self):
        retry = RetryPolicy(max_attempts=1, task_timeout=0.3)
        pool = WorkerPool(1, sleepy, retry=retry)
        try:
            with pytest.raises(TaskTimeoutError):
                pool.map([60.0])
        finally:
            pool.shutdown()

    def test_bad_timeout_rejected(self):
        with pytest.raises(ConfigError, match="task_timeout"):
            WorkerPool(1, square, task_timeout=-1.0)


class TestCrashInjection:
    def test_injected_crashes_retried_to_completion(self):
        plan = FaultSpec(seed=4, worker_crash_rate=0.4).plan()
        retry = RetryPolicy(max_attempts=6, backoff_base=0.0, jitter=0.0)
        with obs.observed() as (registry, _):
            with WorkerPool(2, square, retry=retry, fault_plan=plan) as pool:
                assert pool.map(list(range(20))) == [x * x for x in range(20)]
            snap = registry.snapshot()
            assert snap["resilience.worker_respawns"]["value"] > 0
            assert snap["resilience.retries.pool"]["value"] > 0
            assert snap["resilience.faults_injected.worker_crash"]["value"] > 0

    def test_injected_crash_sequence_reproducible(self):
        plan = FaultSpec(seed=4, worker_crash_rate=0.4).plan()
        retry = RetryPolicy(max_attempts=6, backoff_base=0.0, jitter=0.0)

        def respawns():
            with obs.observed() as (registry, _):
                with WorkerPool(2, square, retry=retry, fault_plan=plan) as p:
                    p.map(list(range(20)))
                return registry.snapshot()["resilience.worker_respawns"]["value"]

        assert respawns() == respawns()

    def test_crash_without_retry_raises(self):
        plan = FaultSpec(seed=1, worker_crash_rate=1.0).plan()
        pool = WorkerPool(1, square, fault_plan=plan)
        try:
            with pytest.raises(WorkerCrashError, match="died mid-batch"):
                pool.map([1, 2, 3])
        finally:
            pool.shutdown()

    def test_crash_exhausting_retries_raises(self):
        plan = FaultSpec(seed=1, worker_crash_rate=1.0).plan()
        retry = RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0)
        pool = WorkerPool(1, square, retry=retry, fault_plan=plan)
        try:
            with pytest.raises(WorkerCrashError, match="retries exhausted"):
                pool.map([1])
        finally:
            pool.shutdown()


class TestShutdownWithDeadWorkers:
    def test_shutdown_prompt_when_workers_already_died(self):
        """Regression: shutdown used to wait out the full deadline when a
        SIGKILL'd worker died holding the task queue's lock."""
        pool = WorkerPool(4, square)
        pool.map(list(range(8)))
        victims = pool._workers[:3]
        for proc in victims:
            os.kill(proc.pid, signal.SIGKILL)
        for proc in victims:
            proc.join(timeout=5.0)
        start = time.monotonic()
        report = pool.shutdown()
        elapsed = time.monotonic() - start
        assert isinstance(report, PoolReport)
        assert elapsed < 5.0, f"shutdown stalled for {elapsed:.2f}s"

    def test_shutdown_all_workers_dead(self):
        pool = WorkerPool(2, square)
        pool.map([1, 2])
        for proc in pool._workers:
            os.kill(proc.pid, signal.SIGKILL)
        for proc in pool._workers:
            proc.join(timeout=5.0)
        start = time.monotonic()
        report = pool.shutdown()
        assert time.monotonic() - start < 5.0
        assert isinstance(report, PoolReport)


class TestTelemetry:
    def test_worker_metrics_merged_into_parent(self):
        with obs.observed() as (registry, _tracer):
            with WorkerPool(2, record_metric) as pool:
                pool.map(list(range(10)))
            # merge happens at shutdown (context exit)
        assert registry.counter("pooltest.calls").value == 10
        hist = registry.histogram("pooltest.values").to_dict()
        assert hist["count"] == 10
        assert hist["min"] == 0.0 and hist["max"] == 9.0

    def test_no_recording_when_parent_disabled(self):
        assert not obs.enabled()
        with WorkerPool(1, record_metric) as pool:
            pool.map([1, 2])
            report = pool.shutdown()
        # Workers ran with obs off: the shipped snapshots are empty.
        assert all(snapshot == {} for snapshot in report.worker_metrics)

    def test_shutdown_idempotent(self):
        pool = WorkerPool(1, square)
        first = pool.shutdown()
        second = pool.shutdown()
        assert len(first.cache_stats) == 1
        assert second.cache_stats == []

    def test_explicit_record_obs_overrides_parent_state(self):
        registry = MetricsRegistry()
        with WorkerPool(1, record_metric, record_obs=True) as pool:
            pool.map([3])
            obs.enable(registry=registry)
            try:
                pool.shutdown()
            finally:
                obs.disable()
        assert registry.counter("pooltest.calls").value == 1


class TestStreamingTelemetry:
    """Mid-run cumulative worker snapshots (new in the live-telemetry PR)."""

    def test_invalid_stream_knobs_rejected(self):
        with pytest.raises(ConfigError):
            WorkerPool(1, square, stream_items=0)
        with pytest.raises(ConfigError):
            WorkerPool(1, square, stream_seconds=0.0)

    def test_pool_registers_live_source_while_streaming(self):
        from repro.obs import live

        with obs.observed():
            pool = WorkerPool(1, record_metric, stream_items=1)
            try:
                assert pool.live_metrics_snapshot in live.live_sources()
            finally:
                pool.shutdown()
            assert pool.live_metrics_snapshot not in live.live_sources()

    def test_no_live_source_when_streaming_disabled(self):
        from repro.obs import live

        with obs.observed():
            with WorkerPool(
                1, record_metric, stream_items=None, stream_seconds=None
            ) as pool:
                assert pool.live_metrics_snapshot not in live.live_sources()
                pool.map([1, 2])

    def test_streamed_counters_visible_before_shutdown(self):
        with obs.observed():
            pool = WorkerPool(2, record_metric, stream_items=1)
            try:
                pool.map(list(range(8)))
                # Streams arrive before each chunk's "done", so by map
                # return the live aggregate covers every item.
                snapshot = pool.live_metrics_snapshot()
                assert snapshot["pooltest.calls"]["value"] == 8
                assert snapshot["pooltest.values"]["count"] == 8
            finally:
                pool.shutdown()

    def test_final_supersedes_stream_totals_bit_identical(self):
        def run(**stream_kwargs) -> dict:
            with obs.observed() as (registry, _):
                with WorkerPool(2, record_metric, **stream_kwargs) as pool:
                    pool.map(list(range(16)))
                return registry.snapshot(samples=True)

        streamed = run(stream_items=1)
        plain = run(stream_items=None, stream_seconds=None)
        assert streamed["pooltest.calls"] == plain["pooltest.calls"]
        # Sample *order* reflects which worker's final merged first —
        # racy in any run — so compare the multiset and the summary.
        a = streamed["pooltest.values"]
        b = plain["pooltest.values"]
        assert sorted(a.pop("samples")) == sorted(b.pop("samples"))
        assert a == b

    def test_crashed_worker_keeps_last_streamed_snapshot(self):
        """Regression: telemetry recorded before a crash must survive it."""
        with obs.observed() as (registry, _):
            pool = WorkerPool(1, record_then_die, stream_items=1)
            try:
                assert pool.map([1, 2, 3]) == [1, 2, 3]
                with pytest.raises(WorkerCrashError):
                    pool.map(["die"])
            finally:
                report = pool.shutdown()
            kinds = [e.kind for e in obs.events().tail()]
        # The dead incarnation sent no final; its last cumulative stream
        # (covering the three successful items) is in the report anyway.
        assert any(s.get("pooltest.calls", {}).get("value") == 3
                   for s in report.worker_metrics)
        assert registry.counter("pooltest.calls").value == 3
        assert "worker.crash" in kinds
        assert "worker.respawn" in kinds

    def test_without_streaming_crash_loses_worker_metrics(self):
        """The retention above really comes from the stream frames."""
        with obs.observed() as (registry, _):
            pool = WorkerPool(
                1, record_then_die, stream_items=None, stream_seconds=None
            )
            try:
                pool.map([1, 2, 3])
                with pytest.raises(WorkerCrashError):
                    pool.map(["die"])
            finally:
                pool.shutdown()
        assert registry.counter("pooltest.calls").value == 0


class TestTimingKnobs:
    """stall_grace / join_timeout: constructor parameters since PR 5."""

    @pytest.mark.parametrize(
        "kwargs", [{"stall_grace": 0.0}, {"stall_grace": -1.0},
                   {"join_timeout": 0.0}, {"join_timeout": -0.5}]
    )
    def test_non_positive_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            WorkerPool(1, square, **kwargs)

    def test_defaults_keep_historical_values(self):
        pool = WorkerPool(1, square)
        try:
            assert pool._stall_grace == 1.0
            assert pool._join_timeout == 1.0
        finally:
            pool.shutdown()

    def test_custom_values_still_compute(self):
        with WorkerPool(2, square, stall_grace=0.2, join_timeout=0.3) as pool:
            assert pool.map(range(8)) == [x * x for x in range(8)]

    def test_short_stall_grace_speeds_dead_worker_shutdown(self):
        pool = WorkerPool(
            2, square,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0, jitter=0.0),
            stall_grace=0.25, join_timeout=0.25,
        )
        pool.map(range(4))
        os.kill(pool._workers[0].pid, signal.SIGKILL)
        pool._workers[0].join(timeout=5.0)
        start = time.monotonic()
        pool.shutdown(timeout=10.0)
        # Historical constants gave up after >1s of silence; the 0.25s
        # grace must come in well under that plus join overhead.
        assert time.monotonic() - start < 5.0
