"""``kpbs serve`` acceptance: SIGKILL mid-load resumes bit-identically,
and sustained overload sheds with structured RETRY_AFTER — never a hang.

The daemon analogue of test_crash_resume.py: instead of killing one
``kpbs transfer`` process we kill the whole daemon while >= 2 journaled
transfers are in flight, restart it on the same state directory, and
require every run's delivered-bytes digest to match an uninterrupted
run of the same parameters.
"""

import asyncio
import os
import queue
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.serve import ServeClient, ServeError
from repro.serve.runs import RunRegistry

#: Token-bucket shaped NICs stretch each run to a few wall-clock
#: seconds (512 KiB per edge at 2 Mbit/s), leaving a wide window in
#: which SIGKILL lands mid-transfer.
SLOW_PARAMS = {
    "n1": 2, "n2": 2, "payload_kb": 512,
    "nic_mbit": 2.0, "backbone_mbit": 5.0,
}
RUNS = {"run-a": {"seed": 7, **SLOW_PARAMS}, "run-b": {"seed": 8, **SLOW_PARAMS}}


class Daemon:
    """A ``kpbs serve`` subprocess with line-oriented stdout tapping."""

    def __init__(self, state_dir, *extra: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--state-dir", str(state_dir), "--metrics-port", "-1",
             "--max-transfers", "2", *extra],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env,
        )
        self.lines: queue.Queue[str] = queue.Queue()
        threading.Thread(target=self._pump, daemon=True).start()
        self.address = self.expect("serving kpbr on ").split()[-1]

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)

    def expect(self, prefix: str, timeout: float = 60.0) -> str:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.proc.poll() is not None:
                raise AssertionError(
                    f"daemon never printed {prefix!r}; "
                    f"stderr:\n{self.proc.stderr.read()}"
                )
            try:
                line = self.lines.get(timeout=min(remaining, 1.0))
            except queue.Empty:
                continue
            if line.startswith(prefix):
                return line.strip()

    def sigkill(self) -> None:
        os.kill(self.proc.pid, signal.SIGKILL)
        self.proc.wait(timeout=60)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)


@pytest.fixture(scope="module")
def reference_digests(tmp_path_factory):
    """Digests of uninterrupted runs of the same parameters."""
    registry = RunRegistry(tmp_path_factory.mktemp("ref"))
    return {
        run_id: registry.execute(run_id, params)["digest"]
        for run_id, params in RUNS.items()
    }


@pytest.mark.slow
class TestServeCrashResume:
    def test_sigkill_with_two_inflight_transfers_resumes_bit_identical(
        self, tmp_path, reference_digests
    ):
        state_dir = tmp_path / "state"
        daemon = Daemon(state_dir)
        try:
            # Two tenants submit journaled transfers; both block on the
            # shaped NICs, so the daemon dies with both mid-flight.
            def submit(run_id):
                try:
                    with ServeClient(daemon.address, tenant=run_id) as c:
                        c.transfer(
                            run_id, RUNS[run_id],
                            deadline_s=120.0, max_attempts=1,
                        )
                except ServeError:
                    pass  # expected: the daemon is about to vanish

            threads = [
                threading.Thread(target=submit, args=(rid,)) for rid in RUNS
            ]
            for t in threads:
                t.start()
            # Wait for both runs to be durably admitted (run.json down,
            # journal growing), then pull the plug mid-transfer.
            deadline = time.monotonic() + 30.0
            runs_dir = state_dir / "runs"
            while time.monotonic() < deadline:
                journals = [
                    runs_dir / rid / "journal.kpbj" for rid in RUNS
                ]
                if all(j.is_file() and j.stat().st_size > 0 for j in journals):
                    break
                time.sleep(0.05)
            else:
                raise AssertionError("transfers never started journalling")
            time.sleep(1.0)  # let real bytes move before the kill
            daemon.sigkill()
            for t in threads:
                t.join(timeout=60)
        finally:
            daemon.stop()

        incomplete = [
            rid for rid in RUNS
            if not (runs_dir / rid / "result.json").is_file()
        ]
        assert len(incomplete) >= 1, "kill landed after both runs finished"

        # Restart on the same state directory: the daemon must finish
        # the orphans before reporting ready, bit-identically.
        daemon = Daemon(state_dir)
        try:
            ready = daemon.expect("ready: ", timeout=120.0)
            assert f"{len(incomplete)} run(s) resumed" in ready
            with ServeClient(daemon.address) as c:
                for run_id, want in reference_digests.items():
                    doc = c.run_status(run_id)
                    assert doc["state"] == "complete", doc
                    assert doc["digest"] == want, (
                        f"{run_id} diverged from the uninterrupted run"
                    )
                # The resumed daemon is a fully live one.
                assert c.ping()["status"] == "ok"
        finally:
            daemon.stop()


@pytest.mark.slow
class TestServeOverload:
    def test_5x_overload_sheds_structurally_and_never_hangs(self, monkeypatch):
        import numpy as np

        from repro.serve import BackgroundServer, ServeConfig
        from repro.serve.daemon import ScheduleServer

        # Queue capacity 2, serial batches of 1: a 12-request burst is
        # far past 5x what the daemon admits at once.  The dispatcher is
        # held until every request is either queued or answered, so the
        # shedding is asserted, not raced against the scheduling work.
        gate = threading.Event()
        dispatch_loop = ScheduleServer._dispatch_loop

        async def gated_dispatch_loop(server):
            while not gate.is_set():
                await asyncio.sleep(0.01)
            await dispatch_loop(server)

        monkeypatch.setattr(ScheduleServer, "_dispatch_loop", gated_dispatch_loop)
        config = ServeConfig(
            metrics_port=None, max_queue=2, max_batch=1,
            default_deadline=30.0,
        )
        matrix = np.random.default_rng(0).uniform(1, 9, (6, 6)).tolist()
        statuses, durations, failures = [], [], []

        def fire(idx):
            try:
                with ServeClient(bg.address, tenant=f"t{idx % 4}") as c:
                    started = time.monotonic()
                    doc = c.request(
                        {"op": "schedule", "matrix": matrix, "k": 3,
                         "deadline_s": 30.0}
                    )
                    durations.append(time.monotonic() - started)
                    statuses.append(doc)
            except Exception as exc:  # pragma: no cover - failure detail
                failures.append(exc)

        with BackgroundServer(config) as bg:
            threads = [
                threading.Thread(target=fire, args=(i,)) for i in range(12)
            ]
            try:
                for t in threads:
                    t.start()
                deadline = time.monotonic() + 60.0
                while (
                    bg.server.queue.depth + len(statuses) < 12
                    and not failures
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
            finally:
                gate.set()
            for t in threads:
                t.join(timeout=120)
            assert not failures
            assert len(statuses) == 12
            shed = [d for d in statuses if d["status"] == "retry"]
            assert len(shed) == 10
            assert [d["status"] for d in statuses].count("ok") == 2
            for doc in shed:
                assert doc["code"] == "RETRY_AFTER"
                assert doc["retry_after"] > 0.0
                assert doc["reason"]
            # Nothing waited past its deadline, shed answers were fast.
            assert max(durations) < 35.0
            # No unhandled daemon exceptions: still serving, queue sane.
            with ServeClient(bg.address) as c:
                assert c.ping()["status"] == "ok"
                assert c.status()["queue_depth"] == 0


@pytest.mark.slow
class TestServeShutdown:
    def test_sigterm_with_a_connected_client_exits_cleanly(self, tmp_path):
        daemon = Daemon(tmp_path / "state")
        try:
            with ServeClient(daemon.address) as c:
                assert c.ping()["status"] == "ok"
                # Stop while the connection's handler waits for a frame.
                daemon.proc.terminate()
                returncode = daemon.proc.wait(timeout=60)
        finally:
            daemon.stop()
        stderr = daemon.proc.stderr.read()
        assert returncode == 0
        assert "Traceback" not in stderr, stderr
        assert "Exception in callback" not in stderr, stderr
