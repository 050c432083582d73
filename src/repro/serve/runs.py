"""Journaled transfer runs for the serve daemon.

Each accepted transfer request becomes a directory under
``<state_dir>/runs/<run_id>/`` holding the same artifacts a
``kpbs transfer --checkpoint-dir`` run produces — a ``run.json``
sidecar (written durably *before* the first byte moves) plus the
CRC-framed checkpoint journal — so every daemon run is also resumable
by the plain ``kpbs resume`` CLI.  On daemon startup
:meth:`RunRegistry.resume_incomplete` finishes whatever a SIGKILL left
behind: payloads are regenerated from the recorded seed
(:func:`repro.runtime.seeded.transfer_case` is pure), the journal
replays the delivered prefixes, and the final delivered-bytes digest
is bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from pathlib import Path
from typing import Mapping

from repro import obs
from repro.resilience.faults import FaultSpec
from repro.resilience.retry import RetryPolicy
from repro.runtime.seeded import (
    RUN_CONFIG_NAME,
    delivered_digest,
    transfer_case,
    transfer_cluster,
)
from repro.util.errors import ConfigError, ReproError

__all__ = ["RunActiveError", "RunRegistry", "RESULT_NAME"]

#: Result sidecar a finished run drops next to its journal.
RESULT_NAME = "result.json"

#: Journal file name (mirrors repro.resilience.journal.JOURNAL_NAME
#: without importing the heavy module at import time).
_JOURNAL_NAME = "journal.kpbj"

#: Run ids become directory names: one path component, no traversal.
_RUN_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: run.json keys with daemon-side defaults (the same shapes
#: ``kpbs transfer`` records, so ``kpbs resume`` understands them).
_CONFIG_DEFAULTS: dict[str, object] = {
    "seed": 0,
    "n1": 3,
    "n2": 3,
    "payload_kb": 64.0,
    "k": 3,
    "beta": 0.0,
    "method": "oggp",
    "engine": "fast",
    "nic_mbit": 1000.0,
    "backbone_mbit": 1000.0,
    "faults": None,
    "retries": None,
}
_INT_KEYS = ("seed", "n1", "n2", "k")
_FLOAT_KEYS = ("payload_kb", "beta", "nic_mbit", "backbone_mbit")
#: Schedulers a transfer run accepts (``kpbs transfer --algorithm``).
_METHODS = ("ggp", "oggp")


class RunActiveError(ReproError):
    """The run is already executing (here or in another process)."""


def _normalize_config(params: Mapping) -> dict:
    from repro.core.wrgp import _check_engine

    unknown = sorted(set(params) - set(_CONFIG_DEFAULTS))
    if unknown:
        known = ", ".join(sorted(_CONFIG_DEFAULTS))
        raise ConfigError(
            f"unknown transfer parameter(s) {', '.join(unknown)}; "
            f"valid keys: {known}"
        )
    config = dict(_CONFIG_DEFAULTS)
    config.update(params)
    try:
        for key in _INT_KEYS:
            config[key] = int(config[key])
        for key in _FLOAT_KEYS:
            config[key] = float(config[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad transfer parameter: {exc}") from exc
    for key in ("n1", "n2", "k"):
        if config[key] <= 0:
            raise ConfigError(f"{key} must be positive, got {config[key]}")
    if config["payload_kb"] <= 0:
        raise ConfigError(
            f"payload_kb must be positive, got {config['payload_kb']}"
        )
    if config["method"] not in _METHODS:
        raise ConfigError(
            f"unknown method {config['method']!r}; valid methods: "
            + ", ".join(_METHODS)
        )
    _check_engine(config["engine"])
    # Validate fault/retry specs at admission time, not mid-run.
    if config["faults"]:
        FaultSpec.parse(str(config["faults"]))
    if config["retries"] is not None:
        RetryPolicy.parse(str(config["retries"]))
    return config


class RunRegistry:
    """Executes and resumes journaled transfer runs under a state dir.

    Thread-safe: the daemon calls :meth:`execute` from executor
    threads.  Within-process duplicate submissions are refused via an
    active-set check; cross-process duplicates hit the checkpoint
    directory's flock and are refused the same way.
    """

    def __init__(
        self,
        state_dir: str | os.PathLike,
        fsync: str = "round",
        snapshot_every: int = 8,
        cache=None,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.runs_dir = self.state_dir / "runs"
        self.runs_dir.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.snapshot_every = snapshot_every
        self._cache = cache
        self._active: set[str] = set()
        self._mutex = threading.Lock()

    # -- paths ----------------------------------------------------------

    def run_dir(self, run_id: str) -> Path:
        if not _RUN_ID_RE.match(run_id or ""):
            raise ConfigError(
                f"bad run_id {run_id!r}: want 1-64 chars of "
                "[A-Za-z0-9._-] starting with an alphanumeric"
            )
        return self.runs_dir / run_id

    def list_runs(self) -> list[str]:
        return sorted(
            p.name for p in self.runs_dir.iterdir()
            if p.is_dir() and (p / RUN_CONFIG_NAME).is_file()
        )

    # -- execution -------------------------------------------------------

    def execute(self, run_id: str, params: Mapping) -> dict:
        """Run (or finish, or return the stored result of) ``run_id``.

        Idempotent: re-submitting a completed run returns its recorded
        result; re-submitting a crashed run resumes it; submitting a
        run that is currently executing raises :class:`RunActiveError`.
        """
        rdir = self.run_dir(run_id)
        with self._mutex:
            if run_id in self._active:
                raise RunActiveError(f"run {run_id!r} is already executing")
            self._active.add(run_id)
        try:
            result_path = rdir / RESULT_NAME
            if result_path.is_file():
                result = json.loads(result_path.read_text())
                result["cached"] = True
                return result
            config_path = rdir / RUN_CONFIG_NAME
            if config_path.is_file():
                # A previous attempt got as far as recording its config:
                # finish it with the *recorded* parameters (the request's
                # own params must not fork the run mid-flight).
                config = json.loads(config_path.read_text())
                return self._finish(run_id, rdir, config, resumed=True)
            config = _normalize_config(params)
            rdir.mkdir(parents=True, exist_ok=True)
            # The sidecar lands durably before the first byte moves, so
            # a run killed at any point afterwards is resumable.
            config_path.write_text(json.dumps(config, indent=2))
            return self._finish(run_id, rdir, config, resumed=False)
        finally:
            with self._mutex:
                self._active.discard(run_id)

    def status(self, run_id: str) -> dict:
        """Cheap, read-only state of a run (no lock taken)."""
        rdir = self.run_dir(run_id)
        result_path = rdir / RESULT_NAME
        if result_path.is_file():
            return json.loads(result_path.read_text())
        if not (rdir / RUN_CONFIG_NAME).is_file():
            return {"run_id": run_id, "state": "unknown"}
        with self._mutex:
            executing = run_id in self._active
        return {
            "run_id": run_id,
            "state": "executing" if executing else "incomplete",
        }

    def incomplete_runs(self) -> list[str]:
        """Runs with a recorded config but no recorded result."""
        return [
            run_id for run_id in self.list_runs()
            if not (self.runs_dir / run_id / RESULT_NAME).is_file()
        ]

    def resume_incomplete(self) -> list[dict]:
        """Finish every run a crash left behind; returns their results.

        A run that cannot run — its stored config names an engine or
        method this version does not know, or its journal is unreadable —
        gets a ``failed`` result and a ``server.error`` event, and the
        next run is resumed.  A run another process holds still raises
        :class:`RunActiveError`.
        """
        results = []
        for run_id in self.incomplete_runs():
            obs.emit("server.resume", run_id=run_id)
            try:
                results.append(self.execute(run_id, {}))
            except RunActiveError:
                raise
            except ReproError as exc:
                error = str(exc)
                obs.emit(
                    "server.error", where="resume", run_id=run_id, error=error
                )
                result = {
                    "run_id": run_id, "state": "failed", "complete": False,
                    "resumed": True, "error": error,
                }
                self._write_result(self.run_dir(run_id), result)
                results.append(result)
        return results

    # -- internals -------------------------------------------------------

    def _write_result(self, rdir: Path, result: dict) -> None:
        tmp = rdir / (RESULT_NAME + ".tmp")
        tmp.write_text(json.dumps(result, indent=2, sort_keys=True))
        os.replace(tmp, rdir / RESULT_NAME)

    def _resilience(self, config: Mapping) -> tuple:
        faults = None
        if config.get("faults"):
            faults = FaultSpec.parse(str(config["faults"])).plan()
        retry = None
        if config.get("retries") is not None:
            retry = RetryPolicy.parse(str(config["retries"]))
        return faults, retry

    def _finish(
        self, run_id: str, rdir: Path, config: Mapping, resumed: bool
    ) -> dict:
        from repro.resilience import CheckpointStore
        from repro.runtime import (
            resume_and_run_resilient,
            schedule_and_run_resilient,
        )

        graph, payloads, destinations = transfer_case(
            config["seed"], config["n1"], config["n2"],
            int(config["payload_kb"] * 1024),
        )
        cluster = transfer_cluster(config)
        faults, retry = self._resilience(config)
        journal = rdir / _JOURNAL_NAME
        started = time.monotonic()
        try:
            if journal.is_file() and journal.stat().st_size > 0:
                store = CheckpointStore.resume(
                    rdir, fsync=self.fsync, snapshot_every=self.snapshot_every
                )
                try:
                    report = resume_and_run_resilient(
                        cluster, store, payloads,
                        engine=config.get("engine", "fast"),
                        cache=self._cache, faults=faults, retry=retry,
                    )
                finally:
                    store.close()
            else:
                store = CheckpointStore(
                    rdir, fsync=self.fsync, snapshot_every=self.snapshot_every
                )
                try:
                    report = schedule_and_run_resilient(
                        cluster, graph, config["k"], config["beta"],
                        payloads, destinations,
                        method=config.get("method", "oggp"),
                        engine=config.get("engine", "fast"),
                        cache=self._cache, faults=faults, retry=retry,
                        checkpoint=store,
                    )
                finally:
                    store.close()
        except ConfigError as exc:
            if "is locked by" in str(exc):
                raise RunActiveError(
                    f"run {run_id!r} is locked by another process: {exc}"
                ) from exc
            raise
        result = {
            "run_id": run_id,
            "state": "complete" if report.complete else "failed",
            "complete": report.complete,
            "resumed": resumed,
            "rounds": report.rounds,
            "bytes_moved": report.bytes_moved,
            "delivered_bytes": sum(
                len(p) for p in report.delivered.values()
            ),
            "digest": delivered_digest(report.delivered),
            "seconds": round(time.monotonic() - started, 6),
        }
        self._write_result(rdir, result)
        obs.emit(
            "server.run_complete",
            run_id=run_id,
            complete=report.complete,
            resumed=resumed,
            digest=result["digest"],
        )
        return result
