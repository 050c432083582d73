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
from repro.runtime.seeded import RUN_CONFIG_NAME, delivered_digest, run_transfer
from repro.util.errors import ConfigError, ReproError

__all__ = ["RunActiveError", "RunRegistry", "RESULT_NAME"]

#: Result sidecar a finished run drops next to its journal.
RESULT_NAME = "result.json"

#: Run ids become directory names: one path component, no traversal.
_RUN_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


class RunActiveError(ReproError):
    """The run is already executing (here or in another process)."""


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
            # A previous attempt that got as far as recording its config
            # finishes with the *recorded* parameters (the request's own
            # params must not fork the run mid-flight).
            resumed = (rdir / RUN_CONFIG_NAME).is_file()
            started = time.monotonic()
            try:
                report = run_transfer(
                    rdir, None if resumed else params, cache=self._cache,
                    fsync=self.fsync, snapshot_every=self.snapshot_every,
                )
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

        A run that cannot run — its stored ``run.json`` fails the
        check :func:`~repro.runtime.seeded.run_transfer` makes (not
        JSON, a key missing, an engine or method this version does not
        know), or its journal is unreadable — gets a ``failed`` result and a
        ``server.error`` event, and the next run is resumed.  A run another process holds still raises
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
