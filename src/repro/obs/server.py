"""``MetricsServer`` — a stdlib-only live telemetry HTTP endpoint.

A threaded :mod:`http.server` (no new dependencies) exposing the live
observability state of the process:

- ``/metrics`` — Prometheus text exposition format, rendered from the
  merged live snapshot (:func:`repro.obs.live.merged_snapshot`: the
  process registry plus every registered live source, e.g. streaming
  worker-pool telemetry);
- ``/snapshot.json`` — the same merged snapshot as JSON (the exact
  shape ``--profile`` files use, so ``kpbs stats`` can read it);
- ``/events.json`` — the most recent structured run events
  (``?n=K`` limits the tail);
- ``/healthz`` — liveness/readiness probe.  By default always
  ``200 ok``; a ``health_fn`` returning ``{"live": ..., "ready": ...}``
  (plus any extra fields) turns it into a real readiness gate — the
  body is JSON and the status is 503 while ``ready`` is false (the
  serve daemon reports ready=false while resuming journaled runs or
  shedding load).

Binding to port 0 picks an ephemeral port (read it back from
``server.port`` / ``server.url``).  The server runs on daemon threads
and is safe to start/stop around a run::

    with MetricsServer(port=0) as server:
        print(server.url)           # http://127.0.0.1:43210
        run_everything()

This is the live layer the ROADMAP's ``kpbs serve`` daemon builds on.
"""

from __future__ import annotations

import errno
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Mapping
from urllib.parse import parse_qs, urlparse

from repro.obs.live import merged_snapshot, render_prometheus
from repro.util.errors import ConfigError

__all__ = ["MetricsServer", "PROMETHEUS_CONTENT_TYPE"]

#: Content type of the ``/metrics`` payload (text exposition 0.0.4).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _Handler(BaseHTTPRequestHandler):
    """Routes GETs; the owning :class:`MetricsServer` holds the state."""

    server_version = "kpbs-metrics/1"

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        owner: "MetricsServer" = self.server.metrics_server  # type: ignore[attr-defined]
        parsed = urlparse(self.path)
        try:
            if parsed.path == "/metrics":
                body = render_prometheus(owner.snapshot()).encode()
                self._send(200, PROMETHEUS_CONTENT_TYPE, body)
            elif parsed.path == "/snapshot.json":
                body = json.dumps(owner.snapshot(), sort_keys=True).encode()
                self._send(200, "application/json", body)
            elif parsed.path == "/events.json":
                query = parse_qs(parsed.query)
                n = None
                if "n" in query:
                    n = max(0, int(query["n"][0]))
                body = json.dumps(owner.events_document(n)).encode()
                self._send(200, "application/json", body)
            elif parsed.path == "/healthz":
                health = owner.health()
                if health is None:
                    self._send(200, "text/plain; charset=utf-8", b"ok\n")
                else:
                    status = 200 if health.get("ready", True) else 503
                    body = json.dumps(health, sort_keys=True).encode() + b"\n"
                    self._send(status, "application/json", body)
            else:
                self._send(404, "text/plain; charset=utf-8", b"not found\n")
        except Exception as exc:  # endpoint must never crash the run
            self._send(
                500,
                "text/plain; charset=utf-8",
                f"error: {type(exc).__name__}: {exc}\n".encode(),
            )

    def log_message(self, format: str, *args: object) -> None:
        pass  # scraping must not spam the run's stdout/stderr


class MetricsServer:
    """Threaded HTTP server for live metrics, snapshots, and events.

    ``snapshot_fn`` overrides where ``/metrics`` and ``/snapshot.json``
    get their data (default: the merged live snapshot — process
    registry + live sources).  ``events_fn`` overrides ``/events.json``
    (default: the tail of ``obs.events()``).  ``health_fn`` turns
    ``/healthz`` into a readiness gate (see the module docstring).
    All are called per request, so the payloads always reflect the
    current state.
    """

    def __init__(
        self,
        port: int = 0,
        host: str = "127.0.0.1",
        snapshot_fn: Callable[[], Mapping[str, Mapping]] | None = None,
        events_fn: Callable[[int | None], list] | None = None,
        health_fn: Callable[[], Mapping] | None = None,
    ) -> None:
        if port < 0:
            raise ConfigError(f"port must be >= 0 (0 = ephemeral), got {port}")
        self._host = host
        self._requested_port = int(port)
        self._snapshot_fn = snapshot_fn
        self._events_fn = events_fn
        self._health_fn = health_fn
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    # -- data providers -------------------------------------------------

    def snapshot(self) -> dict:
        if self._snapshot_fn is not None:
            return dict(self._snapshot_fn())
        return merged_snapshot()

    def events_document(self, n: int | None) -> dict:
        from repro.obs.events import EVENT_SCHEMA_VERSION

        if self._events_fn is not None:
            events = self._events_fn(n)
        else:
            from repro import obs

            events = obs.events().tail(n)
        return {
            "schema_version": EVENT_SCHEMA_VERSION,
            "events": [e.to_dict() for e in events],
        }

    def health(self) -> dict | None:
        if self._health_fn is None:
            return None
        return dict(self._health_fn())

    # -- lifecycle ------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._httpd is not None

    @property
    def port(self) -> int:
        """The bound port (resolves 0 to the ephemeral port picked)."""
        if self._httpd is None:
            raise ConfigError("metrics server is not running")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the running server, e.g. ``http://127.0.0.1:9178``."""
        return f"http://{self._host}:{self.port}"

    def start(self) -> "MetricsServer":
        """Bind and serve on a daemon thread; returns ``self``."""
        if self._httpd is not None:
            return self
        try:
            httpd = ThreadingHTTPServer(
                (self._host, self._requested_port), _Handler
            )
        except OSError as exc:
            if exc.errno in (errno.EADDRINUSE, errno.EACCES):
                raise ConfigError(
                    f"cannot bind metrics server to "
                    f"{self._host}:{self._requested_port}: port already in "
                    f"use or not permitted ({exc}); pass --metrics-port 0 "
                    "for an ephemeral port"
                ) from exc
            raise
        httpd.daemon_threads = True
        httpd.metrics_server = self  # type: ignore[attr-defined]
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            daemon=True,
            name="kpbs-metrics-server",
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down; idempotent."""
        httpd, thread = self._httpd, self._thread
        self._httpd, self._thread = None, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    def shutdown(self) -> None:
        """Alias for :meth:`stop`; idempotent (second call is a no-op)."""
        self.stop()

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = self.url if self.running else "stopped"
        return f"MetricsServer({state})"
