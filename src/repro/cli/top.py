"""``kpbs top`` — a refreshing terminal dashboard over a live endpoint.

Polls a :class:`~repro.obs.server.MetricsServer` (``/snapshot.json`` +
``/events.json``) and renders, every ``interval`` seconds:

- throughput (schedules/sec from counter deltas between polls),
- batch queue depth, schedule-cache hit rate, recovery rounds,
- a per-phase table (laps, accumulated seconds, p50/p95 per
  invocation from the ``<phase>.seconds`` histograms),
- the last K structured run events.

Rendering is a pure function of two successive snapshots
(:func:`render_dashboard`), so tests can drive it without a terminal;
the polling loop (:func:`run_top`) only adds fetch + clear + sleep.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Mapping, Sequence

from repro.util.errors import ReproError

__all__ = [
    "fetch_json",
    "endpoint_urls",
    "render_dashboard",
    "run_top",
]

#: ANSI "clear screen, cursor home" — the refresh between frames.
_CLEAR = "\x1b[2J\x1b[H"


def fetch_json(url: str, timeout: float = 5.0) -> object:
    """GET ``url`` and decode the JSON body (ReproError on failure)."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            body = response.read()
    except (urllib.error.URLError, OSError, ValueError) as exc:
        raise ReproError(f"cannot reach {url}: {exc}") from exc
    try:
        return json.loads(body)
    except json.JSONDecodeError as exc:
        raise ReproError(f"{url} did not return JSON: {exc}") from exc


def endpoint_urls(url: str) -> tuple[str, str]:
    """``(snapshot_url, events_url)`` for a metrics endpoint.

    Accepts the server's base URL (``http://127.0.0.1:9178``) or a
    direct ``/snapshot.json`` URL; the events URL is derived from the
    same base.
    """
    base = url.rstrip("/")
    for suffix in ("/snapshot.json", "/metrics", "/events.json"):
        if base.endswith(suffix):
            base = base[: -len(suffix)]
            break
    return f"{base}/snapshot.json", f"{base}/events.json"


def _counter(snapshot: Mapping[str, Mapping], name: str) -> float:
    entry = snapshot.get(name)
    if entry and entry.get("type") == "counter":
        return float(entry.get("value", 0))
    return 0.0


def _gauge(snapshot: Mapping[str, Mapping], name: str):
    entry = snapshot.get(name)
    if entry and entry.get("type") == "gauge":
        return entry.get("value")
    return None


def _cache_lookups(snapshot: Mapping[str, Mapping]) -> tuple[float, float]:
    """``(hits, lookups)`` over the schedule cache and serve's answer memo.

    An answer-memo miss goes on to a schedule-cache lookup, so only the
    memo's hits are lookups of their own.
    """
    hits = _counter(snapshot, "schedule_cache.hits") + _counter(
        snapshot, "serve.answer_cache.hits"
    )
    return hits, hits + _counter(snapshot, "schedule_cache.misses")


def _schedules_counter(snapshot: Mapping[str, Mapping]) -> float:
    """Total scheduling work units seen so far (for the rate display)."""
    lookups = _cache_lookups(snapshot)[1]
    if lookups:
        return lookups
    return _counter(snapshot, "parallel.pool.items_done")


def _fmt(value, digits: int = 3) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    return str(value)


def _phase_rows(snapshot: Mapping[str, Mapping]) -> list[tuple]:
    """(phase, laps, total seconds, p50, p95) per instrumented phase."""
    rows = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        if entry.get("type") != "timer":
            continue
        seconds = snapshot.get(name + ".seconds", {})
        rows.append(
            (
                name,
                entry.get("laps", 0),
                entry.get("elapsed", 0.0),
                seconds.get("p50"),
                seconds.get("p95"),
            )
        )
    return rows


def render_dashboard(
    snapshot: Mapping[str, Mapping],
    events: Sequence[Mapping] = (),
    prev: Mapping[str, Mapping] | None = None,
    dt: float | None = None,
    url: str = "",
    max_events: int = 8,
    max_phases: int = 12,
) -> str:
    """One dashboard frame as text (pure; no I/O).

    ``prev``/``dt`` are the previous poll's snapshot and the seconds
    between polls — they drive the rate line; the first frame shows
    totals only.
    """
    lines: list[str] = []
    title = "kpbs top"
    if url:
        title += f" — {url}"
    lines.append(title)
    lines.append("=" * max(len(title), 20))

    done = _schedules_counter(snapshot)
    rate = None
    if prev is not None and dt and dt > 0:
        rate = max(0.0, done - _schedules_counter(prev)) / dt
    hits, lookups = _cache_lookups(snapshot)
    hit_rate = f"{100.0 * hits / lookups:.1f}%" if lookups else "-"
    depth = _gauge(snapshot, "parallel.pool.queue_depth")
    lines.append(
        "schedules: "
        + (f"{rate:8.1f}/s" if rate is not None else f"{done:8.0f} total")
        + f"   queue depth: {_fmt(depth)}"
        + f"   cache hit rate: {hit_rate}"
        + f"   recovery rounds: {_counter(snapshot, 'resilience.recovery_rounds'):.0f}"
    )
    lines.append(
        f"items done: {_counter(snapshot, 'parallel.pool.items_done'):.0f}"
        f"   batch graphs: {_counter(snapshot, 'parallel.batch_graphs'):.0f}"
        f"   worker respawns: {_counter(snapshot, 'resilience.worker_respawns'):.0f}"
        f"   bytes moved: {_counter(snapshot, 'runtime.bytes_moved'):.0f}"
    )
    lines.append(
        f"churn events: {_counter(snapshot, 'churn.events'):.0f}"
        f"   repairs: {_counter(snapshot, 'repair.splices'):.0f} spliced"
        f" / {_counter(snapshot, 'repair.fallbacks'):.0f} fallback"
        f" / {_counter(snapshot, 'repair.noops'):.0f} no-op"
    )

    rows = _phase_rows(snapshot)
    if rows:
        lines.append("")
        lines.append(
            f"{'phase':36s} {'laps':>7s} {'total s':>10s} {'p50 s':>10s} {'p95 s':>10s}"
        )
        # Busiest phases first; the table stays a screenful.
        rows.sort(key=lambda r: -float(r[2] or 0.0))
        shown = rows[:max_phases]
        for name, laps, elapsed, p50, p95 in shown:
            lines.append(
                f"{name[:36]:36s} {laps:>7d} {float(elapsed):>10.4f} "
                f"{_fmt(p50):>10s} {_fmt(p95):>10s}"
            )
        if len(rows) > len(shown):
            lines.append(f"... and {len(rows) - len(shown)} more phases")

    if events:
        lines.append("")
        lines.append(f"last {min(max_events, len(events))} events:")
        for record in list(events)[-max_events:]:
            fields = record.get("fields", {})
            detail = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(fields.items()))
            lines.append(
                f"  #{record.get('seq', '?'):>4} {record.get('kind', '?'):20s} {detail}"
            )
    return "\n".join(lines) + "\n"


def run_top(
    url: str,
    interval: float = 2.0,
    iterations: int | None = None,
    max_events: int = 8,
    clear: bool = True,
) -> int:
    """Poll ``url`` and print a dashboard frame every ``interval`` seconds.

    ``iterations=None`` runs until interrupted.  An endpoint that
    disappears mid-poll (daemon restarted or killed) does not kill the
    dashboard: the frame becomes a one-line "endpoint unreachable"
    status and polling continues — a restarted daemon is picked up on
    its next poll.  Only a *first* poll that never reaches the
    endpoint raises (a typo'd URL should fail loudly).  Returns the
    process exit code.
    """
    if interval <= 0:
        raise ReproError(f"interval must be positive, got {interval}")
    snapshot_url, events_url = endpoint_urls(url)
    prev: Mapping[str, Mapping] | None = None
    prev_t: float | None = None
    frames = 0
    while iterations is None or frames < iterations:
        try:
            snapshot = fetch_json(snapshot_url)
            document = fetch_json(f"{events_url}?n={max_events}")
        except ReproError as exc:
            if not frames:
                raise
            print(f"endpoint unreachable, retrying ({exc})", flush=True)
            # Counter deltas across a daemon restart are meaningless;
            # restart the rate baseline on the next good frame.
            prev, prev_t = None, None
            frames += 1
            if iterations is not None and frames >= iterations:
                break
            time.sleep(interval)
            continue
        if not isinstance(snapshot, dict):
            raise ReproError(f"{snapshot_url} did not return a snapshot object")
        events = document.get("events", []) if isinstance(document, dict) else []
        now = time.monotonic()
        dt = now - prev_t if prev_t is not None else None
        frame = render_dashboard(
            snapshot,
            events,
            prev=prev,
            dt=dt,
            url=url,
            max_events=max_events,
        )
        print((_CLEAR if clear else "") + frame, end="", flush=True)
        prev, prev_t = snapshot, now
        frames += 1
        if iterations is not None and frames >= iterations:
            break
        time.sleep(interval)
    return 0
