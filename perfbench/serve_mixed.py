"""Workload ``serve-mixed``: open-loop load on a ``kpbs serve`` daemon.

``kpbs serve`` runs as a subprocess with its default configuration and
a state directory.  Two tenants, one connection and one thread each
(the machine has two cores), send requests at Poisson arrival times
fixed in advance by the seed, 10 requests/s in total.  The daemon's
knee on a 2-core machine is between 45 and 60, but from 20 up the
queueing doubles the median whenever a shared machine slows down.  A
request is sent when it is due, or as soon as the tenant's connection
is free.
Each request is timed from the moment it was due, so a stall also
counts against the requests queued behind it (no coordinated
omission).  A shed (``RETRY_AFTER``), an expired deadline, an error,
a degraded answer or an answer that fails verification is a failure
and is never retried; a failed request counts as missing the latency
limit.

The mix per tenant, in an order drawn from the seed: 97% repeats from a four-instance pool per
tenant (cache hits after warm-up), 2% fresh instances (cache misses,
scheduled by oggp with the default engine), 1% journaled ``transfer``
runs.  The slow requests and those queued behind them stay well under
a tenth, so ``latency_s.p90`` measures the hit path, not the edge of
the miss tail.  Instances are half-dense bipartite graphs with sides
up to 50 and weights U{1..20}; their shapes are fixed, the seed draws
the rest.

Every schedule answer is verified against the instance sent
(``verify_solution_dict``) and against Theorem 1 with the returned
``lower_bound``; every transfer must be complete with the digest of
its seeded payloads.
"""

from __future__ import annotations

import importlib
import json
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import harness
import tracing

K = 10
BETA = 1.0
TENANTS = 2
RATE = 10.0
#: Latency limit: an answer later than this is not goodput.
LIMIT_S = 0.5
FRESH_FRAC = 0.02
TRANSFER_FRAC = 0.01
POOL_SHAPES = (
    ((12, 20), (40, 15), (25, 30), (48, 22)),
    ((20, 10), (30, 36), (45, 18), (8, 48)),
)
FRESH_SHAPES = ((24, 30), (40, 22), (30, 20), (45, 12))
TRANSFER_PARAMS = {"n1": 3, "n2": 3, "payload_kb": 64, "k": 3}
_REL_TOL = 1e-9


def _graph(rng, n1: int, n2: int):
    import numpy as np

    from repro.graph.generators import from_traffic_matrix

    weights = rng.integers(1, 21, size=(n1, n2))
    keep = np.zeros(n1 * n2, dtype=bool)
    keep[rng.choice(n1 * n2, size=n1 * n2 // 2, replace=False)] = True
    matrix = weights * keep.reshape(n1, n2)
    return from_traffic_matrix(matrix), matrix.tobytes()


def plan(seed: int, seconds: float, phase: int = 0):
    """Per-tenant request lists ``[(due_s, kind, payload)]`` + fingerprint.

    ``kind`` is ``pool`` (payload: instance key), ``fresh`` (payload:
    graph) or ``transfer`` (payload: ``(run_id, params)``).
    """
    import numpy as np

    from repro.runtime.seeded import delivered_digest, transfer_case

    rng = np.random.default_rng([seed, phase, 0x5345])
    pools, parts = {}, []
    for tenant, shapes in enumerate(POOL_SHAPES):
        for slot, (n1, n2) in enumerate(shapes):
            pools[(tenant, slot)], raw = _graph(rng, n1, n2)
            parts.append(raw)
    count = int(round(RATE / TENANTS * seconds))
    # Fixed counts per tenant (at least one of each), in seeded order.
    kinds = np.full(count, "pool", dtype=object)
    transfers = max(1, round(count * TRANSFER_FRAC))
    kinds[:transfers] = "transfer"
    kinds[transfers:transfers + max(1, round(count * FRESH_FRAC))] = "fresh"
    requests, expected = [], {}
    fresh = 0
    for tenant in range(TENANTS):
        dues = np.sort(rng.uniform(0.0, seconds, size=count))
        order = rng.permutation(kinds)
        mine = []
        for i, due in enumerate(dues):
            if order[i] == "transfer":
                run_id = f"p{phase}t{tenant}r{i}"
                params = dict(TRANSFER_PARAMS, seed=int(rng.integers(1 << 30)))
                _, payloads, _ = transfer_case(
                    params["seed"], params["n1"], params["n2"],
                    params["payload_kb"] * 1024,
                )
                expected[run_id] = delivered_digest(payloads)
                mine.append((float(due), "transfer", (run_id, params)))
            elif order[i] == "fresh":
                n1, n2 = FRESH_SHAPES[fresh % len(FRESH_SHAPES)]
                fresh += 1
                graph, raw = _graph(rng, n1, n2)
                parts.append(raw)
                mine.append((float(due), "fresh", graph))
            else:
                # Round robin over the pool: every instance is asked for
                # equally often, so the mean cost does not follow the draw.
                slot = i % len(POOL_SHAPES[tenant])
                mine.append((float(due), "pool", (tenant, slot)))
        requests.append(mine)
        parts.append(dues.tobytes())
    sizes = [
        (key, g.num_left, g.num_right, g.num_edges)
        for key, g in sorted(pools.items())
    ]
    return {
        "pools": pools, "requests": requests, "expected": expected,
        "digest": harness.digest(parts), "sizes": sizes,
        "counts": {
            kind: sum(1 for r in requests for _, k, _ in r if k == kind)
            for kind in ("pool", "fresh", "transfer")
        },
    }


# -- daemon ----------------------------------------------------------------

class Daemon:
    """One ``kpbs serve`` subprocess; ``ready_s`` is spawn-to-ready time."""

    def __init__(self, state_dir: Path, summary: Path | None = None) -> None:
        if summary is None:
            argv = [sys.executable, "-m", "repro", "serve"]
        else:
            launcher = Path(__file__).resolve().parent / "serve_daemon.py"
            argv = [sys.executable, str(launcher), str(summary)]
        argv += ["--state-dir", str(state_dir)]
        self.stderr = open(state_dir.parent / f"{state_dir.name}.err", "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=harness.ROOT, env=harness.child_env(),
            stdout=subprocess.PIPE, stderr=self.stderr, text=True,
        )
        watchdog = threading.Timer(60.0, self.proc.kill)
        watchdog.start()
        self.address = None
        try:
            for line in self.proc.stdout:
                if line.startswith("serving kpbr on "):
                    self.address = line.split()[-1]
                if line.startswith("ready:"):
                    break
            else:
                raise RuntimeError("daemon exited before reporting ready")
            if self.address is None:
                raise RuntimeError("daemon reported no address")
        except BaseException:
            self.proc.kill()
            self.stop()
            raise
        finally:
            watchdog.cancel()
        self.ready_s = time.perf_counter() - t0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


# -- load ------------------------------------------------------------------

class Tally:
    """Outcomes of one load phase (thread-safe)."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.latency: list[float] = []
        self.queue: list[float] = []
        self.transfer_s: list[float] = []
        self.lag = 0.0
        self.ok_in_limit = 0
        self.failed = 0
        self.shed = 0
        self.degraded = 0
        self.quality: list[tuple[float, float]] = []
        self.failures: list[str] = []
        self.first_due = float("inf")
        self.last_done = 0.0
        #: ``(latency, graph, answer)`` of schedules verified after the load.
        self.deferred: list[tuple] = []

    def record(self, kind: str, latency: float, problem: str | None,
               doc: dict) -> None:
        with self.lock:
            if doc.get("status") == "retry":
                self.shed += 1
            if doc.get("degraded"):
                self.degraded += 1
            if problem is not None:
                self.failed += 1
                # A failed request misses any latency limit.
                self.latency.append(max(latency, LIMIT_S))
                if len(self.failures) < 20:
                    self.failures.append(f"{kind}: {problem}")
                return
            self.latency.append(latency)
            if latency <= LIMIT_S:
                self.ok_in_limit += 1
            if kind == "transfer":
                self.transfer_s.append(latency)
            else:
                cost, bound = float(doc["cost"]), float(doc["lower_bound"])
                self.quality.append((cost, cost / bound))


def _schedule_problem(doc: dict, graph=None) -> str | None:
    """What is wrong with a schedule answer (``graph``: verify it too)."""
    from repro.core.verify import verify_solution_dict

    if doc.get("status") != "ok":
        return f"{doc.get('status')} {doc.get('code')}: {doc.get('detail', '')}"
    if doc.get("degraded"):
        return f"degraded answer (level {doc.get('degraded_level')})"
    if graph is not None:
        report = verify_solution_dict(graph, doc["schedule"])
        if not report.ok:
            return report.summary()
    bound, cost = float(doc["lower_bound"]), float(doc["cost"])
    if not bound * (1 - _REL_TOL) <= cost <= 2 * bound * (1 + _REL_TOL):
        return f"Thm 1 violated: cost {cost!r}, bound {bound!r}"
    return None


def _tenant_loop(address, tenant, requests, load_plan, verified, start,
                 tally):
    """One tenant's connection: send each request when due, or when free.

    Answers for pool instances are compared with the verified warm-up
    answer; any other schedule answer is kept and verified after the
    load, so verification never delays a later request.
    """
    from repro.serve import ServeClient, ServeError

    client = ServeClient(address, tenant=f"tenant-{tenant}")
    try:
        for due, kind, payload, blob in requests:
            now = time.perf_counter() - start
            if now < due:
                time.sleep(due - now)
                sent = time.perf_counter() - start
                lag = sent - due
            else:
                sent, lag = now, 0.0
            try:
                if kind == "transfer":
                    run_id, params = payload
                    doc = client.request(
                        {"op": "transfer", "run_id": run_id, "params": params}
                    )
                else:
                    graph = (
                        load_plan["pools"][payload] if kind == "pool"
                        else payload
                    )
                    doc = client.request(
                        {"op": "schedule", "k": K, "beta": BETA}, blob=blob
                    )
            except ServeError as exc:
                doc = {"status": "error", "code": exc.code, "detail": str(exc)}
            done = time.perf_counter() - start
            latency = done - due
            with tally.lock:
                tally.first_due = min(tally.first_due, due)
                tally.last_done = max(tally.last_done, done)
                tally.lag = max(tally.lag, lag)
                tally.queue.append(sent - due)
            if kind == "transfer":
                problem = None
                if doc.get("status") != "ok":
                    problem = (
                        f"{doc.get('status')} {doc.get('code')}: "
                        f"{doc.get('detail', '')}"
                    )
                elif not doc.get("complete"):
                    problem = "transfer incomplete"
                elif doc.get("digest") != load_plan["expected"][payload[0]]:
                    problem = "transfer digest differs from its payloads"
                tally.record(kind, latency, problem, doc)
            elif (
                kind == "pool" and doc.get("status") == "ok"
                and doc.get("schedule") == verified.get(payload)
            ):
                tally.record(kind, latency, _schedule_problem(doc), doc)
            elif doc.get("status") == "ok":
                with tally.lock:
                    tally.deferred.append((kind, latency, graph, doc))
            else:
                tally.record(kind, latency, _schedule_problem(doc), doc)
    finally:
        client.close()


def _warm(address, pools) -> dict:
    """Schedule and verify every pool instance once, before the load.

    Returns the verified schedules by pool key; raises when one fails,
    since every later answer for that instance is compared with it.
    """
    from repro.parallel import encode_graph
    from repro.serve import ServeClient

    verified = {}
    for key, graph in sorted(pools.items()):
        with ServeClient(address, tenant=f"tenant-{key[0]}") as client:
            doc = client.request(
                {"op": "schedule", "k": K, "beta": BETA},
                blob=encode_graph(graph),
            )
        problem = _schedule_problem(doc, graph)
        if problem is not None:
            raise RuntimeError(f"warm-up answer for {key} is wrong: {problem}")
        verified[key] = doc["schedule"]
    return verified


def load(address, load_plan, verified) -> Tally:
    """Drive one open-loop phase, then verify the kept answers.

    Graph blobs are encoded before the clock starts, so the latencies
    time the daemon and the connection, not the client's encoder.
    """
    # Looked up at call time, so a traced phase sees the wrapped name.
    parallel = importlib.import_module("repro.parallel")
    blobs = {
        key: parallel.encode_graph(graph)
        for key, graph in load_plan["pools"].items()
    }

    def with_blob(kind, payload):
        if kind == "pool":
            return blobs[payload]
        return parallel.encode_graph(payload) if kind == "fresh" else None

    requests = [
        [(due, kind, payload, with_blob(kind, payload))
         for due, kind, payload in reqs]
        for reqs in load_plan["requests"]
    ]
    tally = Tally()
    start = time.perf_counter() + 0.05
    threads = [
        threading.Thread(
            target=_tenant_loop,
            args=(address, tenant, reqs, load_plan, verified, start, tally),
        )
        for tenant, reqs in enumerate(requests)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for kind, latency, graph, doc in tally.deferred:
        tally.record(kind, latency, _schedule_problem(doc, graph), doc)
    tally.deferred.clear()
    return tally


def probe() -> None:
    """Imports of the client side (daemon set-up is timed separately)."""
    from repro.core.verify import verify_solution_dict  # noqa: F401
    from repro.parallel import encode_graph  # noqa: F401
    from repro.serve import ServeClient  # noqa: F401


def _phase(tmp: Path, name: str, load_plan, summary: Path | None = None):
    """Spawn a daemon, warm it, run the load; returns a result dict.

    With ``summary`` the daemon runs under the layer wrappers, and so
    does the client's graph encoding (the one layer on the client side).
    """
    daemon = Daemon(tmp / name, summary)
    client_spans = tracing.Recorder()
    restore = None
    try:
        verified = _warm(daemon.address, load_plan["pools"])
        if summary is not None:
            restore = tracing.install(client_spans, only=("wire.encode",))
        tally = load(daemon.address, load_plan, verified)
        rss = harness.peak_rss_of(daemon.proc.pid)
    finally:
        if restore is not None:
            restore()
        daemon.stop()
    return {
        "tally": tally, "rss": rss, "ready_s": daemon.ready_s,
        "client_spans": client_spans.summary(),
    }


def run(seed: int, seconds: float, trace: bool, out_dir) -> dict:
    probe()
    with harness.temp_dir("serve-") as tmp:
        ready = []
        if not trace:
            # Set-up is the median of five spawn-to-ready times; the
            # last daemon is the one that takes the load.
            for i in range(4):
                spare = Daemon(tmp / f"setup{i}")
                ready.append(spare.ready_s)
                spare.stop()
            load_plan = plan(seed, seconds)
            result = _phase(tmp, "state", load_plan)
            ready.append(result["ready_s"])
            phases = [result]
        else:
            # The same requests, first against a plain daemon, then
            # against one under the layer wrappers.
            load_plan = plan(seed, seconds / 2)
            untraced = _phase(tmp, "state", load_plan)
            summary_path = tmp / "daemon-summary.json"
            traced = _phase(tmp, "traced", load_plan, summary_path)
            daemon_doc = json.loads(summary_path.read_text())
            out_dir.mkdir(parents=True, exist_ok=True)
            summary_path.with_suffix(".trace.json").replace(
                out_dir / "serve-mixed.trace.json"
            )
            phases = [untraced, traced]

    tallies = [p["tally"] for p in phases]
    out = {
        "attempted": sum(len(t.latency) for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "failures": [f for t in tallies for f in t.failures],
        "info": {
            "requests": load_plan["counts"],
            "digest": load_plan["digest"],
            "pool sizes": load_plan["sizes"],
        },
    }
    if not trace:
        tally = tallies[0]
        span = tally.last_done - tally.first_due
        out["metrics"] = {
            "setup_s": harness.median(ready),
            "peak_rss_mb": phases[0]["rss"],
            "throughput_per_s": tally.ok_in_limit / span,
            "latency_s.p50": harness.percentile(tally.latency, 50),
            "latency_s.p90": harness.percentile(tally.latency, 90),
            "evaluation_ratio.mean": harness.mean(r for _, r in tally.quality),
            "redistribution_s.mean": harness.mean(c for c, _ in tally.quality),
        }
        return out

    base, traced_tally = tallies
    daemon_spans = daemon_doc["spans"]
    spans = tracing.Recorder()
    spans.merge(daemon_spans)
    spans.merge(traced["client_spans"])
    metrics = tracing.layer_table(spans.summary(), 1)
    request_s = daemon_doc["request_s"]
    # The daemon's time per request is its handler time plus reading
    # and writing the frames; coverage is the share of that time spent
    # inside named layers (the rest is queueing and the event loop).
    handled = sum(request_s) + sum(
        daemon_spans["self_s"].get(name, 0.0)
        for name in ("protocol.encode", "protocol.decode")
    )
    metrics.update({
        "matching.threshold_probes": daemon_doc["threshold_probes"],
        "client.queue_s.p50": harness.percentile(base.queue, 50),
        "client.queue_s.p99": harness.percentile(base.queue, 99),
        "serve.request_s.p50": harness.percentile(request_s, 50),
        "serve.request_s.p99": harness.percentile(request_s, 99),
        "admission.shed": base.shed + traced_tally.shed,
        "admission.degraded": base.degraded + traced_tally.degraded,
        "transfer.run_s.p50": harness.median(base.transfer_s),
        "coverage_frac": tracing.named_self_s(daemon_spans) / handled,
        "trace.overhead_frac": (
            harness.median(traced_tally.latency)
            / harness.median(base.latency) - 1.0
        ),
        "generator.lag_s.max": max(base.lag, traced_tally.lag),
    })
    out["metrics"] = metrics
    return out
