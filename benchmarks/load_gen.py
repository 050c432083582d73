"""Open-loop load generator for the ``kpbs serve`` daemon.

Drives a multi-tenant schedule workload at a configured *arrival* rate
(open loop: arrivals do not wait for completions, so overload shows up
as queueing/shedding instead of a conveniently slowed-down client),
measures sustained schedules/sec, shed rate and the latency tail
(p50/p95/p99/max over the answered requests, with the sample count),
and can optionally SIGKILL the daemon mid-load to exercise reconnect +
crash-resume.

Typical invocations::

    # spawn a daemon, 4 tenants, 20 clients, 10 s of open-loop load
    PYTHONPATH=src python benchmarks/load_gen.py --spawn --duration 10

    # against an already-running daemon
    PYTHONPATH=src python benchmarks/load_gen.py --address 127.0.0.1:7421

    # chaos: kill the spawned daemon at t=4 s, restart, keep loading
    PYTHONPATH=src python benchmarks/load_gen.py --spawn --duration 12 \
        --chaos-kill-at 4

Results append under the ``"serve"`` key of ``BENCH_algorithms.json``
(the CI perf gate only reads ``"rows"``, so the serve section rides
along without affecting the algorithm-regression checks).
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.graph.generators import random_bipartite
from repro.parallel import encode_graph
from repro.serve import ServeClient, ServeError

#: Tenants draw from a small pool of instances each: realistic service
#: traffic repeats patterns, which is what the schedule cache and the
#: batch dispatcher are built to exploit.
INSTANCES_PER_TENANT = 3


class Stats:
    """Thread-safe tally of request outcomes."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.ok = 0
        self.shed = 0
        self.errors = 0
        self.dropped = 0
        self.unreachable = 0
        self.reconnects = 0
        self.degraded = 0
        self.latencies: list[float] = []
        self.by_tenant: dict[str, int] = {}
        self.failures: list[str] = []

    def record_ok(self, tenant: str, latency: float, degraded: bool) -> None:
        with self.lock:
            self.ok += 1
            self.latencies.append(latency)
            self.by_tenant[tenant] = self.by_tenant.get(tenant, 0) + 1
            if degraded:
                self.degraded += 1


class DaemonHandle:
    """A spawned ``kpbs serve`` subprocess (optional chaos target)."""

    def __init__(self, state_dir: str, port: int = 0):
        self.state_dir = state_dir
        self.port = port
        self.proc: subprocess.Popen | None = None
        self.address = ""
        self.metrics_url = ""

    def start(self) -> None:
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH", "")) if p
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--state-dir", self.state_dir, "--port", str(self.port),
             "--metrics-port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env,
        )
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    "daemon exited before serving: "
                    + self.proc.stderr.read()
                )
            if line.startswith("serving kpbr on "):
                self.address = line.split()[-1]
                # Pin the ephemeral port so a chaos restart comes back
                # on the same address the clients are hammering.
                self.port = int(self.address.rsplit(":", 1)[1])
            elif line.startswith("serving metrics on "):
                self.metrics_url = line.split()[-1]
            elif line.startswith("ready:"):
                return
        raise RuntimeError("daemon never became ready")

    def sigkill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            os.kill(self.proc.pid, signal.SIGKILL)
            self.proc.wait(timeout=60)

    def stop(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)

    def metrics_snapshot(self) -> dict:
        if not self.metrics_url:
            return {}
        import urllib.request

        base = self.metrics_url.rstrip("/")
        if base.endswith("/metrics"):
            base = base[: -len("/metrics")]
        with urllib.request.urlopen(base + "/snapshot.json", timeout=10) as r:
            return json.loads(r.read())


def tenant_instances(tenants: int, max_side: int, seed: int) -> dict:
    """Per-tenant pools of paper-style instances, pre-encoded as KPBW
    blobs (same generator and density as the committed algorithm
    benchmark rows, so schedules/sec here compares directly against the
    serial ``wall_time_mean_s`` at the same ``max_side``)."""
    pool = {}
    for t in range(tenants):
        name = f"tenant-{t}"
        pool[name] = [
            encode_graph(
                random_bipartite(
                    seed + t * INSTANCES_PER_TENANT + draw,
                    max_side=max_side, max_edges=max_side * max_side,
                )
            )
            for draw in range(INSTANCES_PER_TENANT)
        ]
    return pool


def worker(
    address: str,
    work: "queue.Queue[tuple[str, bytes] | None]",
    stats: Stats,
    stop: threading.Event,
    k: int,
    deadline_s: float,
) -> None:
    client: ServeClient | None = None
    tenant = "unset"
    while not stop.is_set():
        try:
            job = work.get(timeout=0.2)
        except queue.Empty:
            continue
        if job is None:
            break
        tenant, blob = job
        attempts = 0
        settled = False
        while attempts < 8 and not stop.is_set():
            attempts += 1
            try:
                if client is None or client.tenant != tenant:
                    if client is not None:
                        with stats.lock:
                            stats.reconnects += client.reconnects
                        client.close()
                    client = ServeClient(address, tenant=tenant)
                started = time.monotonic()
                doc = client.request(
                    {"op": "schedule", "k": k, "deadline_s": deadline_s},
                    blob=blob,
                )
            except ServeError:
                # Daemon gone (chaos kill or shutdown): drop the
                # connection and retry against the same address.
                with stats.lock:
                    stats.unreachable += 1
                if client is not None:
                    with stats.lock:
                        stats.reconnects += client.reconnects
                    client.close()
                    client = None
                time.sleep(0.25)
                continue
            status = doc.get("status")
            if status == "ok":
                stats.record_ok(
                    tenant, time.monotonic() - started,
                    bool(doc.get("degraded")),
                )
                settled = True
                break
            if status == "retry":
                with stats.lock:
                    stats.shed += 1
                time.sleep(min(float(doc.get("retry_after", 0.1)), 2.0))
                continue
            with stats.lock:
                stats.errors += 1
                if len(stats.failures) < 20:
                    stats.failures.append(str(doc))
            settled = True
            break
        if not settled:
            with stats.lock:
                stats.dropped += 1
    if client is not None:
        with stats.lock:
            stats.reconnects += client.reconnects
        client.close()


def percentile(ascending: list[float], q: float) -> float | None:
    """The sample at rank ``int(q * n)`` of an ascending list (``None``
    when empty); at ``q = 0.5`` this is the upper median."""
    if not ascending:
        return None
    return ascending[min(len(ascending) - 1, int(q * len(ascending)))]


def run_load(args: argparse.Namespace) -> dict:
    daemon: DaemonHandle | None = None
    address = args.address
    state_dir = args.state_dir
    if args.spawn:
        if state_dir is None:
            import tempfile

            state_dir = tempfile.mkdtemp(prefix="kpbs-loadgen-")
        daemon = DaemonHandle(state_dir, port=args.port)
        daemon.start()
        address = daemon.address
    if not address:
        raise SystemExit("need --address or --spawn")

    pool = tenant_instances(args.tenants, args.max_side, args.seed)
    tenants = list(pool)
    stats = Stats()
    stop = threading.Event()
    work: "queue.Queue[tuple[str, bytes] | None]" = queue.Queue()
    threads = [
        threading.Thread(
            target=worker,
            args=(address, work, stats, stop, args.k, args.deadline),
            daemon=True,
        )
        for _ in range(args.clients)
    ]
    for t in threads:
        t.start()

    # Open-loop arrivals: exponential inter-arrival times at --rate
    # regardless of how the daemon is keeping up.
    rng = random.Random(args.seed)
    started = time.monotonic()
    chaos_done = args.chaos_kill_at is None
    submitted = 0
    next_at = started
    while time.monotonic() - started < args.duration:
        now = time.monotonic()
        if not chaos_done and now - started >= args.chaos_kill_at:
            chaos_done = True
            if daemon is None:
                print("chaos: --chaos-kill-at needs --spawn; skipping")
            else:
                print(f"chaos: SIGKILL daemon at t={now - started:.1f}s")
                daemon.sigkill()
                # Restart off-thread so arrivals stay open-loop while
                # the daemon is down (the port is pinned, so clients
                # keep hammering the same address until it returns).
                threading.Thread(target=daemon.start, daemon=True).start()
        if now >= next_at:
            tenant = tenants[submitted % len(tenants)]
            work.put((tenant, rng.choice(pool[tenant])))
            submitted += 1
            next_at += rng.expovariate(args.rate)
        else:
            time.sleep(min(next_at - now, 0.01))

    # Let in-flight work drain, then stop the fleet.
    drain_deadline = time.monotonic() + args.deadline + 5.0
    while not work.empty() and time.monotonic() < drain_deadline:
        time.sleep(0.05)
    for _ in threads:
        work.put(None)
    stop.set()
    for t in threads:
        t.join(timeout=30)
    elapsed = time.monotonic() - started

    snapshot = {}
    if daemon is not None:
        try:
            snapshot = daemon.metrics_snapshot()
        except Exception as exc:
            print(f"warning: metrics snapshot failed: {exc}")
        daemon.stop()

    def metric(name: str) -> float:
        doc = snapshot.get(name)
        return float(doc["value"]) if isinstance(doc, dict) else 0.0

    answered = stats.ok + stats.errors
    latencies = sorted(stats.latencies)
    summary = {
        "config": {
            "duration_s": args.duration,
            "rate_per_s": args.rate,
            "tenants": args.tenants,
            "clients": args.clients,
            "max_side": args.max_side,
            "k": args.k,
            "chaos_kill_at": args.chaos_kill_at,
            "seed": args.seed,
        },
        "submitted": submitted,
        "ok": stats.ok,
        "errors": stats.errors,
        "dropped": stats.dropped,
        "shed": stats.shed,
        "unreachable": stats.unreachable,
        "reconnects": stats.reconnects,
        "degraded": stats.degraded,
        "elapsed_s": elapsed,
        "schedules_per_s": stats.ok / elapsed if elapsed > 0 else 0.0,
        "shed_rate": (
            stats.shed / (answered + stats.shed)
            if answered + stats.shed > 0 else 0.0
        ),
        "latency_samples": len(latencies),
        "latency_p50_s": percentile(latencies, 0.50),
        "latency_p95_s": percentile(latencies, 0.95),
        "latency_p99_s": percentile(latencies, 0.99),
        "latency_max_s": latencies[-1] if latencies else None,
        "by_tenant": dict(sorted(stats.by_tenant.items())),
        "failures": stats.failures,
        "daemon": {
            "requests_total": metric("serve.requests_total"),
            "schedules_total": metric("serve.schedules_total"),
            "answer_cache_hits": metric("serve.answer_cache.hits"),
            "answer_cache_misses": metric("serve.answer_cache.misses"),
            "shed_total": metric("serve.shed_total"),
            "malformed_frames": metric("serve.malformed_frames"),
            "internal_errors": metric("serve.internal_errors"),
        } if snapshot else None,
    }
    return summary


def record(summary: dict, out: str) -> None:
    """Fold the summary into BENCH_algorithms.json under ``"serve"``."""
    path = Path(out)
    doc = json.loads(path.read_text()) if path.is_file() else {
        "benchmark": "algorithms", "rows": [],
    }
    doc["serve"] = summary
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"recorded serve load results in {out}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--address", help="daemon address (host:port)")
    parser.add_argument(
        "--spawn", action="store_true",
        help="spawn a kpbs serve subprocess for the duration of the run",
    )
    parser.add_argument("--state-dir", default=None)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--duration", type=float, default=10.0)
    parser.add_argument(
        "--rate", type=float, default=40.0,
        help="open-loop arrival rate, requests/s across all tenants",
    )
    parser.add_argument("--tenants", type=int, default=4)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--max-side", type=int, default=12)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--deadline", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument(
        "--chaos-kill-at", type=float, default=None,
        help="SIGKILL the spawned daemon this many seconds in, restart "
             "it on the same state dir, and keep loading",
    )
    parser.add_argument(
        "--out", default=None,
        help="record results under the 'serve' key of this JSON file "
             "(e.g. BENCH_algorithms.json)",
    )
    parser.add_argument(
        "--fail-on-errors", action="store_true",
        help="exit nonzero if any request failed (CI smoke gate)",
    )
    args = parser.parse_args(argv)
    if args.tenants < 1 or args.clients < 1 or args.rate <= 0:
        raise SystemExit("--tenants/--clients/--rate must be positive")

    summary = run_load(args)
    print(json.dumps(summary, indent=2))
    if args.out:
        record(summary, args.out)
    if args.fail_on_errors and (summary["errors"] or not summary["ok"]):
        print("FAIL: request errors under load", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
