"""Machine-readable algorithm benchmark: ``BENCH_algorithms.json``.

Times the schedulers (GGP, OGGP and the two baselines) over a grid of
instance sizes and writes one JSON document mapping ``algorithm x size``
to wall-time and schedule-quality numbers.  All measurements flow
through the :mod:`repro.obs` metrics registry — the JSON rows are
derived from a registry snapshot, not from ad-hoc ``perf_counter``
bookkeeping — so the file doubles as an end-to-end exercise of the
telemetry stack.

Run it directly (it is a script, not a pytest benchmark)::

    PYTHONPATH=src python benchmarks/perf_snapshot.py
    PYTHONPATH=src python benchmarks/perf_snapshot.py --sizes 5 10 --repeats 2

The committed ``BENCH_algorithms.json`` at the repo root was produced
with the defaults; regenerate it after performance-relevant changes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import time

from repro import obs
from repro.core.baselines import greedy_schedule, list_schedule
from repro.core.bounds import evaluation_ratio, lower_bound
from repro.core.cache import ScheduleCache, cached_schedule
from repro.core.ggp import ggp
from repro.core.oggp import oggp
from repro.graph.generators import random_bipartite
from repro.parallel import schedule_batch

#: How many times each instance repeats in the batch-throughput
#: workload.  Batch runs are duplicate-heavy on purpose: the batch
#: engine's throughput comes from canonical dedup + schedule-cache
#: amortisation across repeated patterns (the service-workload shape),
#: on top of whatever the worker processes add.
BATCH_DUP = 4

ALGORITHMS = {
    "ggp": lambda graph, k, beta, engine: ggp(graph, k, beta, engine=engine),
    "oggp": lambda graph, k, beta, engine: oggp(graph, k, beta, engine=engine),
    "greedy": lambda graph, k, beta, engine: greedy_schedule(graph, k, beta),
    "list": lambda graph, k, beta, engine: list_schedule(graph, k, beta),
}

#: Default per-side sizes; 20 is the paper's simulation scale, 50/100
#: stress the exact peeling engine, 200+ the approximate one.
DEFAULT_SIZES = (5, 10, 20, 50, 100, 200, 500, 1000)

#: Work counters summed over a row's timed runs: column -> registry
#: counter.  With ``steps`` and ``transfers`` (read off the schedules)
#: they form :data:`COUNTER_COLUMNS`, the exact half of a row — the same
#: on every host and every run, so CI compares them for equality.
COUNTERS = {
    "wrgp_peels": "wrgp.peels",
    "bottleneck_threshold_probes": "matching.bottleneck.threshold_probes",
    "bottleneck_skipped_probes": "matching.bottleneck.skipped_probes",
    "hk_bfs_phases": "matching.hk.bfs_phases",
    "hk_augmenting_paths": "matching.hk.augmenting_paths",
    "hungarian_calls": "matching.hungarian.calls",
}
COUNTER_COLUMNS = (*COUNTERS, "steps", "transfers")


def engines_for(name: str, size: int) -> list[str]:
    """Which engines to benchmark for one ``(algorithm, size)`` cell.

    The baselines have no peeling engine (reported as ``'none'``).  The
    exact engine ``'fast'`` (``'vector'`` names the same code, so it is
    not timed twice) runs wherever a 3-repeat run stays in minutes: up
    to 100 per side, and up to 200 for OGGP.  From 200 up OGGP also runs
    ``'approx'``, the engine built for that regime.
    """
    if name in ("greedy", "list"):
        return ["none"] if size <= 100 else []
    if size <= 100:
        return ["fast"]
    if name != "oggp":
        return []
    if size <= 200:
        return ["fast", "approx"]
    return ["approx"]


def _batch_throughput(
    instances: list, name: str, k_eff: int, beta: float, jobs: int
) -> tuple[int, float]:
    """(batch size, schedules/s) for a duplicate-heavy batch.

    The batch repeats each instance ``BATCH_DUP`` times and runs through
    :func:`repro.parallel.schedule_batch` with a fresh cache — the
    workload the batch engine is built for (repeated patterns, warm
    workers), measured end to end including wire encode/decode.
    """
    batch = [g for g in instances for _ in range(BATCH_DUP)]
    cache = ScheduleCache(maxsize=max(4, len(instances)))
    start = time.perf_counter()
    schedule_batch(batch, name, k=k_eff, beta=beta, jobs=jobs, cache=cache)
    elapsed = time.perf_counter() - start
    return len(batch), len(batch) / elapsed if elapsed > 0 else 0.0


def snapshot_rows(
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    repeats: int = 3,
    k: int = 10,
    beta: float = 1.0,
    seed: int = 12345,
    jobs: int | None = None,
) -> list[dict]:
    """One row per (algorithm, size), measured via the metrics registry.

    With ``jobs`` set, GGP/OGGP rows gain batch-throughput columns
    comparing ``schedule_batch`` over a duplicate-heavy batch against
    the serial per-instance rate.
    """
    rows: list[dict] = []
    for size in sizes:
        instances = [
            random_bipartite(
                seed + draw, max_side=size, max_edges=size * size
            )
            for draw in range(repeats)
        ]
        k_eff = min(k, size)
        bounds = [lower_bound(g, k_eff, beta) for g in instances]
        for name, algorithm in ALGORITHMS.items():
          for engine in engines_for(name, size):
            run_engine = "fast" if engine == "none" else engine
            with obs.observed() as (registry, _tracer):
                timer = registry.timer(f"bench.{name}")
                ratios = registry.histogram(f"bench.{name}.evaluation_ratio")
                steps = transfers = 0
                for graph, bound in zip(instances, bounds):
                    with timer:
                        schedule = algorithm(graph, k_eff, beta, run_engine)
                    ratios.observe(evaluation_ratio(schedule.cost, bound))
                    steps += schedule.num_steps
                    transfers += sum(len(step) for step in schedule.steps)
                # Work counters for the timed runs, read before the cache
                # exercise below re-runs the algorithm and inflates them.
                work = {
                    column: registry.counter(counter).value
                    for column, counter in COUNTERS.items()
                }
                cache_hits = cache_misses = 0
                if name in ("ggp", "oggp") and size <= 200:
                    # Exercise the schedule cache on one instance: the
                    # first call misses (and computes), the second hits.
                    cache = ScheduleCache(maxsize=4)
                    for _ in range(2):
                        cached_schedule(
                            instances[0], k=k_eff, beta=beta,
                            algorithm=name, engine=run_engine, cache=cache,
                        )
                    cache_hits = registry.counter("schedule_cache.hits").value
                    cache_misses = registry.counter("schedule_cache.misses").value
                snap = registry.snapshot()
            timing = snap[f"bench.{name}"]
            quality = snap[f"bench.{name}.evaluation_ratio"]
            row = {
                "algorithm": name,
                "engine": engine,
                "max_side": size,
                "repeats": repeats,
                "k": k_eff,
                "beta": beta,
                "wall_time_mean_s": timing["mean"],
                "wall_time_max_s": timing["max"],
                "evaluation_ratio_mean": quality["mean"],
                "evaluation_ratio_max": quality["max"],
                **work,
                "steps": steps,
                "transfers": transfers,
                "schedule_cache_hits": cache_hits,
                "schedule_cache_misses": cache_misses,
            }
            if jobs is not None and name in ("ggp", "oggp") and engine == "fast":
                batch_size, batch_rate = _batch_throughput(
                    instances, name, k_eff, beta, jobs
                )
                serial_rate = (
                    1.0 / timing["mean"] if timing["mean"] > 0 else 0.0
                )
                row.update(
                    {
                        "jobs": jobs,
                        "batch_size": batch_size,
                        "batch_dup": BATCH_DUP,
                        "batch_throughput_schedules_per_s": batch_rate,
                        "serial_throughput_schedules_per_s": serial_rate,
                        "batch_speedup": (
                            batch_rate / serial_rate if serial_rate > 0 else 0.0
                        ),
                    }
                )
            rows.append(row)
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES),
        help="per-side instance sizes to benchmark",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--beta", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="also measure batch throughput on N worker processes",
    )
    parser.add_argument(
        "--out", default="BENCH_algorithms.json",
        help="output path (default: ./BENCH_algorithms.json)",
    )
    args = parser.parse_args(argv)
    rows = snapshot_rows(
        sizes=tuple(args.sizes),
        repeats=args.repeats,
        k=args.k,
        beta=args.beta,
        seed=args.seed,
        jobs=args.jobs,
    )
    doc = {
        "benchmark": "algorithms",
        "config": {
            "sizes": args.sizes,
            "repeats": args.repeats,
            "k": args.k,
            "beta": args.beta,
            "seed": args.seed,
            "jobs": args.jobs,
        },
        "rows": rows,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
