"""The repository benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload kpbs-random --seed 1 --seconds 30 --trace 0

Workloads (``BENCHMARK.json`` says why each exists):

- ``kpbs-random`` (:mod:`kpbs_random`): oggp + ggp on dense random
  instances, closed loop, one caller;
- ``serve-mixed`` (:mod:`serve_mixed`): open-loop Poisson load on a
  ``kpbs serve`` daemon, mostly cache hits;
- ``redistribute-churn`` (:mod:`redistribute_churn`): structured
  traffic through the netsim and runtime churn executors, journaled.

``--trace 0`` prints the end-to-end metrics.  Every workload reports
every one of them; an "operation" is one schedule call
(kpbs-random), one request (serve-mixed) or one redistribution of a
matrix through both executors (redistribute-churn):

- ``setup_s`` — median of several set-ups: a fresh process importing
  the workload's modules and making one warm-up call, or for
  serve-mixed a daemon spawn until its ``ready:`` line;
- ``peak_rss_mb`` — peak memory of the working process (the daemon
  for serve-mixed);
- ``throughput_per_s`` — schedules per second of scheduling time,
  OK answers within the latency limit per second, or runs per second
  of run time;
- ``latency_s.p50`` / ``latency_s.p90`` — per operation; serve-mixed
  times a request from the moment it was due to be sent;
- ``evaluation_ratio.mean`` — schedule cost / lower bound (for
  redistribute-churn: simulated makespan / lower bound of the final
  traffic);
- ``redistribution_s.mean`` — mean schedule cost, or mean simulated
  makespan of the netsim runs.

``--trace 1`` prints the per-layer metrics instead.  kpbs-random and
redistribute-churn run each operation three times back to back: plain,
with the program's ``repro.obs`` on, and under the benchmark's layer
wrappers (:mod:`tracing`); serve-mixed runs its load against a plain
daemon and then against one under the wrappers.  A layer a workload
does not exercise reads 0.  Traced runs write their retained spans to
``.perfbench/traces/``.

Every output is checked; a wrong one counts in ``failed`` and makes
``correct`` false, it never stops the run.  Without the program's
sources next to this directory the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

import harness

SPEC_PATH = harness.ROOT / "BENCHMARK.json"
WORKLOADS = {
    "kpbs-random": "kpbs_random",
    "serve-mixed": "serve_mixed",
    "redistribute-churn": "redistribute_churn",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float,
        default=json.loads(SPEC_PATH.read_text())["run_seconds"],
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--probe", choices=sorted(WORKLOADS),
        help="set-up probe: import the workload, warm up once, exit",
    )
    args = parser.parse_args(argv)
    if args.workload is None and args.probe is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not harness.source_present():
        print(
            f"error: no program sources at {harness.SRC}; run from the "
            "root of a checkout",
            file=sys.stderr,
        )
        return 2
    harness.use_source()
    module = importlib.import_module(WORKLOADS[args.probe or args.workload])
    if args.probe:
        module.probe()
        return 0

    spec = json.loads(SPEC_PATH.read_text())
    section = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    result = module.run(
        args.seed, args.seconds, bool(args.trace), harness.WORK / "traces"
    )
    metrics = result["metrics"]
    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        metrics["failed_frac"] = failed / attempted if attempted else 0.0
        for name in units:
            metrics.setdefault(name, 0.0)
    unknown = sorted(set(metrics) - set(units))
    missing = sorted(set(units) - set(metrics))
    if unknown or missing:
        raise SystemExit(
            f"metric set does not match BENCHMARK.json: unknown {unknown}, "
            f"missing {missing}"
        )

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for key, value in result["info"].items():
        print(f"  {key}: {value}")
    for failure in result.get("failures", [])[:20]:
        print(f"  FAILED {failure}")
    for name in units:
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
