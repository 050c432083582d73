"""``kpbs`` — command-line front end.

Subcommands::

    kpbs experiments                  list available experiments
    kpbs run fig7 [--draws N] [--csv out.csv]
                                      regenerate a paper figure / ablation
    kpbs schedule --input m.json --k 4 --beta 1 [--algorithm oggp]
                                      schedule a traffic matrix
    kpbs simulate --k 3 --max-mb 60 [--seed 7]
                                      one-shot testbed comparison
    kpbs transfer --checkpoint-dir d [--seed 7] [--nic-mbit 10]
                                      move real bytes through the in-process
                                      runtime, journaling progress durably
    kpbs watch --churn SPEC [--checkpoint-dir d]
                                      live-churn redistribution: segmented
                                      execution with splice repair
    kpbs resume --checkpoint-dir d    finish a killed ``transfer`` or
                                      ``watch`` run from its checkpoint
    kpbs demo                         the paper's Figure 2 worked example
    kpbs stats profile.json [--trace t.json]
                                      pretty-print a saved metrics/trace file

``run``, ``schedule``, ``simulate``, ``report`` and ``demo`` all accept
``--profile out.json`` (metrics-registry snapshot) and ``--trace
out.trace.json`` (Chrome trace-event JSON, loadable in chrome://tracing
or Perfetto); see docs/observability.md.

``run`` and ``simulate`` additionally accept ``--faults SPEC``
(deterministic fault injection), ``--retries N`` and ``--task-timeout
SECONDS``; see docs/robustness.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro import obs
from repro.core.bounds import evaluation_ratio, lower_bound
from repro.core.ggp import ggp
from repro.core.oggp import oggp
from repro.core.wrgp import VALID_ENGINES
from repro.experiments.fig7 import run_fig7
from repro.experiments.fig8 import run_fig8
from repro.experiments.fig9 import run_fig9
from repro.experiments.fig10_11 import TestbedConfig, run_testbed_comparison
from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment
from repro.experiments.simulation import SimulationConfig
from repro.graph.generators import from_traffic_matrix, paper_figure2_graph
from repro.netsim.runner import run_redistribution, uniform_traffic
from repro.netsim.topology import NetworkSpec
from repro.resilience import FaultSpec, RetryPolicy
from repro.runtime import seeded
from repro.util.errors import ReproError


def _cmd_experiments(_args: argparse.Namespace) -> int:
    print("available experiments:")
    for name in sorted(EXPERIMENTS):
        print(f"  {name}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    name = args.experiment
    extra: dict[str, object] = {}
    if args.faults:
        extra["faults"] = FaultSpec.parse(args.faults)
    if args.retries is not None:
        # Experiments take a plain attempt count; richer --retries
        # specs collapse to their max_attempts here.
        extra["retries"] = RetryPolicy.parse(args.retries).max_attempts
    if args.task_timeout is not None:
        extra["task_timeout"] = args.task_timeout
    if name in ("fig7", "fig8", "fig9") and not extra and (
        args.draws is not None or args.jobs is not None
    ):
        draws = {} if args.draws is None else {"draws": args.draws}
        config = SimulationConfig(**draws)
        runner = {"fig7": run_fig7, "fig8": run_fig8, "fig9": run_fig9}[name]
        result = runner(config, jobs=1 if args.jobs is None else args.jobs)
    elif name in ("fig10", "fig11") and not extra and (
        args.size_scale != 1.0 or args.repeats is not None
        or args.jobs is not None
    ):
        config = TestbedConfig(
            k=3 if name == "fig10" else 7,
            size_scale=args.size_scale,
            tcp_repeats=args.repeats or 3,
        )
        result = run_testbed_comparison(
            config, jobs=1 if args.jobs is None else args.jobs
        )
    elif args.jobs is not None or extra:
        result = run_experiment(name, jobs=args.jobs, **extra)
    else:
        result = get_experiment(name)()
    print(result.render())
    if args.csv:
        result.save_csv(args.csv)
        print(f"\nwrote {args.csv}")
    return 0


def _load_matrix(path: Path) -> np.ndarray:
    """Traffic matrix from .json (list of lists) or .csv."""
    if path.suffix == ".json":
        return np.asarray(json.loads(path.read_text()), dtype=float)
    if path.suffix == ".csv":
        return np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    raise ReproError(f"unsupported matrix format {path.suffix!r} (want .json/.csv)")


def _cmd_schedule(args: argparse.Namespace) -> int:
    matrix = _load_matrix(Path(args.input))
    graph = from_traffic_matrix(matrix, speed=args.speed)
    if args.jobs is not None and args.jobs != 1:
        from repro.parallel import schedule_batch

        # Same schedule as the in-process path (the batch engine is
        # bit-identical), computed on a worker process.
        schedule = schedule_batch(
            [graph], args.algorithm, k=args.k, beta=args.beta,
            engine=args.engine, jobs=args.jobs, cache=None,
            min_parallel_items=0,
        )[0]
    else:
        algorithm = oggp if args.algorithm == "oggp" else ggp
        schedule = algorithm(graph, k=args.k, beta=args.beta, engine=args.engine)
    schedule.validate(graph)
    bound = lower_bound(graph, args.k, args.beta)
    ratio = evaluation_ratio(schedule.cost, bound)
    metrics = obs.metrics()
    metrics.gauge("schedule.cost").set(schedule.cost)
    metrics.gauge("schedule.lower_bound").set(bound)
    metrics.gauge("schedule.evaluation_ratio").set(ratio)
    metrics.gauge("schedule.steps").set(schedule.num_steps)
    metrics.gauge("schedule.preemptions").set(schedule.num_preemptions)
    print(schedule.describe())
    print(f"lower bound {bound:.6g}, evaluation ratio {ratio:.4f}")
    if args.gantt:
        from repro.analysis.gantt import gantt_sync

        print()
        print(gantt_sync(schedule))
    if args.relax:
        from repro.analysis.gantt import gantt_async
        from repro.core.relax import relax_schedule

        relaxed = relax_schedule(schedule)
        relaxed.validate(graph)
        print(
            f"\nrelaxed (barrier-free) makespan: {relaxed.makespan:.6g} "
            f"({100 * (1 - relaxed.makespan / schedule.cost):+.1f}% vs sync)"
        )
        if args.gantt:
            print(gantt_async(relaxed))
    if args.output:
        # Schedule dict plus derived quality keys; Schedule.from_dict and
        # `kpbs verify` read only k/beta/steps and ignore the extras.
        doc = schedule.to_dict()
        doc["cost"] = schedule.cost
        doc["lower_bound"] = bound
        doc["evaluation_ratio"] = ratio
        Path(args.output).write_text(json.dumps(doc))
        print(f"wrote {args.output}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Run a set of experiments and emit one Markdown report."""
    names = args.experiment or sorted(EXPERIMENTS)
    sections = ["# K-PBS reproduction report", ""]
    for name in names:
        print(f"running {name} ...", flush=True)
        result = get_experiment(name)()
        sections.append(f"## {result.experiment_id} — {result.title}")
        sections.append("")
        sections.append(result.markdown())
        if result.notes:
            sections.append("")
            sections.append(f"*{result.notes}*")
        sections.append("")
    text = "\n".join(sections)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """Verify a schedule JSON against a traffic matrix."""
    import json as _json

    from repro.core.verify import verify_solution_dict

    matrix = _load_matrix(Path(args.matrix))
    graph = from_traffic_matrix(matrix, speed=args.speed)
    data = _json.loads(Path(args.schedule).read_text())
    report = verify_solution_dict(graph, data)
    print(report.summary())
    for violation in report.violations:
        where = f"step {violation.step}" if violation.step >= 0 else "schedule"
        print(f"  [{violation.kind.value}] {where}: {violation.detail}")
    return 0 if report.ok else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = NetworkSpec.paper_testbed(args.k, step_setup=args.beta)
    traffic = uniform_traffic(args.seed, spec.n1, spec.n2, 10.0, args.max_mb)
    faults, retry = seeded.resilience_options(
        args.faults, args.retries, args.task_timeout
    )
    if args.jobs is not None and args.jobs != 1:
        from repro.netsim.runner import build_schedule_batch

        # Pre-warm the schedule cache on the worker pool; the method
        # loop below then hits it, producing identical schedules.
        for method in ("ggp", "oggp"):
            build_schedule_batch(
                spec, [traffic], method, jobs=args.jobs,
                retry=retry,
                task_timeout=args.task_timeout,
                fault_plan=faults,
            )
    rows = []
    for method in ("bruteforce", "ggp", "oggp"):
        if method == "bruteforce":
            # The TCP model has no per-transfer schedule to fault.
            out = run_redistribution(spec, traffic, method, rng=args.seed)
        else:
            out = run_redistribution(
                spec, traffic, method, rng=args.seed,
                faults=faults, retry=retry,
            )
        rows.append((method, out.total_time, out.num_steps))
        line = f"{method:10s} total={out.total_time:9.2f}s steps={out.num_steps}"
        if out.rounds:
            line += (
                f" (recovered in {out.rounds} round(s), "
                f"+{out.recovery_time:.2f}s"
            )
            if out.undelivered_mbit:
                line += f", {out.undelivered_mbit:.2f} Mbit undelivered"
            line += ")"
        print(line)
    brute = rows[0][1]
    for method, total, _ in rows[1:]:
        print(f"{method:10s} gain vs brute force: {100 * (1 - total / brute):.1f}%")
    return 0


def _print_transfer_report(report) -> int:
    delivered_bytes = sum(len(p) for p in report.delivered.values())
    print(f"rounds:    {report.rounds}")
    print(f"seconds:   {report.total_seconds:.3f}")
    print(f"moved:     {report.bytes_moved} bytes")
    print(f"delivered: {delivered_bytes} bytes")
    print(f"complete:  {report.complete}")
    print(f"digest:    {seeded.delivered_digest(report.delivered)}")
    for failure in report.errors:
        print(f"  unresolved: {failure}")
    return 0 if report.complete else 1


def _cmd_transfer(args: argparse.Namespace) -> int:
    """Move real (seeded) bytes through the runtime, checkpointed."""
    report = seeded.run_transfer(
        args.checkpoint_dir or None,
        {key: getattr(args, key) for key in seeded.CONFIG_DEFAULTS},
        task_timeout=args.task_timeout, cache=None,
        fsync=args.fsync, snapshot_every=args.snapshot_every,
    )
    return _print_transfer_report(report)


def _cmd_resume(args: argparse.Namespace) -> int:
    """Finish a killed ``kpbs transfer``/``kpbs watch`` run."""
    # The recorded config rebuilds the same payloads or traffic and fault
    # trajectory; CLI flags override its faults/retries.
    options = dict(
        faults=args.faults, retries=args.retries,
        task_timeout=args.task_timeout, fsync=args.fsync,
        snapshot_every=args.snapshot_every,
    )
    if seeded.read_run_config(args.checkpoint_dir).get("mode") == "watch":
        out = seeded.run_watch(args.checkpoint_dir, **options)
        return _print_watch_outcome(out, verbose=True)
    report = seeded.run_transfer(args.checkpoint_dir, **options)
    return _print_transfer_report(report)


def _print_watch_outcome(out, verbose: bool) -> int:
    from repro.netsim.watch import delivered_digest

    if verbose:
        for row in out.history:
            line = (
                f"round {row['round']:3d}  {row['mode']:8s} "
                f"steps={row['steps']:3d} sim={row['sim_seconds']:8.2f}s"
            )
            if row["churn"]:
                line += f" churn={row['churn']}"
            if row["failed"]:
                line += f" failed={row['failed']}"
            print(line)
    print(f"rounds:    {out.rounds}")
    print(f"churn:     {out.churn_events} event(s), {out.churn_ops} op(s)")
    print(f"splices:   {out.splices}")
    print(f"fallbacks: {out.fallbacks}")
    print(f"rebuilds:  {out.fresh_builds}")
    # Every schedule this run executed — the initial build, each
    # splice and each fallback — passed verify_recovery_schedule
    # against its residual graph before a single step ran; a
    # verification failure aborts the run with a ConfigError.
    print(f"verified:  {out.fresh_builds + out.splices + out.fallbacks}")
    print(f"sim time:  {out.total_time:.2f}s over {out.num_steps} step(s)")
    if out.undelivered_mbit:
        print(f"missing:   {out.undelivered_mbit:.2f} Mbit undelivered")
    print(f"digest:    {delivered_digest(out.edges, out.delivered)}")
    print(f"complete:  {out.complete}")
    return 0 if out.complete else 1


def _cmd_watch(args: argparse.Namespace) -> int:
    """Run a live-churn redistribution with splice repair."""
    out = seeded.run_watch(
        args.checkpoint_dir or None,
        {key: getattr(args, key) for key in seeded.WATCH_DEFAULTS
         if key != "mode"},
        task_timeout=args.task_timeout,
        fsync=args.fsync, snapshot_every=args.snapshot_every,
    )
    return _print_watch_outcome(out, not args.quiet)


def _cmd_demo(_args: argparse.Namespace) -> int:
    graph = paper_figure2_graph()
    print("paper Figure 2 example graph (k=3, beta=1):")
    for e in graph.edges_sorted():
        print(f"  {e.left} -> {e.right}: {e.weight}")
    bound = lower_bound(graph, 3, 1.0)
    for name, algorithm in (("GGP", ggp), ("OGGP", oggp)):
        schedule = algorithm(graph, k=3, beta=1.0)
        schedule.validate(graph)
        print(f"\n{name}:")
        print(schedule.describe())
        print(f"lower bound {bound}, ratio {schedule.cost / bound:.3f}")
    print(
        "\n(the paper's illustrated 3-step solution costs 15; both "
        "algorithms do better here, and the optimum is 10)"
    )
    return 0


#: Columns of the ``kpbs stats`` table, pulled from each metric's dict.
_STATS_COLUMNS = (
    "value", "count", "total", "mean", "min", "p50", "p95", "max",
    "elapsed", "laps",
)


def _stats_table(snapshot: dict) -> str:
    """Aligned table for a metrics-registry snapshot dict."""
    from repro.analysis.tables import format_table

    rows = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        row: list[object] = [name, entry.get("type", "?")]
        for field in _STATS_COLUMNS:
            value = entry.get(field)
            row.append("" if value is None else value)
        rows.append(row)
    return format_table(("metric", "type") + _STATS_COLUMNS, rows, floatfmt=".6g")


def _load_json(path: str, what: str) -> object:
    p = Path(path)
    if not p.is_file():
        raise ReproError(f"{what} file not found: {path}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ReproError(f"{path} is not valid JSON: {exc}") from exc


#: Fields compared per metric type by ``kpbs stats --diff``.
_DIFF_FIELDS = {
    "counter": ("value",),
    "gauge": ("value",),
    "histogram": ("count", "total"),
    "timer": ("laps", "elapsed"),
}


def _load_snapshot(source: str, what: str) -> dict:
    """A metrics snapshot from a file path or a live endpoint URL."""
    if source.startswith(("http://", "https://")):
        from repro.cli.top import endpoint_urls, fetch_json

        snapshot = fetch_json(endpoint_urls(source)[0])
    else:
        snapshot = _load_json(source, what)
    if not isinstance(snapshot, dict) or not all(
        isinstance(v, dict) and "type" in v for v in snapshot.values()
    ):
        raise ReproError(
            f"{source} is not a metrics snapshot "
            "(expected the JSON written by --profile or served "
            "at /snapshot.json)"
        )
    return snapshot


def _diff_table(before: dict, after: dict) -> str:
    """Per-metric deltas between two snapshots (after minus before)."""
    from repro.analysis.tables import format_table

    rows = []
    for name in sorted(set(before) | set(after)):
        a, b = before.get(name, {}), after.get(name, {})
        kind = b.get("type") or a.get("type") or "?"
        for field in _DIFF_FIELDS.get(kind, ("value",)):
            old, new = a.get(field), b.get(field)
            if old is None and new is None:
                continue
            delta = (new or 0) - (old or 0)
            if not delta and old is not None and new is not None:
                continue
            rows.append(
                (name, kind, field,
                 "" if old is None else old,
                 "" if new is None else new,
                 delta)
            )
    if not rows:
        return "(no differences)"
    return format_table(
        ("metric", "type", "field", "before", "after", "delta"),
        rows, floatfmt=".6g",
    )


def _cmd_stats(args: argparse.Namespace) -> int:
    """Pretty-print saved --profile / --trace files, or diff two."""
    if args.diff:
        before = _load_snapshot(args.diff[0], "profile")
        after = _load_snapshot(args.diff[1], "profile")
        print(_diff_table(before, after))
        return 0
    if not args.profile and not args.trace:
        raise ReproError(
            "nothing to show: pass a profile JSON / endpoint URL, "
            "--trace, or --diff"
        )
    if args.profile:
        snapshot = _load_snapshot(args.profile, "profile")
        if snapshot:
            print(_stats_table(snapshot))
        else:
            print("(no metrics recorded)")
    if args.trace:
        trace = _load_json(args.trace, "trace")
        if not isinstance(trace, dict):
            raise ReproError(f"{args.trace} is not a Chrome trace document")
        records = obs.records_from_chrome(trace)
        if args.profile:
            print()
        print(obs.flame_summary(records))
    return 0


def _add_resilience_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--faults", metavar="SPEC", default=None,
        help=(
            "inject deterministic faults: a bare transfer-failure rate "
            "or key=value list (seed=, transfer=, stall=, crash=, "
            "degrade=, factor=); see docs/robustness.md"
        ),
    )
    p.add_argument(
        "--retries", default=None, metavar="SPEC",
        help=(
            "retry budget: a bare max attempt count (default 3) or a "
            "key=value list (attempts=, max-elapsed=, base=, "
            "multiplier=, max-backoff=, jitter=, timeout=, seed=); "
            "see docs/robustness.md"
        ),
    )
    p.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt wall-clock deadline for pool workers",
    )


def _add_checkpoint_args(p: argparse.ArgumentParser, required: bool) -> None:
    p.add_argument(
        "--checkpoint-dir", required=required, default=None, metavar="DIR",
        help="durable checkpoint directory (journal + snapshots); "
        "resumable with 'kpbs resume' after a crash",
    )
    p.add_argument(
        "--fsync", choices=("always", "round", "never"), default="round",
        help="journal fsync policy (default: once per round)",
    )
    p.add_argument(
        "--snapshot-every", type=int, default=8, metavar="N",
        help="compact the journal into a snapshot every N rounds",
    )


def _add_observability_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--profile", dest="profile_out", metavar="FILE",
        help="write a metrics-registry JSON snapshot here",
    )
    p.add_argument(
        "--trace", dest="trace_out", metavar="FILE",
        help="write Chrome trace-event JSON here (chrome://tracing, Perfetto)",
    )
    p.add_argument(
        "--metrics-port", dest="metrics_port", type=int, default=None,
        metavar="PORT",
        help="serve /metrics, /snapshot.json and /events.json on this "
        "port for the duration of the command (0 = pick a free port; "
        "watch it with 'kpbs top')",
    )
    p.add_argument(
        "--events", dest="events_out", metavar="FILE",
        help="append structured run events (JSONL) here; "
        "see docs/observability.md",
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``kpbs`` argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="kpbs",
        description=(
            "K-PBS message scheduling for data redistribution through a "
            "backbone (reproduction of Jeannot & Wagner, IPPS 2004)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("experiments", help="list available experiments")
    p.set_defaults(fn=_cmd_experiments)

    p = sub.add_parser("run", help="run a paper figure or ablation")
    p.add_argument("experiment", choices=sorted(EXPERIMENTS))
    p.add_argument("--draws", type=int, default=None, help="draws per point (figs 7-9)")
    p.add_argument(
        "--size-scale", type=float, default=1.0,
        help="scale message sizes (figs 10/11; <1 for quick runs)",
    )
    p.add_argument("--repeats", type=int, default=None, help="TCP repeats (figs 10/11)")
    p.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for batch scheduling and the draws of "
        "figs 7-9 (0 = all CPUs)",
    )
    p.add_argument("--csv", type=str, default=None, help="also write rows to CSV")
    _add_resilience_args(p)
    _add_observability_args(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("schedule", help="schedule a traffic matrix")
    p.add_argument("--input", required=True, help="matrix file (.json or .csv)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--speed", type=float, default=1.0, help="per-flow rate")
    p.add_argument("--algorithm", choices=("ggp", "oggp"), default="oggp")
    p.add_argument(
        "--engine", choices=sorted(VALID_ENGINES), default="fast",
        help="peeling engine; 'vector' names the same code as 'fast', "
        "'approx' trades schedule quality for speed on the largest "
        "matrices",
    )
    p.add_argument("--output", help="write schedule JSON here")
    p.add_argument("--gantt", action="store_true", help="print a Gantt chart")
    p.add_argument(
        "--jobs", type=int, default=None,
        help="schedule on N worker processes (0 = all CPUs); same output",
    )
    p.add_argument(
        "--relax", action="store_true",
        help="also compute the barrier-free (asynchronous) makespan",
    )
    _add_observability_args(p)
    p.set_defaults(fn=_cmd_schedule)

    p = sub.add_parser(
        "report", help="run experiments and emit one Markdown report"
    )
    p.add_argument(
        "experiment", nargs="*", choices=sorted(EXPERIMENTS),
        help="experiments to include (default: all)",
    )
    p.add_argument("--out", help="write the report here (default: stdout)")
    _add_observability_args(p)
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("verify", help="verify a schedule JSON against a matrix")
    p.add_argument("--matrix", required=True, help="traffic matrix (.json/.csv)")
    p.add_argument("--schedule", required=True, help="schedule JSON file")
    p.add_argument("--speed", type=float, default=1.0, help="per-flow rate")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("simulate", help="one-shot testbed comparison")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--max-mb", type=float, default=60.0)
    p.add_argument("--beta", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--jobs", type=int, default=None,
        help="pre-compute schedules on N worker processes (0 = all CPUs)",
    )
    _add_resilience_args(p)
    _add_observability_args(p)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser(
        "transfer",
        help="move real bytes through the in-process runtime, checkpointed",
    )
    p.add_argument("--seed", type=int, default=0, help="payload/run seed")
    p.add_argument("--n1", type=int, default=3, help="sender cluster size")
    p.add_argument("--n2", type=int, default=3, help="receiver cluster size")
    p.add_argument(
        "--payload-kb", type=float, default=256.0,
        help="max payload size per sender/receiver pair (KiB)",
    )
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument(
        "--algorithm", dest="method", choices=("ggp", "oggp"),
        default="oggp",
    )
    p.add_argument(
        "--engine", choices=sorted(VALID_ENGINES), default="fast",
        help="peeling engine for the initial and recovery schedules",
    )
    p.add_argument(
        "--nic-mbit", type=float, default=1000.0,
        help="per-NIC token-bucket rate (Mbit/s); low values slow the "
        "run down enough to kill and resume it",
    )
    p.add_argument(
        "--backbone-mbit", type=float, default=1000.0,
        help="backbone token-bucket rate (Mbit/s)",
    )
    _add_checkpoint_args(p, required=False)
    _add_resilience_args(p)
    _add_observability_args(p)
    p.set_defaults(fn=_cmd_transfer)

    p = sub.add_parser(
        "watch",
        help="live-churn redistribution: segmented execution with "
        "splice repair",
    )
    watch = seeded.WATCH_DEFAULTS  # the one statement of each default
    p.add_argument("--seed", type=int, default=watch["seed"], help="traffic seed")
    p.add_argument("--n1", type=int, default=watch["n1"], help="sender cluster size")
    p.add_argument("--n2", type=int, default=watch["n2"], help="receiver cluster size")
    p.add_argument("--k", type=int, default=watch["k"])
    p.add_argument("--beta", type=float, default=watch["beta"])
    p.add_argument(
        "--max-mb", type=float, default=watch["max_mb"],
        help="max traffic per sender/receiver pair (MB)",
    )
    p.add_argument(
        "--algorithm", dest="method", choices=("ggp", "oggp"),
        default=watch["method"],
    )
    p.add_argument(
        "--engine", choices=sorted(VALID_ENGINES), default=watch["engine"],
        help="peeling engine for the initial, spliced and fallback "
        "schedules",
    )
    p.add_argument(
        "--churn", metavar="SPEC", default=watch["churn"],
        help=(
            "live churn spec: key=value list (seed=, inject=, remove=, "
            "resize= rates per event, events=, size=LO:HI, "
            "factor=LO:HI); see docs/robustness.md"
        ),
    )
    p.add_argument(
        "--segment-steps", type=int, default=watch["segment_steps"], metavar="N",
        help="plan steps executed between churn/repair points",
    )
    p.add_argument(
        "--max-ratio", type=float, default=watch["max_ratio"],
        help="fall back to a full reschedule when the spliced cost "
        "exceeds this multiple of the residual lower bound",
    )
    p.add_argument(
        "--max-affected", type=float, default=watch["max_affected"],
        help="fall back when more than this fraction of pending edges "
        "is affected",
    )
    p.add_argument(
        "--quiet", action="store_true",
        help="suppress the per-round progress lines",
    )
    _add_checkpoint_args(p, required=False)
    _add_resilience_args(p)
    _add_observability_args(p)
    p.set_defaults(fn=_cmd_watch)

    p = sub.add_parser(
        "resume",
        help="finish a killed 'kpbs transfer' or 'kpbs watch' run "
        "from its checkpoint",
    )
    _add_checkpoint_args(p, required=True)
    _add_resilience_args(p)
    _add_observability_args(p)
    p.set_defaults(fn=_cmd_resume)

    p = sub.add_parser(
        "serve",
        help="long-lived multi-tenant scheduling daemon (KPBR over a "
        "loopback/unix socket)",
    )
    p.add_argument(
        "--host", default="127.0.0.1",
        help="listen address (loopback by default; the daemon has no "
        "authentication)",
    )
    p.add_argument(
        "--port", type=int, default=0,
        help="listen port (default 0 = pick a free port)",
    )
    p.add_argument(
        "--socket", default=None, metavar="PATH",
        help="listen on a unix socket instead of TCP",
    )
    p.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="journal transfer runs under DIR/runs/<run_id>; a killed "
        "daemon restarted on the same DIR resumes them bit-identically "
        "(transfer ops are disabled without it)",
    )
    p.add_argument(
        "--jobs", type=int, default=1,
        help="schedule on N warm worker processes (0 = all CPUs, "
        "1 = in-process)",
    )
    p.add_argument(
        "--max-queue", type=int, default=64,
        help="bounded admission queue; beyond it requests are shed "
        "with RETRY_AFTER",
    )
    p.add_argument(
        "--max-batch", type=int, default=16,
        help="schedule requests micro-batched per dispatch",
    )
    p.add_argument(
        "--max-transfers", type=int, default=2,
        help="concurrent transfer executions",
    )
    p.add_argument(
        "--tenant-rate", type=float, default=None, metavar="REQ_PER_S",
        help="per-tenant token-bucket quota (requests/second; "
        "default: no quota)",
    )
    p.add_argument(
        "--tenant-burst", type=float, default=None,
        help="per-tenant burst allowance (default: 2x rate)",
    )
    p.add_argument(
        "--deadline", type=float, default=30.0, metavar="SECONDS",
        help="default per-request deadline (requests may override "
        "with deadline_s)",
    )
    p.add_argument(
        "--idle-timeout", type=float, default=30.0, metavar="SECONDS",
        help="per-read/write socket timeout (slow-loris guard)",
    )
    p.add_argument(
        "--metrics-port", dest="serve_metrics_port", type=int, default=0,
        metavar="PORT",
        help="/metrics, /events.json and /healthz endpoint (default "
        "0 = pick a free port; -1 disables)",
    )
    p.add_argument(
        "--fsync", choices=("always", "round", "never"), default="round",
        help="journal fsync policy for transfer runs",
    )
    p.add_argument(
        "--snapshot-every", type=int, default=8, metavar="N",
        help="compact transfer journals every N rounds",
    )
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("demo", help="the paper's Figure 2 worked example")
    _add_observability_args(p)
    p.set_defaults(fn=_cmd_demo)

    p = sub.add_parser(
        "stats", help="pretty-print saved --profile / --trace files"
    )
    p.add_argument(
        "profile", nargs="?",
        help="metrics snapshot JSON written by --profile, or a live "
        "--metrics-port endpoint URL (http://...)",
    )
    p.add_argument(
        "--trace", help="Chrome trace JSON written by --trace (flame summary)"
    )
    p.add_argument(
        "--diff", nargs=2, metavar=("BEFORE", "AFTER"), default=None,
        help="print per-metric deltas between two snapshots "
        "(files or endpoint URLs)",
    )
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser(
        "top", help="live dashboard over a --metrics-port endpoint"
    )
    p.add_argument(
        "url", help="metrics endpoint URL (printed by --metrics-port runs)"
    )
    p.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="seconds between polls (default 2)",
    )
    p.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="render N frames then exit (default: until interrupted)",
    )
    p.add_argument(
        "--events", type=int, default=8, metavar="K",
        help="show the last K run events (default 8)",
    )
    p.add_argument(
        "--no-clear", action="store_true",
        help="append frames instead of clearing the screen (for logs/tests)",
    )
    p.set_defaults(fn=_cmd_top)

    return parser


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the scheduling daemon in the foreground until signalled."""
    import asyncio
    import contextlib
    import signal as _signal

    from repro.serve import ScheduleServer, ServeConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        socket_path=args.socket,
        state_dir=args.state_dir,
        jobs=args.jobs,
        max_queue=args.max_queue,
        max_batch=args.max_batch,
        max_transfers=args.max_transfers,
        tenant_rate=args.tenant_rate,
        tenant_burst=args.tenant_burst,
        default_deadline=args.deadline,
        idle_timeout=args.idle_timeout,
        metrics_port=(
            None if args.serve_metrics_port < 0 else args.serve_metrics_port
        ),
        fsync=args.fsync,
        snapshot_every=args.snapshot_every,
    )

    async def _run() -> int:
        server = ScheduleServer(config)
        await server.start()
        loop = asyncio.get_running_loop()
        for signum in (_signal.SIGTERM, _signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, server.request_stop)
        # Parseable address lines, same shape the --metrics-port runs
        # print (scripts and the CI smoke job sed them out).
        print(f"serving kpbr on {server.address}", flush=True)
        if server.metrics_url:
            print(f"serving metrics on {server.metrics_url}", flush=True)
        await server.wait_ready()
        print(
            f"ready: {len(server.resumed_results)} run(s) resumed",
            flush=True,
        )
        await server.wait_stopped()
        return 0

    try:
        return asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Live dashboard over a running --metrics-port endpoint."""
    from repro.cli.top import run_top

    try:
        return run_top(
            args.url,
            interval=args.interval,
            iterations=args.iterations,
            max_events=args.events,
            clear=not args.no_clear,
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        print()
        return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    profile_out = getattr(args, "profile_out", None)
    trace_out = getattr(args, "trace_out", None)
    metrics_port = getattr(args, "metrics_port", None)
    events_out = getattr(args, "events_out", None)
    try:
        if (
            profile_out is None and trace_out is None
            and metrics_port is None and events_out is None
        ):
            return args.fn(args)
        from repro.obs.events import EventLog
        from repro.obs.server import MetricsServer

        event_log = EventLog(path=events_out) if events_out else None
        server = None
        try:
            with obs.observed(events=event_log) as (registry, tracer):
                if metrics_port is not None:
                    server = MetricsServer(port=metrics_port).start()
                    # Parseable by scripts (and the CI smoke job):
                    # the ephemeral port is only known once bound.
                    print(f"serving metrics on {server.url}", flush=True)
                code = args.fn(args)
        finally:
            if server is not None:
                server.stop()
            if event_log is not None:
                event_log.close()
        if profile_out:
            path = Path(profile_out)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(registry.to_json())
            print(f"wrote {profile_out}")
        if trace_out:
            Path(trace_out).parent.mkdir(parents=True, exist_ok=True)
            obs.write_chrome_trace(trace_out, tracer)
            print(f"wrote {trace_out}")
        if events_out:
            print(f"wrote {events_out}")
        return code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
