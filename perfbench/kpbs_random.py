"""Workload ``kpbs-random``: the paper's random instances, closed loop.

One caller schedules each instance with ``oggp`` and then ``ggp``
(default arguments, no cache), one call after the other.  The instance
set follows the paper's §5.1 generator scaled up: dense bipartite
graphs (every sender talks to every receiver), integer weights
U{1..20}, k = 10, beta = 1.  The eight shapes are fixed and spread the
sides over 10..80, so every seed runs the same mix of small and large
graphs; the seed draws the weights.  Products n1*n2 stay at or below
2,500 edges so one pass (16 calls) takes seconds, not minutes.

Every schedule is verified (``repro.core.verify``) and checked against
Theorem 1 (``lower_bound <= cost <= 2 * lower_bound``); a schedule
whose cost differs from an earlier call on the same instance also
fails (the engine is exact, so it must be deterministic, with or
without telemetry).
"""

from __future__ import annotations

import importlib
import time

import harness
import tracing

K = 10
BETA = 1.0
#: (n1, n2) of the instance set.
SHAPES = (
    (12, 18), (18, 40), (25, 76), (35, 30),
    (45, 22), (52, 48), (64, 16), (78, 12),
)
ALGORITHMS = ("oggp", "ggp")
_REL_TOL = 1e-9


def instances(seed: int):
    """The seed's instance set: ``(graphs, digest, [(n1, n2, m)])``."""
    import numpy as np

    from repro.graph.generators import from_traffic_matrix

    rng = np.random.default_rng([seed, 0x4B504253])
    graphs, parts = [], []
    for n1, n2 in SHAPES:
        weights = rng.integers(1, 21, size=(n1, n2))
        graphs.append(from_traffic_matrix(weights))
        parts += [n1, n2, weights.tobytes()]
    sizes = [(g.num_left, g.num_right, g.num_edges) for g in graphs]
    return graphs, harness.digest(parts), sizes


def _schedulers():
    # ``repro.core.ggp`` as an attribute is the function the package
    # re-exports; the modules come from importlib.  Names are looked up
    # on the module at call time, so traced runs see the wrapped ones.
    ggp_module = importlib.import_module("repro.core.ggp")
    oggp_module = importlib.import_module("repro.core.oggp")
    return {
        "oggp": lambda g: oggp_module.oggp(g, K, BETA),
        "ggp": lambda g: ggp_module.ggp(g, K, BETA),
    }


def probe() -> None:
    """Imports plus one warm-up call of each scheduler."""
    from repro.core.bounds import lower_bound  # noqa: F401
    from repro.core.verify import verify_solution  # noqa: F401
    from repro.graph.generators import from_traffic_matrix

    graph = from_traffic_matrix([[3, 1, 4], [1, 5, 9], [2, 6, 5]])
    for schedule in _schedulers().values():
        schedule(graph)


def run(seed: int, seconds: float, trace: bool, out_dir) -> dict:
    setup = harness.probe_setup_s("kpbs-random", 5)
    probe()

    from repro.core.bounds import lower_bound
    from repro.core.verify import verify_solution

    graphs, inputs_digest, sizes = instances(seed)
    bounds = [lower_bound(g, K, BETA) for g in graphs]
    schedulers = _schedulers()
    kinds = harness.ALL_KINDS if trace else harness.PLAIN_ONLY
    rec = tracing.Recorder()
    first_cost: dict[tuple[int, str], float] = {}
    tally = {"attempted": 0, "failed": 0}
    failures: list[str] = []

    def check(index: int, name: str, schedule) -> None:
        tally["attempted"] += 1
        bound = bounds[index]
        cost = schedule.cost
        report = verify_solution(graphs[index], schedule)
        problems = []
        if not report.ok:
            problems.append(report.summary())
        if not bound * (1 - _REL_TOL) <= cost <= 2 * bound * (1 + _REL_TOL):
            problems.append(f"Thm 1 violated: cost {cost!r}, bound {bound!r}")
        if first_cost.setdefault((index, name), cost) != cost:
            problems.append("cost differs from an earlier call")
        if problems:
            tally["failed"] += 1
            failures.append(f"instance {index} {name}: {'; '.join(problems)}")

    def run_pass() -> dict:
        times = {kind: [] for kind in kinds}
        done = []
        probes = 0
        for index, graph in enumerate(graphs):
            for name in ALGORITHMS:
                turn = len(done) // len(kinds)
                for kind in harness.kinds_in_turn(kinds, turn):
                    with harness.telemetry(kind, rec) as registry:
                        t0 = time.perf_counter()
                        schedule = schedulers[name](graph)
                        times[kind].append(time.perf_counter() - t0)
                        if registry is not None:
                            probes += registry.counter(
                                "matching.bottleneck.threshold_probes"
                            ).value
                    done.append((index, name, schedule))
        quality = []
        for index, name, schedule in done:
            check(index, name, schedule)
            quality.append((schedule.cost, schedule.cost / bounds[index]))
        return {"times": times, "quality": quality, "probes": probes}

    passes = harness.run_passes(run_pass, seconds)
    return harness.summarize(
        "kpbs-random", passes, trace, setup, rec, out_dir, tally, failures,
        {"instances": len(graphs), "digest": inputs_digest, "sizes": sizes},
    )
