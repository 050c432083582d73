"""Shared machinery for the simulation experiments (Figures 7–9).

The paper's protocol (§5.1): draw random bipartite graphs (up to 40
nodes, up to 400 edges), run GGP and OGGP, and record the *evaluation
ratio* — schedule cost divided by the Cohen–Jeannot–Padoy lower bound —
averaged (and maximised) over many draws per parameter value.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.analysis.stats import SeriesStats, summarize
from repro.core.bounds import evaluation_ratio, lower_bound
from repro.core.ggp import ggp
from repro.core.oggp import oggp
from repro.graph.generators import random_bipartite
from repro.util.errors import ConfigError
from repro.util.rng import spawn_streams


@dataclass(frozen=True)
class SimulationConfig:
    """Instance-generation parameters shared by Figures 7–9.

    Paper defaults: ``max_side=20`` (up to 40 nodes total),
    ``max_edges=400``, ``draws=100_000`` per point.  The default draw
    count here is far smaller — the estimator is identical and the
    curves are already stable at a few hundred draws; pass the paper's
    value for a full-fidelity (hours-long) run.
    """

    max_side: int = 20
    max_edges: int = 400
    weight_low: int = 1
    weight_high: int = 20
    draws: int = 300
    seed: int = 20040426  # IPPS 2004 venue date

    def __post_init__(self) -> None:
        if self.draws < 1:
            raise ConfigError(f"draws must be >= 1, got {self.draws}")
        if self.max_side < 1 or self.max_edges < 1:
            raise ConfigError("max_side and max_edges must be >= 1")
        if not (1 <= self.weight_low <= self.weight_high):
            raise ConfigError(
                f"need 1 <= weight_low <= weight_high, got "
                f"{self.weight_low}, {self.weight_high}"
            )


@dataclass(frozen=True)
class RatioPoint:
    """Aggregated ratios for one parameter value."""

    param: float
    ggp: SeriesStats
    oggp: SeriesStats


def _measure_chunk(
    args: tuple[SimulationConfig, int | None, float, int, int, int],
) -> tuple[list[float], list[float]]:
    """Worker: ratios for draws [start, stop) of a point (picklable)."""
    config, k, beta, point_index, start, stop = args
    streams = spawn_streams(config.seed + point_index, stop)[start:stop]
    ggp_ratios: list[float] = []
    oggp_ratios: list[float] = []
    metrics = obs.metrics()
    for rng in streams:
        graph = random_bipartite(
            rng,
            max_side=config.max_side,
            max_edges=config.max_edges,
            weight_low=config.weight_low,
            weight_high=config.weight_high,
        )
        k_draw = k if k is not None else int(rng.integers(1, config.max_side + 1))
        bound = lower_bound(graph, k_draw, beta)
        schedules = {
            "ggp": ggp(graph, k_draw, beta),
            "oggp": oggp(graph, k_draw, beta),
        }
        ggp_ratios.append(evaluation_ratio(schedules["ggp"].cost, bound))
        oggp_ratios.append(evaluation_ratio(schedules["oggp"].cost, bound))
        if obs.enabled():
            # Derived quality metrics per draw; the paper's headline
            # numbers become registry histograms a profile run can dump.
            metrics.counter("experiment.draws").inc()
            for algo, schedule in schedules.items():
                metrics.histogram(f"experiment.{algo}.cost").observe(schedule.cost)
                metrics.histogram(f"experiment.{algo}.lower_bound").observe(bound)
                metrics.histogram(f"experiment.{algo}.evaluation_ratio").observe(
                    evaluation_ratio(schedule.cost, bound)
                )
                metrics.histogram(f"experiment.{algo}.steps").observe(
                    schedule.num_steps
                )
                metrics.histogram(f"experiment.{algo}.preemptions").observe(
                    schedule.num_preemptions
                )
    return ggp_ratios, oggp_ratios


def measure_ratios(
    config: SimulationConfig,
    k: int | None,
    beta: float,
    point_index: int,
    jobs: int = 1,
) -> RatioPoint:
    """Run ``config.draws`` random instances at one parameter point.

    ``k=None`` draws a random ``k ~ U{1..max_side}`` per instance
    (Figure 9's protocol); otherwise the fixed ``k`` is used.  Streams
    are derived per (point, draw), so results don't depend on execution
    order, on sub-sampling draws, or on ``jobs`` — the draws are
    embarrassingly parallel and ``jobs != 1`` (``0`` = one per CPU) fans
    them out over a persistent :class:`~repro.parallel.pool.WorkerPool`
    (useful for paper-fidelity 100k-draw runs).

    When :mod:`repro.obs` is enabled, per-draw quality metrics (cost,
    lower bound, evaluation ratio, steps, preemptions) accumulate in
    the active registry.  With worker processes each worker records
    into its own registry, shipped back and merged into the parent's
    at pool shutdown — so profiles stay complete under parallelism.
    """
    from repro.parallel import WorkerPool, resolve_jobs

    jobs = resolve_jobs(jobs)
    if jobs == 1 or config.draws < 4:
        g, o = _measure_chunk((config, k, beta, point_index, 0, config.draws))
    else:
        step = -(-config.draws // jobs)
        chunks = [
            (config, k, beta, point_index, lo, min(lo + step, config.draws))
            for lo in range(0, config.draws, step)
        ]
        with WorkerPool(jobs, _measure_chunk) as pool:
            parts = pool.map(chunks, chunk_size=1)
        g = [r for part in parts for r in part[0]]
        o = [r for part in parts for r in part[1]]
    return RatioPoint(
        param=float(k if k is not None else beta),
        ggp=summarize(g),
        oggp=summarize(o),
    )
