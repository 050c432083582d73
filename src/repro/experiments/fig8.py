"""Figure 8 — evaluation ratios vs k, large weights (U{1..10000}, β = 1).

Paper finding: when communications are long relative to β, both
algorithms are essentially optimal (worst ratio ≈ 1.00016) and GGP and
OGGP behave identically.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.experiments.base import ExperimentResult
from repro.experiments.fig7 import DEFAULT_K_VALUES
from repro.experiments.simulation import SimulationConfig, measure_ratios


def run_fig8(
    config: SimulationConfig | None = None,
    k_values: Sequence[int] = DEFAULT_K_VALUES,
    jobs: int = 1,
) -> ExperimentResult:
    """Regenerate Figure 8 (same protocol as Figure 7, weights ≤ 10000).

    ``jobs`` (the CLI's ``--jobs``) is the worker-process count for the
    draw sweep.
    """
    config = config or SimulationConfig()
    config = replace(config, weight_low=1, weight_high=10_000)
    rows = []
    x: list[float] = []
    ggp_avg, ggp_max, oggp_avg, oggp_max = [], [], [], []
    for i, k in enumerate(k_values):
        point = measure_ratios(config, k=k, beta=1.0,
                               point_index=1000 + i, jobs=jobs)
        x.append(float(k))
        ggp_avg.append(point.ggp.mean)
        ggp_max.append(point.ggp.max)
        oggp_avg.append(point.oggp.mean)
        oggp_max.append(point.oggp.max)
        rows.append(
            (k, point.ggp.mean, point.ggp.max, point.oggp.mean, point.oggp.max)
        )
    return ExperimentResult(
        experiment_id="fig8",
        title="Evaluation ratios for large weights (U{1..10000}, beta=1)",
        headers=("k", "ggp_avg", "ggp_max", "oggp_avg", "oggp_max"),
        rows=rows,
        x=x,
        series={
            "ggp avg": ggp_avg,
            "ggp max": ggp_max,
            "oggp avg": oggp_avg,
            "oggp max": oggp_max,
        },
        notes=(
            f"{config.draws} draws per point (paper: 100000); ratios are "
            "expected within ~1e-3 of 1.0"
        ),
    )
