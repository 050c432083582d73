"""Figure 7 — evaluation ratios vs k, small weights (U{1..20}, β = 1).

Paper findings to reproduce: OGGP clearly better than GGP, with OGGP's
*worst* case below GGP's *average* case; worst observed ratio ≈ 1.15,
far below the guaranteed 2.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.base import ExperimentResult
from repro.experiments.simulation import SimulationConfig, measure_ratios

DEFAULT_K_VALUES: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16, 18, 20)


def run_fig7(
    config: SimulationConfig | None = None,
    k_values: Sequence[int] = DEFAULT_K_VALUES,
    jobs: int = 1,
) -> ExperimentResult:
    """Regenerate Figure 7's four curves (avg/max ratio for GGP/OGGP).

    ``jobs`` (the CLI's ``--jobs``) is the worker-process count for the
    draw sweep; see :func:`~repro.experiments.simulation.measure_ratios`.
    """
    config = config or SimulationConfig()
    rows = []
    x: list[float] = []
    ggp_avg, ggp_max, oggp_avg, oggp_max = [], [], [], []
    for i, k in enumerate(k_values):
        point = measure_ratios(config, k=k, beta=1.0, point_index=i,
                               jobs=jobs)
        x.append(float(k))
        ggp_avg.append(point.ggp.mean)
        ggp_max.append(point.ggp.max)
        oggp_avg.append(point.oggp.mean)
        oggp_max.append(point.oggp.max)
        rows.append(
            (k, point.ggp.mean, point.ggp.max, point.oggp.mean, point.oggp.max)
        )
    return ExperimentResult(
        experiment_id="fig7",
        title="Evaluation ratios for small weights (U{1..20}, beta=1)",
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
            f"{config.draws} draws per point "
            f"(paper: 100000); identical estimator, wider confidence bands"
        ),
    )
