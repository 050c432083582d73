"""Figure 9 — evaluation ratios as β increases (weights U{1..20}, random k).

Paper findings: with β of the order of the weights, ratios peak around
1.8 (GGP) and 1.6 (OGGP) with OGGP averaging ≈ 1.2; as β grows past the
weights, ratios drop quickly because the optimal cost itself rises
with β.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.base import ExperimentResult
from repro.experiments.simulation import SimulationConfig, measure_ratios

DEFAULT_BETA_VALUES: tuple[float, ...] = (
    0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
)


def run_fig9(
    config: SimulationConfig | None = None,
    beta_values: Sequence[float] = DEFAULT_BETA_VALUES,
    jobs: int = 1,
) -> ExperimentResult:
    """Regenerate Figure 9 (β sweep; ``k`` random per draw).

    ``jobs`` (the CLI's ``--jobs``) is the worker-process count for the
    draw sweep.
    """
    config = config or SimulationConfig()
    rows = []
    x: list[float] = []
    ggp_avg, ggp_max, oggp_avg, oggp_max = [], [], [], []
    for i, beta in enumerate(beta_values):
        point = measure_ratios(
            config, k=None, beta=float(beta), point_index=2000 + i,
            jobs=jobs,
        )
        x.append(float(beta))
        ggp_avg.append(point.ggp.mean)
        ggp_max.append(point.ggp.max)
        oggp_avg.append(point.oggp.mean)
        oggp_max.append(point.oggp.max)
        rows.append(
            (beta, point.ggp.mean, point.ggp.max, point.oggp.mean, point.oggp.max)
        )
    return ExperimentResult(
        experiment_id="fig9",
        title="Evaluation ratios when beta increases (weights U{1..20}, random k)",
        headers=("beta", "ggp_avg", "ggp_max", "oggp_avg", "oggp_max"),
        rows=rows,
        x=x,
        series={
            "ggp avg": ggp_avg,
            "ggp max": ggp_max,
            "oggp avg": oggp_avg,
            "oggp max": oggp_max,
        },
        notes=(
            f"{config.draws} draws per point; x is plotted linearly by the "
            "ASCII plot although the sweep is logarithmic"
        ),
    )
