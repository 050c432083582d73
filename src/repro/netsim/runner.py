"""End-to-end redistribution runs: brute-force TCP vs GGP/OGGP.

This is the simulated counterpart of the paper's §5.2 experiment: given
a traffic matrix, either dump every flow on the network at once and let
the TCP model sort it out, or compute a GGP/OGGP schedule and execute it
step by step.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from repro import obs
from repro.core.cache import DEFAULT_SCHEDULE_CACHE, ScheduleCache, cached_schedule
from repro.core.schedule import Schedule
from repro.graph.generators import from_traffic_matrix
from repro.netsim import watch
from repro.netsim.tcp import TcpParams, simulate_bruteforce
from repro.netsim.topology import NetworkSpec
from repro.resilience.faults import FaultPlan
from repro.resilience.journal import CheckpointStore
from repro.resilience.recovery import _drive, _opened, _Run
from repro.resilience.retry import RetryPolicy
from repro.util.errors import ConfigError
from repro.util.rng import RngStream, derive_rng

Method = Literal["bruteforce", "ggp", "oggp"]


@dataclass(frozen=True)
class RedistributionOutcome:
    """Result of one redistribution run.

    ``total_time`` is the wall-clock seconds the redistribution took on
    the simulated platform; ``num_steps`` is 1 for brute force.
    ``schedule`` is the K-PBS schedule used (None for brute force).

    Under fault injection, ``rounds`` counts the recovery rounds that
    ran after the initial attempt, ``recovery_time`` is the simulated
    seconds they took (included in ``total_time``), and
    ``undelivered_mbit`` is whatever traffic was still missing when the
    retry budget ran out (0 on full recovery).
    """

    method: Method
    total_time: float
    num_steps: int
    volume_mbit: float
    schedule: Schedule | None = None
    rounds: int = 0
    recovery_time: float = 0.0
    undelivered_mbit: float = 0.0


def build_schedule(
    spec: NetworkSpec,
    traffic_mbit: np.ndarray,
    method: Literal["ggp", "oggp"],
    cache: ScheduleCache | None = DEFAULT_SCHEDULE_CACHE,
    engine: str = "fast",
) -> Schedule:
    """K-PBS schedule for a traffic matrix on a platform.

    Edge weights are transfer *times* in seconds at the per-flow rate
    ``t = min(t1, t2)`` (paper §2.2: ``c_ij = m_ij / t``); β is the
    platform's per-step setup delay, and ``k`` is derived from the rate
    ratios.  Repeated calls with an equivalent traffic matrix reuse the
    schedule through ``cache`` (pass ``None`` to force a fresh run).
    ``engine`` picks the peeling engine (see
    :data:`repro.core.wrgp.VALID_ENGINES`; ``'vector'`` names the
    default, ``'approx'`` trades schedule quality for speed on the
    largest platforms).
    """
    graph = from_traffic_matrix(traffic_mbit, speed=spec.flow_rate)
    return cached_schedule(
        graph,
        k=spec.k,
        beta=spec.step_setup,
        algorithm=method,
        engine=engine,
        cache=cache,
    )


def build_schedule_batch(
    spec: NetworkSpec,
    traffic_list: Sequence[np.ndarray],
    method: Literal["ggp", "oggp"],
    jobs: int | None = 1,
    cache: ScheduleCache | None = DEFAULT_SCHEDULE_CACHE,
    retry: RetryPolicy | None = None,
    task_timeout: float | None = None,
    fault_plan: FaultPlan | None = None,
    engine: str = "fast",
) -> list[Schedule]:
    """K-PBS schedules for many traffic matrices on one platform.

    The batch counterpart of :func:`build_schedule`: equivalent traffic
    matrices are scheduled once (canonical dedup through ``cache``) and
    the unique instances fan out over ``jobs`` worker processes.  Output
    is bit-identical to calling :func:`build_schedule` per matrix, in
    order, with the same cache.  ``retry``/``task_timeout``/
    ``fault_plan`` configure the worker pool's fault tolerance (see
    :func:`repro.parallel.schedule_batch`).
    """
    from repro.parallel import schedule_batch

    graphs = [
        from_traffic_matrix(traffic, speed=spec.flow_rate)
        for traffic in traffic_list
    ]
    return schedule_batch(
        graphs,
        method,
        k=spec.k,
        beta=spec.step_setup,
        engine=engine,
        jobs=jobs,
        cache=cache,
        retry=retry,
        task_timeout=task_timeout,
        fault_plan=fault_plan,
    )


def run_redistribution(
    spec: NetworkSpec,
    traffic_mbit: np.ndarray,
    method: Method,
    rng: RngStream | int | None = None,
    tcp_params: TcpParams = TcpParams(),
    rate_jitter: float = 0.0,
    cache: ScheduleCache | None = DEFAULT_SCHEDULE_CACHE,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
    checkpoint: CheckpointStore | str | os.PathLike | None = None,
    engine: str = "fast",
    churn=None,
    segment_steps: int = 4,
) -> RedistributionOutcome:
    """Run one redistribution with the chosen method and measure time.

    ``churn`` — a :class:`~repro.resilience.ChurnProcess` — switches to
    the live-churn executor: the plan runs ``segment_steps`` steps at a
    time, seeded traffic deltas mutate the matrix between segments, and
    the in-flight plan is splice-repaired via
    :func:`repro.core.repair.repair_plan` (see
    :func:`repro.netsim.watch.run_redistribution_churn`, whose
    :class:`~repro.netsim.watch.ChurnOutcome` is returned instead).

    ``faults`` injects deterministic transfer failures, stalls and
    backbone degradation (GGP/OGGP only — the brute-force TCP model has
    no per-transfer schedule to fault).  After a faulted round, the
    undelivered traffic is rebuilt into a residual matrix and
    rescheduled — with a reduced ``k`` when the backbone was degraded —
    until everything lands or ``retry`` (default: up to 7 recovery
    rounds) runs out; the extra simulated time is the recovery overhead.
    Every recovery schedule is verified against its residual graph
    before it is simulated.

    ``checkpoint`` — a :class:`~repro.resilience.CheckpointStore` or a
    directory path — journals each round's delivered Mbit per traffic
    cell (GGP/OGGP only), so a killed process's run can be finished
    with :func:`resume_redistribution`.

    ``engine`` picks the peeling engine for the initial and every
    recovery schedule (GGP/OGGP only; see
    :data:`repro.core.wrgp.VALID_ENGINES`).
    """
    if churn is not None:
        if method == "bruteforce":
            raise ConfigError(
                "live churn needs a schedule to repair; "
                "method 'bruteforce' does not support churn="
            )
        return watch.run_redistribution_churn(
            spec, traffic_mbit, method, churn, segment_steps=segment_steps,
            rng=rng, rate_jitter=rate_jitter, cache=cache, faults=faults,
            retry=retry, checkpoint=checkpoint, engine=engine,
        )
    traffic = np.asarray(traffic_mbit, dtype=float)
    volume = float(traffic.sum())
    if method == "bruteforce":
        if faults is not None and faults.any_faults():
            raise ConfigError(
                "fault injection needs a schedule to fault; "
                "method 'bruteforce' does not support faults"
            )
        if checkpoint is not None:
            raise ConfigError(
                "checkpointing needs per-round delivery accounting; "
                "method 'bruteforce' does not support checkpoint="
            )
        with obs.phase("netsim.run", method=method, volume_mbit=volume):
            result = simulate_bruteforce(spec, traffic, rng=rng, params=tcp_params)
        obs.metrics().counter("netsim.bruteforce_runs").inc()
        return RedistributionOutcome(
            method=method,
            total_time=result.total_time,
            num_steps=1,
            volume_mbit=volume,
        )
    if method not in ("ggp", "oggp"):
        raise ConfigError(f"unknown method {method!r}")
    edges = watch._cell_edges(traffic)
    shape = (int(traffic.shape[0]), int(traffic.shape[1]))
    backend = watch._Netsim(spec, shape, False, rng, rate_jitter, faults)
    with _opened(checkpoint) as store:
        run = _drive(
            backend, store, edges, {eid: 0.0 for eid in edges},
            extra={"engine": "netsim", "shape": list(shape)},
            method=method, engine=engine, k=spec.k, beta=spec.step_setup,
            cache=cache, retry=retry,
        )
    return _outcome(method, volume, run, backend)


def resume_redistribution(
    spec: NetworkSpec,
    checkpoint: CheckpointStore | str | os.PathLike,
    method: Literal["ggp", "oggp"] | None = None,
    rng: RngStream | int | None = None,
    rate_jitter: float = 0.0,
    cache: ScheduleCache | None = DEFAULT_SCHEDULE_CACHE,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
    engine: str = "fast",
) -> RedistributionOutcome:
    """Finish a checkpointed redistribution a previous process started.

    Rebuilds the undelivered traffic matrix from the checkpoint's
    snapshot + journal and schedules it like a recovery round — with
    round numbering continuing where the dead process stopped, so a
    deterministic fault plan replays the same trajectory.  ``spec``
    must describe the same platform (``k`` and ``step_setup`` are
    cross-checked against the recorded metadata).  The outcome's
    ``total_time``/``num_steps`` cover only the resumed rounds;
    ``volume_mbit`` is the original run's full volume.
    """
    with _opened(checkpoint, resume=True) as store:
        shape = watch._restored(store, spec, "netsim")
        state = store.state
        backend = watch._Netsim(spec, shape, False, rng, rate_jitter, faults)
        if method is None:
            method = state.meta.method  # type: ignore[assignment]
        run = _drive(
            backend, store, dict(state.edges), dict(state.delivered),
            method=method, engine=engine, k=spec.k, beta=spec.step_setup,
            cache=cache, retry=retry, first_round=state.next_round,
            resumed=True,
        )
    volume = float(sum(total for _l, _r, total in state.meta.edges.values()))
    return _outcome(method, volume, run, backend)


def _outcome(
    method: Method, volume: float, run: _Run, backend: "watch._Netsim"
) -> RedistributionOutcome:
    """A rebuild run's outcome: round 0's plan, then its recovery rounds."""
    return RedistributionOutcome(
        method=method,
        total_time=run.seconds(),
        num_steps=run.steps(),
        volume_mbit=volume,
        schedule=run.rounds[0].schedule if run.rounds else None,
        rounds=max(0, len(run.rounds) - 1),
        recovery_time=run.seconds(1),
        undelivered_mbit=float(backend.matrix(run.pending).sum()),
    )


def uniform_traffic(
    rng: RngStream | int | None,
    n1: int,
    n2: int,
    low_mb: float,
    high_mb: float,
) -> np.ndarray:
    """The paper's §5.2 workload: all-to-all, sizes U[low, high] MB.

    Returns the matrix in **Mbit** (1 MB = 8 Mbit).
    """
    if low_mb < 0 or high_mb < low_mb:
        raise ConfigError(f"need 0 <= low <= high, got {low_mb}, {high_mb}")
    rng = derive_rng(rng)
    mb = rng.uniform(low_mb, high_mb, size=(n1, n2))
    return mb * 8.0
