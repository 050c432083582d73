"""Seeded journaled runs shared by ``kpbs transfer``/``watch``/``resume``/``serve``.

A run is described entirely by a small JSON-able config (seed,
platform sizes, rates, algorithm; a watch run adds its churn and repair
bounds).  A transfer run's payload bytes and a watch run's traffic are
pure functions of the seed, so neither the journal nor the daemon's
state directory ever stores them: ``kpbs resume`` and the daemon's
crash recovery regenerate them from the recorded config, and the
delivered digest proves end-to-end bit-identity across crashes.

This module owns every ``run.json``: the keys and defaults of both
modes (:data:`CONFIG_DEFAULTS`, :data:`WATCH_DEFAULTS`), the one checker
for fresh parameters and stored sidecars alike, and the one lifecycle
behind :func:`run_transfer` and :func:`run_watch` that starts a run or
finishes it from its journal.  Either side can therefore finish a run
the other started.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.resilience.faults import FaultSpec
from repro.resilience.retry import RetryPolicy
from repro.util.errors import ConfigError

__all__ = [
    "CONFIG_DEFAULTS",
    "MBIT_BYTES",
    "RUN_CONFIG_NAME",
    "WATCH_DEFAULTS",
    "delivered_digest",
    "read_run_config",
    "resilience_options",
    "run_transfer",
    "run_watch",
    "transfer_case",
    "transfer_cluster",
]

#: 1 Mbit/s in bytes/s — transfer rate flags are in Mbit/s to match the
#: paper's testbed units; :class:`~repro.runtime.LocalCluster` wants
#: bytes/s.
MBIT_BYTES = 1e6 / 8

#: Name of the sidecar config dropped next to the journal so a resume
#: (CLI or daemon) can rebuild the same cluster and payloads.
RUN_CONFIG_NAME = "run.json"

#: The keys of a transfer ``run.json``, in the order they are written,
#: with the values fresh parameters fall back to.
CONFIG_DEFAULTS: dict[str, object] = {
    "seed": 0,
    "n1": 3,
    "n2": 3,
    "payload_kb": 64.0,
    "k": 3,
    "beta": 0.0,
    "method": "oggp",
    "engine": "fast",
    "nic_mbit": 1000.0,
    "backbone_mbit": 1000.0,
    "faults": None,
    "retries": None,
}
#: The keys of a watch ``run.json`` (``kpbs watch``'s flags), likewise.
WATCH_DEFAULTS: dict[str, object] = {
    "mode": "watch",
    "seed": 0,
    "n1": 10,
    "n2": 10,
    "k": 3,
    "beta": 0.01,
    "max_mb": 60.0,
    "method": "oggp",
    "engine": "fast",
    "churn": "seed=0,events=0",
    "segment_steps": 4,
    "max_ratio": 1.5,
    "max_affected": 0.5,
    "faults": None,
    "retries": None,
}
#: The least value of each bounded number (``uniform_traffic`` draws a
#: watch cell from 1 MB up to ``max_mb``); bounded values are finite.
_FLOORS = {
    "seed": 0, "n1": 1, "n2": 1, "k": 1, "segment_steps": 1, "beta": 0,
    "max_mb": 1,
}
#: Schedulers a run accepts (``--algorithm``).
_METHODS = ("ggp", "oggp")


def _checked(defaults: Mapping, params: Mapping, stored: bool) -> dict:
    """The complete, validated config ``params`` describe over ``defaults``.

    Fresh parameters may leave any key at its default; a ``stored``
    sidecar must name every key but ``engine`` (sidecars older than the
    engine choice lack it and run ``fast``).  Anything else that cannot
    run is a :class:`ConfigError`.
    """
    from repro.core.repair import validate_repair_bounds
    from repro.core.wrgp import _check_engine
    from repro.resilience.churn import ChurnSpec

    mode = defaults.get("mode", "transfer")
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        known = ", ".join(sorted(defaults))
        raise ConfigError(
            f"unknown {mode} parameter(s) {', '.join(unknown)}; "
            f"valid keys: {known}"
        )
    if stored:
        missing = [
            key for key in defaults if key not in params and key != "engine"
        ]
        if missing:
            raise ConfigError(
                f"stored {RUN_CONFIG_NAME} lacks {', '.join(missing)}"
            )
    config = dict(defaults)
    config.update(params)
    try:
        # Every value but the fault/retry specs takes its default's type.
        for key, default in defaults.items():
            if default is not None:
                config[key] = type(default)(config[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {mode} parameter: {exc}") from exc
    for key, floor in _FLOORS.items():
        if key in config and not floor <= config[key] < math.inf:
            raise ConfigError(
                f"{key} must be in [{floor}, inf), got {config[key]}"
            )
    if "payload_kb" in config and not 0 < config["payload_kb"] < math.inf:
        raise ConfigError(
            f"payload_kb must be positive and finite, got {config['payload_kb']}"
        )
    if config.get("mode", mode) != mode:
        raise ConfigError(f"mode must be {mode!r}, got {config['mode']!r}")
    if config["method"] not in _METHODS:
        raise ConfigError(
            f"unknown method {config['method']!r}; valid methods: "
            + ", ".join(_METHODS)
        )
    _check_engine(config["engine"])
    # Fault and retry specs fail here, before a run starts, not mid-run.
    resilience_options(config["faults"], config["retries"])
    if mode == "watch":
        ChurnSpec.parse(config["churn"])
        validate_repair_bounds(config["max_ratio"], config["max_affected"])
    return config


def read_run_config(directory: str | os.PathLike) -> dict:
    """The JSON object ``directory``'s ``run.json`` holds (any mode).

    Raises :class:`ConfigError` when the file is missing, is not JSON
    or holds something other than an object.
    """
    path = Path(directory) / RUN_CONFIG_NAME
    if not path.is_file():
        raise ConfigError(
            f"no {RUN_CONFIG_NAME} in {directory}; start the run with "
            "'kpbs transfer --checkpoint-dir' or "
            "'kpbs watch --checkpoint-dir' first"
        )
    try:
        config = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(
            f"{path} holds a JSON {type(config).__name__}, not an object"
        )
    return config


def resilience_options(
    faults: str | None, retries: str | int | None,
    task_timeout: float | None = None,
) -> tuple:
    """``(FaultPlan | None, RetryPolicy | None)`` from ``--faults``-style specs.

    ``retries`` is a bare attempt count or a ``key=value`` list (see
    :meth:`RetryPolicy.parse`); older sidecars stored a plain int, which
    also parses.  ``task_timeout`` alone sets it on the default policy.
    """
    plan = FaultSpec.parse(str(faults)).plan() if faults else None
    retry = None
    if retries is not None:
        retry = RetryPolicy.parse(str(retries))
    if task_timeout is not None:
        retry = dataclasses.replace(
            retry or RetryPolicy(), task_timeout=task_timeout
        )
    return plan, retry


@contextmanager
def _lifecycle(
    defaults, directory, params, faults, retries, task_timeout, fsync,
    snapshot_every,
):
    """``(config, fault plan, retry policy, store, begun)`` of one run.

    The ``run.json`` rules :func:`run_transfer` states, for either mode.
    Fresh parameters are checked before the directory is touched; the
    rest runs under the directory's lock, so no other run can begin the
    journal or rewrite ``run.json`` in between.  The store is reopened
    for resume once its journal has begun, is otherwise the fresh store
    the run begins (``None`` without a directory), and is closed on the
    way out.
    """
    from repro.resilience import CheckpointStore

    config = None if params is None else _checked(defaults, params, False)
    store = None
    if directory is not None:
        store = CheckpointStore(
            directory, fsync=fsync, snapshot_every=snapshot_every
        ).lock()
    try:
        begun = store is not None and store.exists()
        if config is None:
            config = _checked(defaults, read_run_config(directory), True)
        elif begun:
            raise ConfigError(
                f"checkpoint directory {directory} already holds a "
                "run; resume it or choose a fresh directory"
            )
        elif store is not None:
            # The sidecar lands whole before the first journal record,
            # so a run killed at any point afterwards is resumable.
            path = Path(directory) / RUN_CONFIG_NAME
            tmp = path.with_name(RUN_CONFIG_NAME + ".tmp")
            tmp.write_text(json.dumps(config, indent=2))
            os.replace(tmp, path)
        plan, retry = resilience_options(
            faults or config["faults"],
            config["retries"] if retries is None else retries,
            task_timeout,
        )
        if begun:
            # A begun journal's run.json never changes again, so the
            # lock may pass from this store to the resuming one.
            store.close()
            store = CheckpointStore.resume(
                directory, fsync=fsync, snapshot_every=snapshot_every
            )
        yield config, plan, retry, store, begun
    finally:
        if store is not None:
            store.close()


def run_transfer(
    directory: str | os.PathLike | None = None,
    params: Mapping | None = None,
    *,
    faults: str | None = None,
    retries: str | int | None = None,
    task_timeout: float | None = None,
    cache=None,
    fsync: str = "round",
    snapshot_every: int = 8,
):
    """Start the seeded transfer ``params`` describe, or finish ``directory``'s.

    With ``params``, the validated config is written to
    ``directory/run.json`` before the first byte moves and the run
    starts fresh; a directory whose journal has begun is refused, so
    its sidecar is never overwritten.  ``directory=None`` runs without
    a checkpoint.  Without ``params``, the directory's ``run.json`` is
    read and validated the same way; the run then resumes from the
    journal once the journal has begun, and starts fresh otherwise.

    ``faults`` and ``retries`` replace the recorded specs when given
    (``kpbs resume --faults/--retries``); ``task_timeout`` bounds each
    transfer attempt.  ``cache``, ``fsync`` and ``snapshot_every`` are
    the caller's, not the run's.  Returns the
    :class:`~repro.runtime.ResilientRunReport`.
    """
    from repro.runtime.executor import (
        resume_and_run_resilient,
        schedule_and_run_resilient,
    )

    with _lifecycle(
        CONFIG_DEFAULTS, directory, params, faults, retries, task_timeout,
        fsync, snapshot_every,
    ) as (config, plan, retry, store, begun):
        graph, payloads, destinations = transfer_case(
            config["seed"], config["n1"], config["n2"],
            int(config["payload_kb"] * 1024),
        )
        cluster = transfer_cluster(config)
        if begun:
            return resume_and_run_resilient(
                cluster, store, payloads, engine=config["engine"],
                cache=cache, faults=plan, retry=retry,
            )
        return schedule_and_run_resilient(
            cluster, graph, config["k"], config["beta"], payloads,
            destinations, method=config["method"], engine=config["engine"],
            cache=cache, faults=plan, retry=retry, checkpoint=store,
        )


def run_watch(
    directory: str | os.PathLike | None = None,
    params: Mapping | None = None,
    *,
    faults: str | None = None,
    retries: str | int | None = None,
    task_timeout: float | None = None,
    fsync: str = "round",
    snapshot_every: int = 8,
):
    """Start the live-churn run ``params`` describe, or finish ``directory``'s.

    :func:`run_transfer`'s rules and arguments but ``cache``, over
    :data:`WATCH_DEFAULTS` (also ``kpbs watch``'s flag defaults); returns
    the :class:`~repro.netsim.watch.ChurnOutcome`.
    """
    from repro.netsim.runner import uniform_traffic
    from repro.netsim.topology import NetworkSpec
    from repro.netsim.watch import (
        resume_redistribution_churn,
        run_redistribution_churn,
    )
    from repro.resilience.churn import ChurnSpec

    with _lifecycle(
        WATCH_DEFAULTS, directory, params, faults, retries, task_timeout,
        fsync, snapshot_every,
    ) as (config, plan, retry, store, begun):
        # The paper's testbed (§5.2) at the recorded cluster sizes.
        spec = dataclasses.replace(
            NetworkSpec.paper_testbed(config["k"], config["beta"]),
            n1=config["n1"], n2=config["n2"],
        )
        churn = ChurnSpec.parse(config["churn"]).process()
        options = dict(
            cache=None, faults=plan, retry=retry, engine=config["engine"],
            max_ratio=config["max_ratio"],
            max_affected_frac=config["max_affected"],
        )
        if begun:
            return resume_redistribution_churn(spec, store, churn, **options)
        traffic = uniform_traffic(
            config["seed"], spec.n1, spec.n2, 1.0, config["max_mb"]
        )
        return run_redistribution_churn(
            spec, traffic, config["method"], churn,
            segment_steps=config["segment_steps"], checkpoint=store,
            **options,
        )


def transfer_case(seed: int, n1: int, n2: int, payload_bytes: int) -> tuple:
    """Deterministic ``(graph, payloads, destinations)`` for a transfer.

    A pure function of its arguments: resume paths regenerate the exact
    same payload bytes from the seed recorded in ``run.json`` instead
    of persisting them in the journal.
    """
    from repro.graph.bipartite import BipartiteGraph

    rng = np.random.default_rng(seed)
    graph = BipartiteGraph()
    payloads: dict[int, bytes] = {}
    destinations: dict[int, tuple[int, int]] = {}
    low = max(1, payload_bytes // 2)
    for i in range(n1):
        for j in range(n2):
            length = int(rng.integers(low, max(low + 1, payload_bytes + 1)))
            edge = graph.add_edge(i, j, length)
            payloads[edge.id] = rng.integers(
                0, 256, length, dtype=np.uint8
            ).tobytes()
            destinations[edge.id] = (i, j)
    return graph, payloads, destinations


def delivered_digest(delivered: Mapping[int, bytes]) -> str:
    """Order-independent SHA-256 over the delivered per-edge bytes."""
    digest = hashlib.sha256()
    for eid in sorted(delivered):
        digest.update(f"{eid}:".encode())
        digest.update(delivered[eid])
        digest.update(b"\n")
    return digest.hexdigest()


def transfer_cluster(config: Mapping):
    """The :class:`LocalCluster` a transfer ``run.json`` describes."""
    from repro.runtime import LocalCluster

    return LocalCluster(
        config["n1"],
        config["n2"],
        nic_rate1=config["nic_mbit"] * MBIT_BYTES,
        nic_rate2=config["nic_mbit"] * MBIT_BYTES,
        backbone_rate=config["backbone_mbit"] * MBIT_BYTES,
    )

