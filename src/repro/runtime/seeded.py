"""Seeded transfer runs shared by ``kpbs transfer``/``resume``/``serve``.

A transfer run is described entirely by a small JSON-able config
(seed, platform sizes, rates, algorithm) — the payload bytes are a
pure function of the seed, so neither the journal nor the daemon's
state directory ever stores them.  ``kpbs resume`` and the serve
daemon's crash recovery regenerate bit-identical payloads from the
recorded config; the delivered-bytes digest then proves end-to-end
bit-identity across crashes.

This module owns the run's whole lifecycle: the ``run.json`` keys and
their defaults (:data:`CONFIG_DEFAULTS`), the one validator applied to
fresh parameters and stored sidecars alike (:func:`transfer_config`),
and the one entry point that starts a run or finishes it from its
journal (:func:`run_transfer`).  Either side can therefore finish a run
the other started.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
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
    "delivered_digest",
    "read_run_config",
    "resilience_options",
    "run_transfer",
    "transfer_case",
    "transfer_cluster",
    "transfer_config",
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
_INT_KEYS = ("seed", "n1", "n2", "k")
_FLOAT_KEYS = ("payload_kb", "beta", "nic_mbit", "backbone_mbit")
#: Schedulers a transfer run accepts (``kpbs transfer --algorithm``).
_METHODS = ("ggp", "oggp")


def transfer_config(params: Mapping, *, stored: bool = False) -> dict:
    """The complete, validated config ``params`` describe.

    Fresh parameters may leave any key at its :data:`CONFIG_DEFAULTS`
    value; a ``stored`` sidecar must name every key but ``engine``
    (sidecars older than the engine choice lack it and run ``fast``).
    Anything else that cannot run is a :class:`ConfigError`.
    """
    from repro.core.wrgp import _check_engine

    unknown = sorted(set(params) - set(CONFIG_DEFAULTS))
    if unknown:
        known = ", ".join(sorted(CONFIG_DEFAULTS))
        raise ConfigError(
            f"unknown transfer parameter(s) {', '.join(unknown)}; "
            f"valid keys: {known}"
        )
    if stored:
        missing = [
            key for key in CONFIG_DEFAULTS
            if key not in params and key != "engine"
        ]
        if missing:
            raise ConfigError(
                f"stored {RUN_CONFIG_NAME} lacks {', '.join(missing)}"
            )
    config = dict(CONFIG_DEFAULTS)
    config.update(params)
    try:
        for key in _INT_KEYS:
            config[key] = int(config[key])
        for key in _FLOAT_KEYS:
            config[key] = float(config[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad transfer parameter: {exc}") from exc
    for key in ("n1", "n2", "k", "payload_kb"):
        if config[key] <= 0:
            raise ConfigError(f"{key} must be positive, got {config[key]}")
    if config["method"] not in _METHODS:
        raise ConfigError(
            f"unknown method {config['method']!r}; valid methods: "
            + ", ".join(_METHODS)
        )
    _check_engine(config["engine"])
    # Fault and retry specs fail here, before a run starts, not mid-run.
    resilience_options(config["faults"], config["retries"])
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
    """Start the seeded run ``params`` describe, or finish ``directory``'s.

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
    from repro.resilience import CheckpointStore
    from repro.runtime.executor import (
        resume_and_run_resilient,
        schedule_and_run_resilient,
    )

    if params is None:
        config = transfer_config(read_run_config(directory), stored=True)
    else:
        config = transfer_config(params)
    plan, retry = resilience_options(
        faults or config["faults"],
        config["retries"] if retries is None else retries,
        task_timeout,
    )
    store, begun = None, False
    if directory is not None:
        store = CheckpointStore(
            directory, fsync=fsync, snapshot_every=snapshot_every
        )
        begun = store.exists()
        if params is not None:
            if begun:
                raise ConfigError(
                    f"checkpoint directory {directory} already holds a "
                    "run; resume it or choose a fresh directory"
                )
            # The sidecar lands before the first byte moves, so a run
            # killed at any point afterwards is resumable.
            Path(directory).mkdir(parents=True, exist_ok=True)
            (Path(directory) / RUN_CONFIG_NAME).write_text(
                json.dumps(config, indent=2)
            )
    graph, payloads, destinations = transfer_case(
        config["seed"], config["n1"], config["n2"],
        int(config["payload_kb"] * 1024),
    )
    cluster = transfer_cluster(config)
    if begun:
        with CheckpointStore.resume(
            directory, fsync=fsync, snapshot_every=snapshot_every
        ) as resumed:
            return resume_and_run_resilient(
                cluster, resumed, payloads, engine=config["engine"],
                cache=cache, faults=plan, retry=retry,
            )
    try:
        return schedule_and_run_resilient(
            cluster, graph, config["k"], config["beta"], payloads,
            destinations, method=config["method"], engine=config["engine"],
            cache=cache, faults=plan, retry=retry, checkpoint=store,
        )
    finally:
        if store is not None:
            store.close()


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
