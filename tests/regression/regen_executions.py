"""Regenerate the executions corpus after an intentional behaviour change.

The corpus pins what the redistribution executors produce end to end:
the netsim and runtime fault-recovery paths and both live-churn paths,
each fresh and (where checkpointable) resumed from a journal cut
mid-run with a torn tail, the way a SIGKILL leaves it.  Per case it
records the SHA-256 of ``journal.kpbj`` (written with
``snapshot_every=0``; records carry no timestamps), the outcome fields
(floats as ``repr``) and the delivered-amounts digest.  Wall-clock
fields are not recorded.

Run:  PYTHONPATH=src python tests/regression/regen_executions.py
"""

from __future__ import annotations

import hashlib
import json
import struct
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).with_name("golden_executions.json")

#: ``magic | version u8 | type u8 | pad u16 | crc32 u32 | length u32``.
_FRAME = struct.Struct("<4sBBxxII")

_NETSIM_FAULTS = dict(
    seed=9,
    transfer_failure_rate=0.2,
    transfer_stall_rate=0.05,
    link_degradation_rate=0.3,
    link_degradation_factor=0.5,
)
_RUNTIME_FAULTS = dict(
    seed=4,
    transfer_failure_rate=0.25,
    transfer_stall_rate=0.05,
    link_degradation_rate=0.3,
    link_degradation_factor=0.5,
)
_HEAVY_FAULTS = dict(_RUNTIME_FAULTS, transfer_failure_rate=0.6)


def _retry(attempts: int):
    from repro.resilience import RetryPolicy

    return RetryPolicy(max_attempts=attempts, backoff_base=0.0, jitter=0.0)


def _faults(spec: dict):
    from repro.resilience import FaultSpec

    return FaultSpec(**spec).plan()


def _store(directory: Path, resume: bool = False):
    from repro.resilience import CheckpointStore

    if resume:
        return CheckpointStore.resume(directory, fsync="never", snapshot_every=0)
    return CheckpointStore(directory, fsync="never", snapshot_every=0)


def _journal_sha(directory: Path) -> str:
    return hashlib.sha256((directory / "journal.kpbj").read_bytes()).hexdigest()


def _cut(src: Path, dst: Path) -> int:
    """Copy ``src``'s journal into ``dst`` cut mid-run with a torn tail.

    Keeps the first half of the records (at least the metadata and one
    more) and appends the first bytes of the next record, as a process
    killed mid-append leaves it.  Returns the number of whole records
    kept.
    """
    data = (src / "journal.kpbj").read_bytes()
    bounds = []
    offset = 0
    while offset < len(data):
        *_, length = _FRAME.unpack_from(data, offset)
        offset += _FRAME.size + length
        bounds.append(offset)
    keep = max(2, len(bounds) // 2)
    end = bounds[keep - 1]
    torn = data[end : end + _FRAME.size + 3]
    dst.mkdir(parents=True)
    (dst / "journal.kpbj").write_bytes(data[:end] + torn)
    return keep


def _netsim_spec(n: int):
    from repro.netsim import NetworkSpec

    return NetworkSpec(
        n1=n, n2=n, nic_rate1=10.0, nic_rate2=10.0, backbone_rate=30.0,
        step_setup=0.5,
    )


def _netsim_digest(directory: Path) -> str:
    from repro.netsim.watch import delivered_digest
    from repro.resilience import load_checkpoint

    state = load_checkpoint(directory)
    return delivered_digest(state.edges, state.delivered)


def _redistribution(out) -> dict:
    return {
        "total_time": repr(out.total_time),
        "num_steps": out.num_steps,
        "rounds": out.rounds,
        "recovery_time": repr(out.recovery_time),
        "undelivered_mbit": repr(out.undelivered_mbit),
        "volume_mbit": repr(out.volume_mbit),
        "schedule_steps": (
            None if out.schedule is None else out.schedule.num_steps
        ),
    }


def _churn_outcome(out) -> dict:
    from repro.netsim.watch import delivered_digest

    return {
        "total_time": repr(out.total_time),
        "num_steps": out.num_steps,
        "rounds": out.rounds,
        "churn_events": out.churn_events,
        "churn_ops": out.churn_ops,
        "splices": out.splices,
        "fallbacks": out.fallbacks,
        "noops": out.noops,
        "fresh_builds": out.fresh_builds,
        "volume_mbit": repr(out.volume_mbit),
        "undelivered_mbit": repr(out.undelivered_mbit),
        "complete": out.complete,
        "history": [
            [row["round"], row["mode"], row["churn"], row["steps"],
             repr(row["sim_seconds"]), row["failed"]]
            for row in out.history
        ],
        "digest": delivered_digest(out.edges, out.delivered),
    }


def _resilient_report(report) -> dict:
    from repro.runtime.seeded import delivered_digest

    return {
        "rounds": report.rounds,
        "bytes_moved": report.bytes_moved,
        "complete": report.complete,
        "schedule_steps": report.schedule.num_steps,
        "recovery_steps": [s.num_steps for s in report.recovery_schedules],
        "report_steps": [r.num_steps for r in report.reports],
        "report_bytes": [r.bytes_moved for r in report.reports],
        "errors": [str(e) for e in report.errors],
        "digest": delivered_digest(report.delivered),
    }


def _churn_report(report) -> dict:
    from repro.runtime.seeded import delivered_digest

    return {
        "rounds": report.rounds,
        "bytes_moved": report.bytes_moved,
        "churn_events": report.churn_events,
        "churn_ops": report.churn_ops,
        "splices": report.splices,
        "fallbacks": report.fallbacks,
        "noops": report.noops,
        "fresh_builds": report.fresh_builds,
        "complete": report.complete,
        "report_steps": [r.num_steps for r in report.reports],
        "errors": [str(e) for e in report.errors],
        "digest": delivered_digest(report.delivered),
        "payload_digest": delivered_digest(report.payloads),
    }


def _cluster(n: int):
    from repro.runtime import LocalCluster

    return LocalCluster(n, n, nic_rate1=1e9, nic_rate2=1e9, backbone_rate=4e9)


# -- cases ---------------------------------------------------------------


def netsim_faults(tmp: Path, method: str, attempts: int, faults: dict) -> dict:
    from repro.netsim import resume_redistribution, run_redistribution
    from repro.netsim.runner import uniform_traffic

    spec = _netsim_spec(5)
    traffic = uniform_traffic(3, 5, 5, 1.0, 8.0)
    run_dir, cut_dir = tmp / "run", tmp / "cut"
    store = _store(run_dir)
    try:
        out = run_redistribution(
            spec, traffic, method, rng=3, rate_jitter=0.1,
            faults=_faults(faults), retry=_retry(attempts), checkpoint=store,
            cache=None,
        )
    finally:
        store.close()
    case = {
        "outcome": _redistribution(out),
        "journal": _journal_sha(run_dir),
        "digest": _netsim_digest(run_dir),
    }
    case["cut_records"] = _cut(run_dir, cut_dir)
    store = _store(cut_dir, resume=True)
    try:
        resumed = resume_redistribution(
            spec, store, rng=3, rate_jitter=0.1, faults=_faults(faults),
            retry=_retry(attempts), cache=None,
        )
    finally:
        store.close()
    case["resumed"] = {
        "outcome": _redistribution(resumed),
        "journal": _journal_sha(cut_dir),
        "digest": _netsim_digest(cut_dir),
    }
    return case


def netsim_churn(tmp: Path, method: str, attempts: int, faults: dict) -> dict:
    from repro.netsim.runner import uniform_traffic
    from repro.netsim.watch import (
        resume_redistribution_churn,
        run_redistribution_churn,
    )
    from repro.resilience import ChurnSpec

    spec = _netsim_spec(6)
    traffic = uniform_traffic(5, 6, 6, 1.0, 6.0)

    def churn():
        return ChurnSpec(
            seed=11, inject_rate=2, remove_rate=1, resize_rate=2, events=4,
            min_amount=1.0, max_amount=6.0,
        ).process()

    run_dir, cut_dir = tmp / "run", tmp / "cut"
    store = _store(run_dir)
    try:
        out = run_redistribution_churn(
            spec, traffic, method, churn(), segment_steps=3, rng=5,
            rate_jitter=0.1, faults=_faults(faults), retry=_retry(attempts),
            checkpoint=store, cache=None,
        )
    finally:
        store.close()
    case = {
        "outcome": _churn_outcome(out),
        "journal": _journal_sha(run_dir),
        "digest": _netsim_digest(run_dir),
    }
    case["cut_records"] = _cut(run_dir, cut_dir)
    store = _store(cut_dir, resume=True)
    try:
        resumed = resume_redistribution_churn(
            spec, store, churn(), rng=5, rate_jitter=0.1,
            faults=_faults(faults),
            retry=_retry(attempts), cache=None,
        )
    finally:
        store.close()
    case["resumed"] = {
        "outcome": _churn_outcome(resumed),
        "journal": _journal_sha(cut_dir),
        "digest": _netsim_digest(cut_dir),
    }
    return case


def runtime_faults(tmp: Path, method: str, attempts: int, faults: dict) -> dict:
    from repro.runtime import resume_and_run_resilient, schedule_and_run_resilient
    from repro.runtime.seeded import transfer_case

    graph, payloads, destinations = transfer_case(7, 3, 4, 3000)
    run_dir, cut_dir = tmp / "run", tmp / "cut"
    store = _store(run_dir)
    try:
        report = schedule_and_run_resilient(
            _cluster(4), graph, 2, 1.0, payloads, destinations,
            method=method, cache=None, faults=_faults(faults),
            retry=_retry(attempts), checkpoint=store,
        )
    finally:
        store.close()
    case = {
        "outcome": _resilient_report(report),
        "journal": _journal_sha(run_dir),
    }
    case["cut_records"] = _cut(run_dir, cut_dir)
    store = _store(cut_dir, resume=True)
    try:
        resumed = resume_and_run_resilient(
            _cluster(4), store, payloads, cache=None,
            faults=_faults(faults), retry=_retry(attempts),
        )
    finally:
        store.close()
    case["resumed"] = {
        "outcome": _resilient_report(resumed),
        "journal": _journal_sha(cut_dir),
    }
    return case


def runtime_churn(tmp: Path, method: str, attempts: int, faults: dict) -> dict:
    from repro.resilience import ChurnSpec
    from repro.runtime import run_resilient_churn

    rng = np.random.default_rng(21)
    payloads, destinations = {}, {}
    for i in range(4):
        for j in range(4):
            if rng.random() < 0.7:
                eid = len(payloads)
                payloads[eid] = rng.bytes(int(rng.integers(500, 4000)))
                destinations[eid] = (i, j)
    churn = ChurnSpec(
        seed=13, inject_rate=1, remove_rate=0.5, resize_rate=1, events=4,
        min_amount=500, max_amount=3000,
    ).process()
    report = run_resilient_churn(
        _cluster(4), payloads, destinations, churn, k=2, beta=1.0,
        method=method, segment_steps=2, cache=None,
        faults=_faults(faults), retry=_retry(attempts),
    )
    return {"outcome": _churn_report(report)}


#: ``name -> (case function, method, retry attempts, fault spec)``.
#: The small budgets leave a run incomplete, which pins the give-up
#: paths too.
CASES = {
    "netsim-faults-ggp": (netsim_faults, "ggp", 20, _NETSIM_FAULTS),
    "netsim-faults-oggp": (netsim_faults, "oggp", 20, _NETSIM_FAULTS),
    "netsim-faults-budget": (netsim_faults, "oggp", 2, _NETSIM_FAULTS),
    "netsim-churn-oggp": (netsim_churn, "oggp", 1000, _NETSIM_FAULTS),
    "netsim-churn-ggp": (netsim_churn, "ggp", 1000, _NETSIM_FAULTS),
    "netsim-churn-budget": (netsim_churn, "oggp", 3, _NETSIM_FAULTS),
    "runtime-faults-oggp": (runtime_faults, "oggp", 20, _RUNTIME_FAULTS),
    "runtime-faults-ggp": (runtime_faults, "ggp", 20, _RUNTIME_FAULTS),
    "runtime-faults-budget": (runtime_faults, "oggp", 2, _HEAVY_FAULTS),
    "runtime-churn-oggp": (runtime_churn, "oggp", 1000, _RUNTIME_FAULTS),
    "runtime-churn-budget": (runtime_churn, "ggp", 2, _RUNTIME_FAULTS),
}


def run_case(name: str) -> dict:
    fn, method, attempts, faults = CASES[name]
    with tempfile.TemporaryDirectory(prefix="kpbs-exec-") as tmp:
        return fn(Path(tmp), method, attempts, faults)


def main() -> None:
    corpus = {name: run_case(name) for name in CASES}
    GOLDEN.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(corpus)} cases to {GOLDEN}")


if __name__ == "__main__":
    main()
