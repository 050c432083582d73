"""Workload ``redistribute-churn``: structured traffic under live churn.

Structured 20x20 traffic matrices from :mod:`repro.patterns`
(block-cyclic, alltoall, zipf, hotspot, permutation), twelve seeded
draws of each (matrix, churn and faults), make the operations of a
pass: the matrix runs through the netsim live-churn executor
(``run_redistribution_churn``) journaled to a fresh ``CheckpointStore``,
then the same pattern family at 6x6 moves real bytes through the
runtime churn executor (``run_resilient_churn``) on a ``LocalCluster``.
The inputs are full of weight ties and include already-regular graphs
(alltoall, permutation) where ``regularize`` has nothing to do.

Settings under which every run of the parent commit completes:

- integer Mbit volumes at a 1 Mbit/s flow rate (NICs 1 Mbit/s,
  backbone 10 Mbit/s, so k = 10).  With fractional rates
  (100 Mbit/s NICs) ``repair_plan`` raises ``KeyError`` on rounding
  dust in about one run in five;
- transfer failure rate 0.5% and a 1000-attempt retry budget.  The
  default 8 attempts are a run-global budget that 30x30 runs with
  faults exhaust, ending incomplete;
- runtime NICs at 1 GB/s, so the token-bucket shapers do not sleep.

Checks: every run ends complete; the netsim run's delivered amounts
hash to the digest of its final traffic, and the runtime's delivered
bytes to the digest of its final payloads; every later run of a case
(another pass, or another telemetry kind in a traced run) reproduces
the digests of its first.
"""

from __future__ import annotations

import importlib
import time

import harness
import tracing

N = 20
RUNTIME_N = 6
STEP_SETUP = 0.5
FAULT_RATE = 0.005
RETRY_ATTEMPTS = 1000
PATTERNS = ("block_cyclic", "alltoall", "zipf", "hotspot", "permutation")
#: Seeded draws of each pattern per pass.  The cost of one run swings
#: by a third or more with its draw (the churn decides how much is
#: re-peeled), so a pass averages many draws rather than repeating a
#: few; ``N`` is kept at 20 so that twelve draws fit in one run.
VARIANTS = 12


def _matrix(name: str, seed: int, n: int):
    import numpy as np

    from repro import patterns

    if name == "block_cyclic":
        return patterns.block_cyclic_matrix(n * n * 7, n, 3, n, 5)
    if name == "alltoall":
        return patterns.alltoall_matrix(n, n, 8.0)
    if name == "zipf":
        return np.ceil(patterns.zipf_matrix(seed, n, n, total=n * n * 8.0))
    if name == "hotspot":
        return patterns.hotspot_matrix(seed, n, n, 4.0, 40.0, num_hot=2)
    return patterns.permutation_matrix(seed, n, 100.0)


def instances(seed: int):
    """``(cases, digest, sizes)``; a case is one pattern draw, both scales."""
    import numpy as np

    cases, parts = [], []
    for index in range(VARIANTS * len(PATTERNS)):
        name = PATTERNS[index % len(PATTERNS)]
        draw = _case_seed(seed, index)
        big = _matrix(name, draw, N)
        small = _matrix(name, draw, RUNTIME_N)
        rng = np.random.default_rng([seed, index, 0x52554E])
        payloads, destinations = {}, {}
        for i, j in zip(*np.nonzero(small)):
            eid = len(payloads)
            payloads[eid] = rng.bytes(int(small[i, j] * 1000))
            destinations[eid] = (int(i), int(j))
        cases.append({
            "name": name, "index": index, "matrix": big,
            "payloads": payloads, "destinations": destinations,
        })
        parts += [name, big.tobytes(), small.tobytes()]
    sizes = [
        (c["name"], N, N, int((c["matrix"] > 0).sum()), len(c["payloads"]))
        for c in cases
    ]
    return cases, harness.digest(parts), sizes


def _case_seed(seed: int, index: int) -> int:
    return seed * 64 + index


def _settings(seed: int, index: int):
    from repro.netsim import NetworkSpec
    from repro.resilience.churn import ChurnSpec
    from repro.resilience.faults import FaultSpec
    from repro.resilience.retry import RetryPolicy

    case_seed = _case_seed(seed, index)
    return {
        "spec": NetworkSpec(
            n1=N, n2=N, nic_rate1=1.0, nic_rate2=1.0, backbone_rate=10.0,
            step_setup=STEP_SETUP,
        ),
        "churn": ChurnSpec(
            seed=case_seed, inject_rate=2, remove_rate=1, resize_rate=2,
            events=6, min_amount=1, max_amount=10,
        ).process(),
        "runtime_churn": ChurnSpec(
            seed=case_seed, inject_rate=1, remove_rate=0.5, resize_rate=1,
            events=4, min_amount=1000, max_amount=10000,
        ).process(),
        "faults": FaultSpec(
            seed=case_seed, transfer_failure_rate=FAULT_RATE
        ).plan(),
        "retry": RetryPolicy(
            max_attempts=RETRY_ATTEMPTS, backoff_base=0.0, jitter=0.0
        ),
    }


def _executors():
    # Looked up on the modules at call time, so traced runs see the
    # wrapped names.
    watch = importlib.import_module("repro.netsim.watch")
    churn = importlib.import_module("repro.runtime.churn")
    return watch, churn


def _run_case(case, settings, journal_dir):
    """One operation: the netsim run, then the runtime run."""
    from repro.runtime import LocalCluster

    watch, churn = _executors()
    outcome = watch.run_redistribution_churn(
        settings["spec"], case["matrix"], "oggp", settings["churn"],
        faults=settings["faults"], retry=settings["retry"],
        checkpoint=journal_dir, cache=None,
    )
    cluster = LocalCluster(
        RUNTIME_N, RUNTIME_N, nic_rate1=1e9, nic_rate2=1e9,
        backbone_rate=4e9,
    )
    report = churn.run_resilient_churn(
        cluster, case["payloads"], case["destinations"],
        settings["runtime_churn"], k=3, beta=1.0,
        faults=settings["faults"], retry=settings["retry"], cache=None,
    )
    return outcome, report


def probe() -> None:
    """Imports plus one small warm-up run of both executors."""
    import numpy as np

    from repro.runtime.seeded import delivered_digest  # noqa: F401

    settings = _settings(0, 0)
    case = {
        "matrix": np.full((3, 3), 2.0),
        "payloads": {0: b"x" * 100, 1: b"y" * 200},
        "destinations": {0: (0, 1), 1: (1, 0)},
    }
    with harness.temp_dir("probe-") as tmp:
        _run_case(case, settings, tmp / "journal")


def run(seed: int, seconds: float, trace: bool, out_dir) -> dict:
    setup = harness.probe_setup_s("redistribute-churn", 5)
    probe()

    from repro.core.bounds import lower_bound
    from repro.netsim.watch import delivered_digest as netsim_digest
    from repro.resilience.recovery import residual_graph_from_amounts
    from repro.runtime.seeded import delivered_digest

    cases, inputs_digest, sizes = instances(seed)
    settings = [_settings(seed, c["index"]) for c in cases]
    kinds = harness.ALL_KINDS if trace else harness.PLAIN_ONLY
    rec = tracing.Recorder()
    reference: dict[int, tuple[str, str]] = {}
    tally = {"attempted": 0, "failed": 0}
    failures: list[str] = []

    def check(case, outcome, report) -> tuple[float, float]:
        tally["attempted"] += 1
        problems = []
        if not outcome.complete:
            problems.append(
                f"netsim incomplete ({outcome.undelivered_mbit} Mbit left)"
            )
        if not report.complete:
            problems.append(f"runtime incomplete ({len(report.errors)} errors)")
        digests = (
            netsim_digest(outcome.edges, outcome.delivered),
            delivered_digest(report.delivered),
        )
        totals = {eid: total for eid, (_, _, total) in outcome.edges.items()}
        if digests[0] != netsim_digest(outcome.edges, totals):
            problems.append("netsim delivered amounts differ from traffic")
        if digests[1] != delivered_digest(report.payloads):
            problems.append("runtime delivered bytes differ from payloads")
        if reference.setdefault(case["index"], digests) != digests:
            problems.append("digest differs from an earlier run of the case")
        if problems:
            tally["failed"] += 1
            failures.append(
                f"{case['index']} {case['name']}: {'; '.join(problems)}"
            )
        graph, _ = residual_graph_from_amounts(outcome.edges)
        bound = lower_bound(
            graph, settings[case["index"]]["spec"].k, STEP_SETUP
        )
        return outcome.total_time, outcome.total_time / bound

    def run_pass() -> dict:
        times = {kind: [] for kind in kinds}
        done = []
        probes = 0
        with harness.temp_dir("journals-") as tmp:
            for turn, case in enumerate(cases):
                for kind in harness.kinds_in_turn(kinds, turn):
                    journal = tmp / f"{case['index']}-{case['name']}-{kind}"
                    with harness.telemetry(kind, rec) as registry:
                        t0 = time.perf_counter()
                        result = _run_case(
                            case, settings[case["index"]], journal
                        )
                        times[kind].append(time.perf_counter() - t0)
                        if registry is not None:
                            probes += registry.counter(
                                "matching.bottleneck.threshold_probes"
                            ).value
                    done.append((case, *result))
        return {
            "times": times,
            "quality": [check(*d) for d in done],
            "probes": probes,
        }

    passes = harness.run_passes(run_pass, seconds)
    return harness.summarize(
        "redistribute-churn", passes, trace, setup, rec, out_dir, tally,
        failures,
        {"cases": len(cases), "digest": inputs_digest, "sizes": sizes},
    )
