"""Self-tests of the benchmark (``python3 -m pytest perfbench/tests -q``).

They run ``perfbench/run.py`` from the command line, with one-second runs
(each run still makes at least one whole pass), so the module takes a
few minutes.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402

harness.use_source()

import kpbs_random  # noqa: E402
import redistribute_churn  # noqa: E402
import serve_mixed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Metrics that must repeat exactly for the same seed, per trace mode.
DETERMINISTIC = {
    0: ("evaluation_ratio.mean", "redistribution_s.mean"),
    1: ("peel.count", "matching.threshold_probes", "journal.records"),
}


@functools.lru_cache(maxsize=None)
def bench(workload: str, seed: int, trace: int, repeat: int = 0) -> dict:
    """One benchmark run: its result document and its ``digest:`` line."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    digest = next(
        line.split(":", 1)[1].strip() for line in lines
        if line.strip().startswith("digest:")
    )
    return {"doc": json.loads(lines[-1]), "digest": digest}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_printed_metrics_are_the_declared_ones(workload, trace):
    doc = bench(workload, 1, trace)["doc"]
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {
        name: m["unit"] for name, m in doc["metrics"].items()
    } == {m["name"]: m["unit"] for m in declared}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1


@pytest.mark.parametrize(
    "workload, trace",
    [("kpbs-random", 0), ("kpbs-random", 1), ("redistribute-churn", 0),
     ("redistribute-churn", 1), ("serve-mixed", 0)],
)
def test_same_seed_repeats_inputs_and_deterministic_metrics(workload, trace):
    first, second = bench(workload, 1, trace), bench(workload, 1, trace, 1)
    assert first["digest"] == second["digest"]
    for name in DETERMINISTIC[trace]:
        assert (
            first["doc"]["metrics"][name]["value"]
            == second["doc"]["metrics"][name]["value"]
        ), name


def test_different_seed_gives_different_instances():
    assert kpbs_random.instances(1)[1] != kpbs_random.instances(2)[1]
    assert (
        redistribute_churn.instances(1)[1]
        != redistribute_churn.instances(2)[1]
    )
    assert serve_mixed.plan(1, 2.0)["digest"] != serve_mixed.plan(2, 2.0)["digest"]


def test_same_seed_gives_same_instances():
    assert kpbs_random.instances(3)[1] == kpbs_random.instances(3)[1]
    assert serve_mixed.plan(3, 2.0)["digest"] == serve_mixed.plan(3, 2.0)["digest"]


def test_traced_kpbs_random_attributes_its_wall_time():
    metrics = bench("kpbs-random", 1, 1)["doc"]["metrics"]
    assert metrics["coverage_frac"]["value"] >= 0.95


def test_without_sources_exits_nonzero_and_prints_no_result():
    with harness.temp_dir("no-sources-") as tmp:
        (tmp / "perfbench").mkdir()
        for path in BENCH.glob("*.py"):
            (tmp / "perfbench" / path.name).write_bytes(path.read_bytes())
        (tmp / "BENCHMARK.json").write_text(json.dumps(SPEC))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "kpbs-random", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=120,
        )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
