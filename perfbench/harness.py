"""Shared plumbing of the benchmark: paths, statistics, set-up probes.

The benchmark runs from the root of a source checkout and imports the
program from ``src/``; everything it writes goes under
``.perfbench/`` in that checkout and temporary directories are removed
before the run ends.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_PY = Path(__file__).resolve().parent / "run.py"
#: Scratch space inside the checkout (temp dirs, traced-run span files).
WORK = ROOT / ".perfbench"


def source_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def use_source() -> None:
    """Make ``import repro`` resolve to the checkout's ``src/``."""
    path = str(SRC)
    if path not in sys.path:
        sys.path.insert(0, path)


def child_env() -> dict:
    """Environment for subprocesses: the checkout's ``src/`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


@contextmanager
def temp_dir(prefix: str):
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# -- statistics ------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100])."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def mean(values) -> float:
    """Exact-sum mean: the same values in any order give the same bits."""
    values = list(values)
    return math.fsum(values) / len(values)


# -- process-level measurements --------------------------------------------

def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_of(pid: int) -> float:
    """Peak resident set of a live child process, from ``/proc``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def probe_setup_s(workload: str, repeats: int) -> list[float]:
    """Wall time of ``repeats`` fresh processes that import and warm up.

    Each probe is ``run.py --probe <workload>``: interpreter start, the
    workload's imports and one warm-up call, then exit.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(RUN_PY), "--probe", workload],
            cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=120,
        )
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(
                f"set-up probe failed: {proc.stderr.decode()[-2000:]}"
            )
        times.append(elapsed)
    return times


def run_passes(run_pass, seconds: float) -> list:
    """Whole passes over a workload's instance set within ``seconds``.

    One pass always runs; another starts only while the mean pass so
    far still fits in the time left, so a run does not overshoot
    ``seconds`` by most of a pass.
    """
    results = []
    start = time.perf_counter()
    while True:
        results.append(run_pass())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            return results


#: Telemetry of a measured call: none, the program's own ``repro.obs``
#: (``obs.observed()``), or the benchmark's layer wrappers.
PLAIN_ONLY = ("plain",)
ALL_KINDS = ("plain", "obs", "traced")


def kinds_in_turn(kinds: tuple[str, ...], turn: int) -> tuple[str, ...]:
    """``kinds`` rotated by ``turn``, so no kind always runs first."""
    shift = turn % len(kinds)
    return kinds[shift:] + kinds[:shift]


@contextmanager
def telemetry(kind: str, rec):
    """Run the body under ``kind``'s telemetry; yields the obs registry
    for ``obs`` and ``None`` otherwise.

    A traced run measures each operation under every kind back to back,
    so the overheads compare calls made moments apart on the same input
    rather than passes made tens of seconds apart on a shared machine.
    """
    if kind == "obs":
        from repro import obs

        with obs.observed() as (registry, _):
            yield registry
    elif kind == "traced":
        restore = tracing.install(rec)
        try:
            yield None
        finally:
            restore()
    else:
        yield None


def summarize(workload: str, passes: list, trace: bool, setup: list[float],
              rec, out_dir: Path, tally: dict, failures: list[str],
              info: dict) -> dict:
    """The result of a workload made of whole passes over fixed inputs.

    Each pass is ``{"times": {kind: [s]}, "quality": [(cost, ratio)],
    "probes": n}`` with the operations in the same order in every pass.
    Untraced, an operation's time is its fastest pass: on a shared
    machine a slow phase makes every call in it slower, and the
    per-operation minimum keeps such phases out of the figures as long
    as some pass of the run escaped them.  Cost and ratio come from the
    first pass (later passes are checked to repeat it).
    """
    out = {
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "failures": failures,
        "info": dict(info, passes=len(passes)),
    }
    if not trace:
        best = [min(ts) for ts in zip(*(p["times"]["plain"] for p in passes))]
        first = passes[0]["quality"]
        out["metrics"] = {
            "setup_s": median(setup),
            "peak_rss_mb": peak_rss_mb(),
            "throughput_per_s": len(best) / math.fsum(best),
            "latency_s.p50": percentile(best, 50),
            "latency_s.p90": percentile(best, 90),
            "evaluation_ratio.mean": mean(r for _, r in first),
            "redistribution_s.mean": mean(c for c, _ in first),
        }
        return out
    times = {
        kind: [t for p in passes for t in p["times"][kind]] for kind in ALL_KINDS
    }
    summary = rec.summary()
    metrics = tracing.layer_table(summary, len(passes))
    metrics.update({
        "matching.threshold_probes": mean(p["probes"] for p in passes),
        "coverage_frac": tracing.named_self_s(summary) / sum(times["traced"]),
        "trace.overhead_frac": overhead_frac(times["traced"], times["plain"]),
        "obs.overhead_frac": overhead_frac(times["obs"], times["plain"]),
    })
    rec.write_chrome(out_dir / f"{workload}.trace.json")
    out["metrics"] = metrics
    return out


def overhead_frac(slow: list[float], base: list[float]) -> float:
    """Relative cost of the ``slow`` calls over the ``base`` calls."""
    return sum(slow) / sum(base) - 1.0


def digest(parts) -> str:
    """SHA-256 over an iterable of bytes/str parts (inputs fingerprint)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))
