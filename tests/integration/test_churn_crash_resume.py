"""Crash-kill harness for live-churn runs, plus the repair-speed gate.

The acceptance criteria for splice rescheduling (docs/robustness.md):

- SIGKILLing a checkpointed ``kpbs watch`` run mid-churn and resuming
  it in a fresh process converges on the *same* delivered-bytes digest
  as an uninterrupted run — churn draws, fault draws and splice
  repairs all replay bit-identically from the journal.
- At a 100x100 platform the spliced repair is at least 3x faster than
  rescheduling the whole pending remainder, with an evaluation ratio
  within 5% of the from-scratch schedule's.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

#: A run long enough (tens of segments, 50x50 cells) that kill points
#: land mid-flight: after churn events, between splices, inside faulted
#: segments.
WATCH_ARGS = [
    "--seed", "11", "--n1", "20", "--n2", "20", "--k", "3", "--max-mb", "40",
    "--churn", "seed=11,inject=2,remove=1,resize=2,events=4",
    # The retry budget counts faulted segments across the whole run; at
    # this fault rate most segments lose at least one transfer, so the
    # budget just needs to exceed the round count.
    "--faults", "seed=9,transfer=0.2", "--retries", "1000",
    "--fsync", "round", "--snapshot-every", "2",
]


def kpbs(*args: str, timeout: float = 300.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, timeout=timeout,
    )


def digest_of(stdout: str) -> str:
    for line in stdout.splitlines():
        if line.startswith("digest:"):
            return line.split()[-1]
    raise AssertionError(f"no digest line in output:\n{stdout}")


def finish(ckdir: str) -> subprocess.CompletedProcess:
    """Drive a (possibly) killed watch run to completion.

    ``kpbs resume`` finishes any run whose ``run.json`` landed: it
    resumes a begun journal (a snapshot beside an emptied journal
    included) and starts a run whose journal never began.  Only a kill
    before ``run.json`` landed needs a fresh ``kpbs watch``.
    """
    if os.path.exists(os.path.join(ckdir, "run.json")):
        return kpbs("resume", "--checkpoint-dir", ckdir)
    return kpbs("watch", "--checkpoint-dir", ckdir, *WATCH_ARGS)


@pytest.fixture(scope="module")
def reference():
    """(digest, stdout) of the uninterrupted churned run."""
    result = kpbs("watch", *WATCH_ARGS)
    assert result.returncode == 0, result.stderr
    return digest_of(result.stdout), result.stdout


@pytest.mark.slow
class TestChurnCrashResume:
    def test_reference_run_actually_churns_and_splices(self, reference):
        _, stdout = reference
        fields = {}
        for line in stdout.splitlines():
            key, sep, value = line.partition(":")
            if sep:
                fields[key.strip()] = value.strip()
        assert fields["complete"] == "True"
        assert int(fields["churn"].split()[0]) >= 1
        assert int(fields["splices"]) >= 1
        # Every executed schedule was verified (build + splices + fallbacks).
        assert int(fields["verified"]) >= 1 + int(fields["splices"])

    @pytest.mark.parametrize("kill_after", [0.4, 0.9])
    def test_sigkill_then_resume_is_bit_identical(
        self, kill_after, tmp_path, reference
    ):
        reference_digest, _ = reference
        ckdir = str(tmp_path / "ck")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "watch",
             "--checkpoint-dir", ckdir, *WATCH_ARGS],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        time.sleep(kill_after)
        if proc.poll() is None:
            os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=60)
        killed = proc.returncode == -signal.SIGKILL
        result = finish(ckdir)
        assert result.returncode == 0, result.stderr
        assert "complete:  True" in result.stdout
        assert digest_of(result.stdout) == reference_digest, (
            f"kill at {kill_after}s (killed={killed}) diverged from the "
            "uninterrupted churned run"
        )
        # Resume of the now-complete checkpoint stays stable.
        again = kpbs("resume", "--checkpoint-dir", ckdir)
        assert again.returncode == 0, again.stderr
        assert digest_of(again.stdout) == reference_digest


@pytest.mark.slow
class TestRepairSpeedGate:
    def test_splice_beats_full_reschedule_at_side_100(self):
        from repro.experiments.churn import churn_repair_case

        case = churn_repair_case(100, seed=7301, k=4, beta=0.5)
        assert case["mode"] == "splice"
        assert case["speedup"] >= 3.0, case
        gap = case["splice_ratio"] / case["full_ratio"] - 1.0
        assert gap <= 0.05, case
