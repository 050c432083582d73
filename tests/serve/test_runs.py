"""RunRegistry: journaled execution, idempotency, crash recovery."""

import json

import pytest

from repro.runtime.seeded import RUN_CONFIG_NAME
from repro.serve.runs import RunActiveError, RunRegistry
from repro.util.errors import ConfigError

PARAMS = {"seed": 5, "n1": 2, "n2": 2, "payload_kb": 4}


@pytest.fixture()
def registry(tmp_path):
    return RunRegistry(tmp_path / "state")


class TestRunIds:
    @pytest.mark.parametrize(
        "bad", ["", "../escape", "a/b", "a b", ".hidden", "x" * 65]
    )
    def test_bad_ids_rejected(self, registry, bad):
        with pytest.raises(ConfigError, match="run_id"):
            registry.run_dir(bad)

    def test_good_ids_accepted(self, registry):
        for good in ("r1", "tenant-a.42", "A_b-c.d"):
            assert registry.run_dir(good).name == good


class TestExecute:
    def test_complete_run_writes_artifacts(self, registry):
        result = registry.execute("r1", PARAMS)
        assert result["complete"] is True
        assert result["state"] == "complete"
        assert len(result["digest"]) == 64
        rdir = registry.run_dir("r1")
        assert (rdir / RUN_CONFIG_NAME).is_file()
        assert (rdir / "journal.kpbj").is_file()
        assert (rdir / "result.json").is_file()

    def test_resubmit_returns_cached_result(self, registry):
        first = registry.execute("r1", PARAMS)
        again = registry.execute("r1", {"seed": 999})  # params ignored
        assert again["cached"] is True
        assert again["digest"] == first["digest"]

    def test_unknown_param_rejected_with_valid_keys(self, registry):
        with pytest.raises(ConfigError, match="valid keys"):
            registry.execute("r1", {"bogus": 1})

    def test_bad_sizes_rejected(self, registry):
        with pytest.raises(ConfigError, match="n1"):
            registry.execute("r1", {**PARAMS, "n1": 0})

    def test_overflowing_size_rejected(self, registry):
        # JSON's 1e400 decodes to inf, which int() cannot take.
        with pytest.raises(ConfigError, match="bad transfer parameter"):
            registry.execute("r1", {**PARAMS, "n1": float("inf")})

    @pytest.mark.parametrize(
        "bad, match",
        [
            ({"engine": "bogus"}, "valid engines: 'fast', 'vector'"),
            ({"engine": "resume"}, "valid engines"),
            ({"method": "nope"}, "valid methods: ggp, oggp"),
        ],
        ids=["engine", "resume", "method"],
    )
    def test_unknown_engine_or_method_rejected_before_run_json(
        self, registry, bad, match
    ):
        with pytest.raises(ConfigError, match=match):
            registry.execute("a", {**PARAMS, **bad})
        # Nothing recorded, so nothing for a later start to resume.
        assert not (registry.run_dir("a") / RUN_CONFIG_NAME).exists()
        assert registry.incomplete_runs() == []

    def test_status_lifecycle(self, registry):
        assert registry.status("r1")["state"] == "unknown"
        registry.execute("r1", PARAMS)
        assert registry.status("r1")["state"] == "complete"


class TestCrashRecovery:
    def config_only_run(self, registry, run_id, **overrides):
        """Simulate a daemon killed after admission, before any byte."""
        rdir = registry.run_dir(run_id)
        rdir.mkdir(parents=True)
        config = {
            "seed": 5, "n1": 2, "n2": 2, "payload_kb": 4.0, "k": 3,
            "beta": 0.0, "method": "oggp", "engine": "fast",
            "nic_mbit": 1000.0, "backbone_mbit": 1000.0,
            "faults": None, "retries": None, **overrides,
        }
        (rdir / RUN_CONFIG_NAME).write_text(json.dumps(config))

    def test_unrunnable_stored_configs_fail_and_the_rest_resume(
        self, tmp_path
    ):
        from repro import obs

        reference = RunRegistry(tmp_path / "ref").execute("r", PARAMS)
        registry = RunRegistry(tmp_path / "state")
        # Stored by an older version that accepted these names; they
        # sort before the valid crashed run.
        self.config_only_run(registry, "a", engine="bogus")
        self.config_only_run(registry, "b", method="nope")
        # Not a config at all: no keys, or no JSON.
        for run_id, text in (("b-empty", "{}"), ("b-text", "not json")):
            registry.run_dir(run_id).mkdir(parents=True)
            (registry.run_dir(run_id) / RUN_CONFIG_NAME).write_text(text)
        self.config_only_run(registry, "c-good")
        with obs.observed() as (_registry, _tracer):
            results = registry.resume_incomplete()
            errors = [
                e.fields for e in obs.events().tail()
                if e.kind == "server.error"
            ]
        by_id = {r["run_id"]: r for r in results}
        failed = ["a", "b", "b-empty", "b-text"]
        assert sorted(by_id) == [*failed, "c-good"]
        for run_id, match in (
            ("a", "'bogus'"), ("b", "'nope'"), ("b-empty", "lacks seed"),
            ("b-text", "not valid JSON"),
        ):
            assert by_id[run_id]["state"] == "failed"
            assert match in by_id[run_id]["error"]
            assert registry.status(run_id)["state"] == "failed"
        assert by_id["c-good"]["complete"] is True
        assert by_id["c-good"]["digest"] == reference["digest"]
        assert [e["run_id"] for e in errors] == failed
        # Every run now has a result: the next start resumes nothing.
        assert registry.incomplete_runs() == []

    def test_unreadable_journal_fails_and_the_rest_resume(self, registry):
        self.config_only_run(registry, "a")
        (registry.run_dir("a") / "journal.kpbj").write_bytes(b"garbage" * 9)
        self.config_only_run(registry, "b-good")
        results = registry.resume_incomplete()
        assert [r["state"] for r in results] == ["failed", "complete"]
        assert "metadata" in results[0]["error"]
        assert registry.incomplete_runs() == []

    def test_stored_resume_engine_fails_cleanly(self, registry):
        # 'resume' was a valid peel engine once; its stored runs must
        # end failed, not crash every later daemon start.
        self.config_only_run(registry, "old", engine="resume")
        (result,) = registry.resume_incomplete()
        assert result["state"] == "failed"
        assert "valid engines" in result["error"]
        assert registry.execute("old", {})["state"] == "failed"

    def test_incomplete_runs_listed(self, registry):
        registry.execute("done", PARAMS)
        self.config_only_run(registry, "crashed")
        assert registry.incomplete_runs() == ["crashed"]

    def test_resume_incomplete_is_bit_identical(self, tmp_path):
        reference = RunRegistry(tmp_path / "ref").execute("r", PARAMS)
        registry = RunRegistry(tmp_path / "state")
        self.config_only_run(registry, "crashed")
        results = registry.resume_incomplete()
        assert len(results) == 1
        assert results[0]["complete"] is True
        # Payloads regenerate from the recorded seed: same digest as an
        # uninterrupted run of the same parameters.
        assert results[0]["digest"] == reference["digest"]

    def test_duplicate_in_process_submission_refused(self, registry):
        # Simulate an in-flight run by occupying the active set.
        registry._active.add("busy")
        with pytest.raises(RunActiveError, match="busy"):
            registry.execute("busy", PARAMS)
