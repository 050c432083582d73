"""Tests for the kpbs CLI."""

import json

import numpy as np
import pytest

from repro.cli.main import build_parser, main
from repro.core.schedule import Schedule


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nope"])


class TestExperimentsCommand:
    def test_lists_figures(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for name in ("fig7", "fig8", "fig9", "fig10", "fig11"):
            assert name in out


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "GGP" in out and "OGGP" in out
        assert "lower bound 10" in out


class TestSchedule:
    def test_json_matrix(self, tmp_path, capsys):
        matrix = [[10.0, 0.0], [5.0, 20.0]]
        src = tmp_path / "m.json"
        src.write_text(json.dumps(matrix))
        out_path = tmp_path / "schedule.json"
        code = main([
            "schedule", "--input", str(src), "--k", "2", "--beta", "1",
            "--algorithm", "oggp", "--output", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "evaluation ratio" in out
        restored = Schedule.from_json(out_path.read_text())
        assert restored.k == 2

    def test_csv_matrix(self, tmp_path, capsys):
        src = tmp_path / "m.csv"
        np.savetxt(src, np.array([[4.0, 2.0], [0.0, 3.0]]), delimiter=",")
        assert main(["schedule", "--input", str(src), "--k", "1"]) == 0
        assert "Schedule" in capsys.readouterr().out

    def test_unknown_format_fails_cleanly(self, tmp_path, capsys):
        src = tmp_path / "m.txt"
        src.write_text("1 2")
        assert main(["schedule", "--input", str(src), "--k", "1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_removed_resume_engine_exits_2(self, tmp_path, capsys):
        src = tmp_path / "m.json"
        src.write_text(json.dumps([[10.0, 0.0], [5.0, 20.0]]))
        with pytest.raises(SystemExit) as exc:
            main(["schedule", "--input", str(src), "--k", "1",
                  "--engine", "resume"])
        assert exc.value.code == 2
        assert "invalid choice: 'resume'" in capsys.readouterr().err


class TestRun:
    def test_fig7_quick_with_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "fig7.csv"
        code = main(["run", "fig7", "--draws", "5", "--csv", str(out_csv)])
        assert code == 0
        assert out_csv.exists()
        out = capsys.readouterr().out
        assert "fig7" in out

    def test_ablation_steps(self, capsys):
        assert main(["run", "ablation_steps"]) == 0
        assert "oggp" in capsys.readouterr().out


class TestRunExtensions:
    def test_heterogeneity(self, capsys):
        assert main(["run", "heterogeneity"]) == 0
        out = capsys.readouterr().out
        assert "oggp+cap" in out

    def test_scalability(self, capsys):
        assert main(["run", "scalability"]) == 0
        assert "log-log slope" in capsys.readouterr().out


class TestReport:
    def test_single_experiment_to_file(self, tmp_path, capsys):
        out_md = tmp_path / "report.md"
        assert main(["report", "ablation_steps", "--out", str(out_md)]) == 0
        text = out_md.read_text()
        assert text.startswith("# K-PBS reproduction report")
        assert "ablation_steps" in text
        assert "| metric |" in text

    def test_stdout_when_no_out(self, capsys):
        assert main(["report", "ablation_steps"]) == 0
        assert "ablation_steps" in capsys.readouterr().out


class TestVerify:
    def test_valid_schedule_passes(self, tmp_path, capsys):
        matrix = [[10.0, 0.0], [5.0, 20.0]]
        m = tmp_path / "m.json"
        m.write_text(json.dumps(matrix))
        s = tmp_path / "s.json"
        main(["schedule", "--input", str(m), "--k", "2", "--beta", "1",
              "--output", str(s)])
        capsys.readouterr()
        assert main(["verify", "--matrix", str(m), "--schedule", str(s)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_broken_schedule_fails_with_details(self, tmp_path, capsys):
        matrix = [[10.0, 0.0], [5.0, 20.0]]
        m = tmp_path / "m.json"
        m.write_text(json.dumps(matrix))
        s = tmp_path / "s.json"
        main(["schedule", "--input", str(m), "--k", "2", "--beta", "1",
              "--output", str(s)])
        capsys.readouterr()
        data = json.loads(s.read_text())
        del data["steps"][0]  # drop a step -> under-delivery
        s.write_text(json.dumps(data))
        assert main(["verify", "--matrix", str(m), "--schedule", str(s)]) == 1
        out = capsys.readouterr().out
        assert "under_delivered" in out


class TestSimulate:
    def test_small_simulation(self, capsys):
        code = main(["simulate", "--k", "3", "--max-mb", "11", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "bruteforce" in out and "oggp" in out and "gain" in out


class TestResilienceFlags:
    def test_simulate_with_faults_recovers(self, capsys):
        code = main([
            "simulate", "--k", "3", "--max-mb", "11", "--seed", "1",
            "--faults", "seed=2,transfer=0.3,degrade=0.2", "--retries", "8",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "recovered in" in out
        assert "oggp" in out

    def test_simulate_fault_free_spec_prints_no_recovery(self, capsys):
        code = main([
            "simulate", "--k", "3", "--max-mb", "11", "--seed", "1",
            "--faults", "seed=2,transfer=0,stall=0",
        ])
        assert code == 0
        assert "recovered in" not in capsys.readouterr().out

    def test_bad_faults_spec_fails_cleanly(self, capsys):
        code = main([
            "simulate", "--k", "3", "--max-mb", "11",
            "--faults", "bogus=1",
        ])
        assert code == 2
        assert "bad --faults entry" in capsys.readouterr().err

    def test_run_recovery_overhead(self, capsys):
        code = main(["run", "recovery_overhead", "--retries", "6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "overhead %" in out
        assert "recovery rounds" in out

    def test_run_rejects_flags_the_experiment_cannot_take(self, capsys):
        code = main(["run", "fig7", "--faults", "0.2"])
        assert code == 2
        assert "does not support --faults" in capsys.readouterr().err

    def test_parser_accepts_task_timeout(self):
        args = build_parser().parse_args([
            "simulate", "--task-timeout", "30", "--retries", "2",
        ])
        assert args.task_timeout == 30.0
        # --retries is a spec string (bare counts stay valid).
        assert args.retries == "2"

    def test_retries_spec_reaches_the_policy(self):
        from repro.cli.main import _parse_retry

        policy = _parse_retry("attempts=5,max-elapsed=30", 12.0)
        assert policy.max_attempts == 5
        assert policy.max_elapsed == 30.0
        assert policy.task_timeout == 12.0
        # Historical integer form (old run.json files store ints).
        assert _parse_retry(4, None).max_attempts == 4


class TestObservabilityFlags:
    def _matrix(self, tmp_path):
        src = tmp_path / "m.json"
        src.write_text(json.dumps([[10.0, 0.0], [5.0, 20.0]]))
        return src

    def test_schedule_profile_and_trace(self, tmp_path, capsys):
        profile = tmp_path / "p.json"
        trace = tmp_path / "t.trace.json"
        code = main([
            "schedule", "--input", str(self._matrix(tmp_path)), "--k", "2",
            "--beta", "1", "--profile", str(profile), "--trace", str(trace),
        ])
        assert code == 0
        snapshot = json.loads(profile.read_text())
        assert snapshot["ggp.calls"]["value"] == 1
        assert any(name.startswith("matching.") for name in snapshot)
        assert snapshot["schedule.evaluation_ratio"]["value"] >= 1.0
        events = json.loads(trace.read_text())["traceEvents"]
        assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(events[0])
        assert any(e["name"] == "ggp.regularize" for e in events)

    def test_schedule_output_json_carries_quality_keys(self, tmp_path, capsys):
        out_path = tmp_path / "s.json"
        main(["schedule", "--input", str(self._matrix(tmp_path)), "--k", "2",
              "--beta", "1", "--output", str(out_path)])
        doc = json.loads(out_path.read_text())
        assert doc["evaluation_ratio"] == doc["cost"] / doc["lower_bound"]
        Schedule.from_dict(doc)  # extra keys don't break deserialisation

    def test_simulate_profile_has_netsim_metrics(self, tmp_path, capsys):
        profile = tmp_path / "p.json"
        code = main(["simulate", "--k", "3", "--max-mb", "11", "--seed", "1",
                     "--profile", str(profile)])
        assert code == 0
        snapshot = json.loads(profile.read_text())
        assert "netsim.step_duration" in snapshot
        assert snapshot["netsim.backbone_utilization"]["count"] > 0

    def test_observability_off_after_run(self, tmp_path, capsys):
        from repro import obs

        main(["schedule", "--input", str(self._matrix(tmp_path)), "--k", "2",
              "--profile", str(tmp_path / "p.json")])
        assert not obs.enabled()


class TestStats:
    def test_stats_renders_profile_and_trace(self, tmp_path, capsys):
        matrix = tmp_path / "m.json"
        matrix.write_text(json.dumps([[10.0, 0.0], [5.0, 20.0]]))
        profile = tmp_path / "p.json"
        trace = tmp_path / "t.trace.json"
        main(["schedule", "--input", str(matrix), "--k", "2",
              "--profile", str(profile), "--trace", str(trace)])
        capsys.readouterr()
        code = main(["stats", str(profile), "--trace", str(trace)])
        assert code == 0
        out = capsys.readouterr().out
        assert "ggp.calls" in out
        assert "metric" in out and "type" in out
        assert "ggp.regularize" in out  # flame summary frame

    def test_stats_without_inputs_fails_cleanly(self, capsys):
        assert main(["stats"]) == 2
        assert "error" in capsys.readouterr().err

    def test_stats_rejects_wrong_file_type(self, tmp_path, capsys):
        trace = tmp_path / "t.trace.json"
        trace.write_text(json.dumps({"traceEvents": []}))
        assert main(["stats", str(trace)]) == 2  # trace passed as profile
        assert "not a metrics snapshot" in capsys.readouterr().err

    def test_stats_missing_file_fails_cleanly(self, capsys):
        assert main(["stats", "nope.json"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_stats_reads_live_endpoint(self, capsys):
        from repro import obs
        from repro.obs.server import MetricsServer

        with obs.observed() as (reg, _):
            reg.counter("live.counter").inc(4)
            with MetricsServer(port=0) as server:
                assert main(["stats", server.url]) == 0
        out = capsys.readouterr().out
        assert "live.counter" in out

    def test_stats_unreachable_endpoint_fails_cleanly(self, capsys):
        assert main(["stats", "http://127.0.0.1:9/"]) == 2
        assert "cannot reach" in capsys.readouterr().err

    def test_stats_diff_prints_deltas(self, tmp_path, capsys):
        before = tmp_path / "a.json"
        after = tmp_path / "b.json"
        before.write_text(json.dumps({
            "c": {"type": "counter", "value": 1},
            "t": {"type": "timer", "elapsed": 1.0, "laps": 2},
        }))
        after.write_text(json.dumps({
            "c": {"type": "counter", "value": 5},
            "t": {"type": "timer", "elapsed": 3.5, "laps": 6},
            "h": {"type": "histogram", "count": 2, "total": 7.0},
        }))
        assert main(["stats", "--diff", str(before), str(after)]) == 0
        out = capsys.readouterr().out
        assert "delta" in out
        lines = {l.split()[0]: l for l in out.splitlines() if l and l[0] != "-"}
        assert "4" in lines["c"]
        assert "2.5" in lines["t"]
        assert "h" in lines

    def test_stats_diff_identical_snapshots(self, tmp_path, capsys):
        snap = tmp_path / "s.json"
        snap.write_text(json.dumps({"c": {"type": "counter", "value": 3}}))
        assert main(["stats", "--diff", str(snap), str(snap)]) == 0
        assert "no differences" in capsys.readouterr().out


class TestMetricsPortFlag:
    def test_run_serves_metrics_and_stops_after(self, capsys):
        import re
        import urllib.error
        import urllib.request

        # A tiny run; the server must be live during, gone after.
        assert main([
            "schedule", "--input", "/dev/null", "--k", "1",
            "--metrics-port", "0",
        ]) == 2  # /dev/null is not a matrix — but the server line printed
        out = capsys.readouterr().out
        match = re.search(r"serving metrics on (http://\S+)", out)
        assert match, out
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(match.group(1) + "/healthz", timeout=2)

    def test_demo_with_metrics_port_and_events(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        assert main([
            "demo", "--metrics-port", "0", "--events", str(events_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "serving metrics on http://" in out
        assert f"wrote {events_path}" in out
        assert events_path.exists()


class TestTop:
    def test_top_renders_live_endpoint(self, capsys):
        from repro import obs
        from repro.obs.server import MetricsServer

        with obs.observed() as (reg, _):
            reg.counter("schedule_cache.hits").inc(2)
            reg.counter("schedule_cache.misses").inc(2)
            obs.emit("run.start", k=3, method="oggp")
            with MetricsServer(port=0) as server:
                code = main([
                    "top", server.url, "--interval", "0.05",
                    "--iterations", "2", "--no-clear",
                ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("kpbs top") == 2  # two frames, no ANSI clear
        assert "cache hit rate: 50.0%" in out
        assert "run.start" in out
        assert "/s" in out  # second frame switches to a rate

    def test_top_unreachable_endpoint_fails_cleanly(self, capsys):
        assert main(["top", "http://127.0.0.1:9/", "--iterations", "1"]) == 2
        assert "cannot reach" in capsys.readouterr().err

    def test_top_rejects_bad_interval(self, capsys):
        assert main([
            "top", "http://127.0.0.1:9/", "--interval", "0",
        ]) == 2
        assert "interval" in capsys.readouterr().err


class TestTransfer:
    FAST = ["--nic-mbit", "100000", "--backbone-mbit", "100000",
            "--payload-kb", "16", "--n1", "2", "--n2", "2", "--k", "2"]

    def digest(self, out):
        for line in out.splitlines():
            if line.startswith("digest:"):
                return line.split()[-1]
        raise AssertionError(f"no digest line in {out!r}")

    def test_transfer_without_checkpoint(self, capsys):
        assert main(["transfer", "--seed", "3", *self.FAST]) == 0
        out = capsys.readouterr().out
        assert "complete:  True" in out
        assert len(self.digest(out)) == 64

    def test_transfer_writes_resumable_checkpoint(self, tmp_path, capsys):
        from repro.resilience import load_checkpoint

        ckdir = tmp_path / "ck"
        assert main(["transfer", "--seed", "3", "--checkpoint-dir",
                     str(ckdir), *self.FAST]) == 0
        capsys.readouterr()
        assert (ckdir / "run.json").is_file()
        state = load_checkpoint(ckdir)
        assert state.complete
        config = json.loads((ckdir / "run.json").read_text())
        assert config["seed"] == 3

    def test_digest_is_deterministic(self, capsys):
        main(["transfer", "--seed", "3", *self.FAST])
        first = self.digest(capsys.readouterr().out)
        main(["transfer", "--seed", "3", *self.FAST])
        assert self.digest(capsys.readouterr().out) == first
        main(["transfer", "--seed", "4", *self.FAST])
        assert self.digest(capsys.readouterr().out) != first


class TestResume:
    FAST = TestTransfer.FAST
    FAULTS = ["--faults", "seed=9,transfer=0.35"]

    def test_resume_completes_partial_run(self, tmp_path, capsys):
        ckdir = str(tmp_path / "ck")
        # Uninterrupted reference digest.
        assert main(["transfer", "--seed", "5", *self.FAST, *self.FAULTS,
                     "--retries", "8"]) == 0
        reference = TestTransfer.digest(self, capsys.readouterr().out)
        # "Crashed" run: retry budget starved, checkpoint left behind.
        code = main(["transfer", "--seed", "5", "--checkpoint-dir", ckdir,
                     *self.FAST, *self.FAULTS, "--retries", "1"])
        partial_out = capsys.readouterr().out
        assert code == 1
        assert "complete:  False" in partial_out
        # Resume re-reads faults/retries from run.json (overridable).
        assert main(["resume", "--checkpoint-dir", ckdir,
                     "--retries", "8"]) == 0
        out = capsys.readouterr().out
        assert "complete:  True" in out
        assert TestTransfer.digest(self, out) == reference

    def test_resume_without_run_config_fails_cleanly(self, tmp_path, capsys):
        assert main(["resume", "--checkpoint-dir", str(tmp_path)]) == 2
        assert "run.json" in capsys.readouterr().err

    @pytest.mark.parametrize("retries", ["1", "8"], ids=["partial", "complete"])
    def test_stored_resume_engine_fails_cleanly(self, tmp_path, capsys, retries):
        # A run recorded while 'resume' was still a peel engine: resuming
        # it must end in a clean error, whether or not work is left.
        ckdir = tmp_path / "ck"
        main(["transfer", "--seed", "5", "--checkpoint-dir", str(ckdir),
              *self.FAST, *self.FAULTS, "--retries", retries])
        capsys.readouterr()
        config = json.loads((ckdir / "run.json").read_text())
        config["engine"] = "resume"
        (ckdir / "run.json").write_text(json.dumps(config))
        journal = (ckdir / "journal.kpbj").read_bytes()
        assert main(["resume", "--checkpoint-dir", str(ckdir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "valid engines" in err
        assert (ckdir / "journal.kpbj").read_bytes() == journal


class TestWatch:
    FAST = ["--n1", "6", "--n2", "6", "--k", "2", "--max-mb", "8"]
    CHURN = ["--churn", "seed=11,inject=1,remove=1,resize=1,events=2"]
    FAULTS = ["--faults", "seed=9,transfer=0.35"]

    def digest(self, out):
        return next(
            line.split()[-1]
            for line in out.splitlines()
            if line.startswith("digest:")
        )

    def test_watch_completes(self, capsys):
        assert main(["watch", "--seed", "7", *self.FAST, *self.CHURN]) == 0
        out = capsys.readouterr().out
        assert "complete:  True" in out
        assert "churn:" in out and "splices:" in out and "verified:" in out
        assert "round " in out  # per-round lines unless --quiet

    def test_quiet_suppresses_round_lines(self, capsys):
        assert main(
            ["watch", "--seed", "7", "--quiet", *self.FAST, *self.CHURN]
        ) == 0
        assert "round " not in capsys.readouterr().out

    def test_digest_is_deterministic(self, capsys):
        main(["watch", "--seed", "7", *self.FAST, *self.CHURN])
        first = self.digest(capsys.readouterr().out)
        main(["watch", "--seed", "7", *self.FAST, *self.CHURN])
        assert self.digest(capsys.readouterr().out) == first
        main(["watch", "--seed", "8", *self.FAST, *self.CHURN])
        assert self.digest(capsys.readouterr().out) != first

    def test_bad_churn_spec_fails_cleanly(self, capsys):
        assert main(["watch", "--churn", "bogus=1", *self.FAST]) == 2
        assert "churn" in capsys.readouterr().err

    def test_retries_spec_accepted(self, capsys):
        assert main(
            ["watch", "--seed", "7", *self.FAST, *self.CHURN,
             "--retries", "attempts=4,max-elapsed=60"]
        ) == 0
        capsys.readouterr()

    def test_bad_retries_spec_fails_cleanly(self, capsys):
        assert main(
            ["watch", *self.FAST, "--retries", "bogus=1"]
        ) == 2
        assert "retries" in capsys.readouterr().err

    def test_bad_repair_bounds_fail_cleanly(self, capsys):
        # Rejected even when the churn draw never triggers a repair.
        quiet = ["--churn", "seed=1,events=1"]
        assert main(
            ["watch", *self.FAST, *quiet, "--max-affected", "1.5"]
        ) == 2
        assert "max_affected_frac" in capsys.readouterr().err
        assert main(
            ["watch", *self.FAST, *quiet, "--max-ratio", "0.5"]
        ) == 2
        assert "max_ratio" in capsys.readouterr().err

    def test_resume_dispatches_to_watch(self, tmp_path, capsys):
        ckdir = str(tmp_path / "ck")
        # Uninterrupted reference digest.
        assert main(
            ["watch", "--seed", "5", *self.FAST, *self.CHURN, *self.FAULTS,
             "--retries", "50"]
        ) == 0
        reference = self.digest(capsys.readouterr().out)
        # "Crashed" run: retry budget starved, checkpoint left behind.
        code = main(
            ["watch", "--seed", "5", "--checkpoint-dir", ckdir,
             *self.FAST, *self.CHURN, *self.FAULTS, "--retries", "1"]
        )
        partial = capsys.readouterr().out
        if code == 0:  # fault draw never hit a transfer; nothing to resume
            assert self.digest(partial) == reference
            return
        assert "complete:  False" in partial
        # Resume re-reads churn/faults/retries from run.json (overridable).
        assert main(
            ["resume", "--checkpoint-dir", ckdir, "--retries", "50"]
        ) == 0
        out = capsys.readouterr().out
        assert "complete:  True" in out
        assert self.digest(out) == reference
