"""The machine-readable benchmark emitter (benchmarks/perf_snapshot.py)."""

import json

from benchmarks.perf_snapshot import (
    ALGORITHMS,
    COUNTER_COLUMNS,
    main,
    snapshot_rows,
)


class TestPerfSnapshot:
    def test_rows_cover_algorithm_grid(self):
        rows = snapshot_rows(sizes=(4,), repeats=1)
        assert {r["algorithm"] for r in rows} == set(ALGORITHMS)
        for row in rows:
            assert row["wall_time_mean_s"] > 0
            assert row["evaluation_ratio_mean"] >= 1.0

    def test_main_writes_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_algorithms.json"
        assert main(["--sizes", "4", "--repeats", "1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["benchmark"] == "algorithms"
        assert len(doc["rows"]) == len(ALGORITHMS)

    def test_rows_carry_exact_work_counters(self):
        rows = {
            (r["algorithm"], r["engine"]): r
            for r in snapshot_rows(sizes=(6,), repeats=2)
        }
        for row in rows.values():
            assert set(COUNTER_COLUMNS) <= set(row)
            assert row["steps"] >= 1 and row["transfers"] >= row["steps"]
        oggp, ggp = rows["oggp", "fast"], rows["ggp", "fast"]
        assert oggp["bottleneck_threshold_probes"] >= oggp["wrgp_peels"] > 0
        assert oggp["hk_bfs_phases"] > 0 and oggp["hungarian_calls"] == 0
        assert ggp["hungarian_calls"] == ggp["wrgp_peels"] > 0
        assert ggp["bottleneck_threshold_probes"] == 0
