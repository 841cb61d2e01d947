"""BENCH_trajectory.json records each measured change's before/after
numbers from the benchmark that BENCHMARK.json declares.  Check that it
parses and names only workloads and metrics that benchmark has."""

import json
import math
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
METRICS = {m["name"] for m in BENCHMARK["end_to_end"]}


def test_trajectory_names_only_benchmark_workloads_and_metrics():
    trajectory = json.loads((ROOT / "BENCH_trajectory.json").read_text())
    assert trajectory["entries"]
    for entry in trajectory["entries"]:
        for key in ("parent_commit", "change_commit"):
            assert re.fullmatch(r"[0-9a-f]{40}", entry[key]), key
        assert entry["host"] and entry["command"]
        assert entry["workloads"]
        for workload, row in entry["workloads"].items():
            assert workload in WORKLOADS
            assert row["pairs"] == len(row["bench_seeds"]) >= 1
            assert row["failed"] == 0
            assert row["metrics"]
            for metric, sides in row["metrics"].items():
                assert metric in METRICS
                for side in ("parent", "change"):
                    stats = sides[side]
                    assert math.isfinite(stats["median"]) and stats["median"] >= 0
                    assert math.isfinite(stats["iqr"]) and stats["iqr"] >= 0
                assert 0 <= sides["change_wins"] <= row["pairs"]
