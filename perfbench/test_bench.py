"""Self-check of the benchmark harness: ``python3 -m pytest perfbench -q``.

Runs every workload once at reduced size, traced and untraced, and checks
the result line against ``BENCHMARK.json``; checks the span arithmetic on a
hand-made trace and the launcher's accounting of its speed-sample pauses;
and checks that the harness refuses to run without sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--fast")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in listed
    }
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["cli.bytes_written"]["value"] > 0
        assert 0 < result["metrics"]["trace.uncovered_share"]["value"] < 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = _bench("--workload", "exact", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_launcher_leaves_speed_sample_pauses_out(tmp_path):
    affinity = os.sched_getaffinity(0)
    try:
        launcher = run.Launcher(tmp_path, time.perf_counter() + 60)
        fin = launcher.run(run.Command(["-c", "for i in range(4_000_000): pass"]))
    finally:
        os.sched_setaffinity(0, affinity)
    assert fin.code == 0
    assert fin.wall_s > 2 * run.SLICE_S  # so the command was paused for samples
    assert fin.wall_s < fin.end - fin.start
    assert fin.scaled_s > 0


def test_self_time_subtracts_union_of_children():
    spans = [
        ["cli", 0.0, 10.0, -1, 0],
        ["replication.run_replicas", 1.0, 9.0, 0, 0],
        ["walk_engine.simulate", 2.0, 6.0, 1, 1],   # two workers overlapping
        ["walk_engine.simulate", 4.0, 8.0, 1, 1],
    ]
    times = run.layer_times(spans)
    assert times["cli.self_s"] == pytest.approx(2.0)
    assert times["replication.run_replicas.s"] == pytest.approx(8.0)
    assert times["replication.run_replicas.self_s"] == pytest.approx(2.0)
    assert times["walk_engine.simulate.self_s"] == pytest.approx(8.0)
    assert run.union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 5.0)], 0.0, 4.0) == pytest.approx(3.0)


def test_margin_is_worst_value_over_threshold():
    class Report:
        def __init__(self, value, threshold):
            self.value, self.threshold = value, threshold

    assert tracer.criterion_margin([Report(0.5, 2.0), Report(0.0, 0.0), Report(1.0, float("inf"))]) == 0.25
    assert tracer.criterion_margin([Report(1e-12, 0.0)]) == float("inf")
