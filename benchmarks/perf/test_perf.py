"""Tests of the benchmark harness itself.

Tier-1 collects only ``tests/``, so run these explicitly::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import compare
import pytest
import run
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def declared(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


def run_benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/perf/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300, check=False)


def test_benchmark_json_declares_the_workloads_and_metrics():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(run.WORKLOAD_NAMES)
    names = [metric["name"] for section in ("workloads", "end_to_end",
                                            "per_layer")
             for metric in BENCHMARK[section]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert all(0 < metric["bound"] <= 0.25 for metric in BENCHMARK["end_to_end"])
    assert declared("end_to_end")["setup_s"] == "s"


def _fake_pass() -> run.PassResult:
    return run.PassResult(busy_s=2.0, latencies_s=[0.5, 1.0, 1.5],
                          kernel_s=[0.0025] * 3, units=30)


def test_end_to_end_metric_names_and_units_match_the_declaration():
    metrics = run.end_to_end([_fake_pass()], setup_s=0.3)
    assert {name: unit for name, (_, unit) in metrics.items()} == \
        declared("end_to_end")


def test_per_layer_metric_names_and_units_match_the_declaration():
    layered = {"untraced": [_fake_pass()], "traced": [_fake_pass()],
               "recorder": spans.SpanRecorder()}
    metrics = run.per_layer(layered, generate_s=0.01)
    assert {name: unit for name, (_, unit) in metrics.items()} == \
        declared("per_layer")


def test_span_self_time_excludes_child_spans():
    recorder = spans.SpanRecorder()
    recorder.enter("outer")
    recorder.enter("inner")
    recorder.exit()
    recorder.exit()
    assert recorder.calls == {"outer": 1, "inner": 1}
    assert recorder.nested[("outer", "inner")] == 1
    assert 0 <= recorder.self_s["outer"] < sum(recorder.self_s.values())


PARENT = [100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.9, 100.3, 100.4]


def verdict(change: list[float], better: str = "lower") -> str:
    return compare.compare_metric(PARENT, change, better, 0.05)["verdict"]


def test_compare_claims_a_gain_on_nine_wins_of_ten():
    change = [value - 5.0 for value in PARENT]
    change[3] = 110.0
    assert verdict(change) == "gain"


def test_compare_claims_no_gain_from_fewer_than_ten_pairs():
    change = [value - 5.0 for value in PARENT[:5]]
    result = compare.compare_metric(PARENT[:5], change, "lower", 0.05)
    assert result["wins"] == 5
    assert result["verdict"] == "ok"


def test_compare_claims_no_gain_on_ties():
    assert verdict(list(PARENT)) == "ok"
    assert verdict(list(PARENT), "higher") == "ok"


def test_compare_reports_a_wide_spread_as_unresolved():
    noisy = [60.0, 140.0] * 5
    assert verdict(noisy) == "unresolved"


def test_compare_flags_a_regression_beyond_the_bound():
    slower = [value * 1.2 for value in PARENT]
    assert verdict(slower) == "regressed"
    assert verdict(slower, "higher") == "gain"


def write_runs(directory: Path, side: str, outcomes: dict) -> None:
    metrics = {metric["name"]: {"value": 1.0, "unit": metric["unit"]}
               for metric in BENCHMARK["end_to_end"]}
    for pair in range(2):
        path = directory / side / str(pair) / "solo.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"correct": True, "metrics": metrics,
                                    "outcomes": outcomes}))


def test_compare_fails_when_the_outcomes_change(tmp_path):
    write_runs(tmp_path / "same", "parent", {"sim_makespan_s": 10.0})
    write_runs(tmp_path / "same", "change", {"sim_makespan_s": 10.0})
    assert compare.report(tmp_path / "same") == 0
    write_runs(tmp_path / "moved", "parent", {"sim_makespan_s": 10.0})
    write_runs(tmp_path / "moved", "change", {"sim_makespan_s": 9.0})
    assert compare.report(tmp_path / "moved") == 1


@pytest.mark.parametrize("workload", ["solo", "churn"])
def test_traced_smoke_run(workload, tmp_path):
    completed = run_benchmark("--workload", workload, "--seconds", "0",
                              "--trace", "1", "--out", str(tmp_path))
    assert completed.returncode == 0, completed.stdout + completed.stderr
    line = json.loads(completed.stdout.splitlines()[-1])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    metrics = {name: value["value"] for name, value in line["metrics"].items()}
    assert set(metrics) == set(declared("per_layer"))
    assert metrics["other.self_frac"] <= 0.05
    assert (tmp_path / f"{workload}-spans.json").is_file()


def test_untraced_smoke_run(tmp_path):
    completed = run_benchmark("--workload", "solo", "--seconds", "0",
                              "--out", str(tmp_path))
    assert completed.returncode == 0, completed.stdout + completed.stderr
    line = json.loads(completed.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(declared("end_to_end"))
    assert all(value["value"] > 0 for value in line["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    completed = run_benchmark("--workload", "solo", "--seconds", "1",
                              cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_benchmark_files_pass_the_repo_linters():
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "benchmarks/perf"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    assert completed.returncode == 0, completed.stdout
    ruff = shutil.which("ruff")
    if ruff is None:
        pytest.skip("ruff is not installed")
    completed = subprocess.run([ruff, "check", "benchmarks"], cwd=ROOT,
                               capture_output=True, text=True, check=False)
    assert completed.returncode == 0, completed.stdout
