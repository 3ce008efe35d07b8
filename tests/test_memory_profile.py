"""Smoke test of ``benchmarks/memory_profile.py``: one traced ``churn``
pass prints every section and exits 0, and a failed workload check or a
call that leaves a reference cycle makes the report fail."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "benchmarks" / "memory_profile.py"


def _tool():
    spec = importlib.util.spec_from_file_location("memory_profile", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Allocating:
    """A workload (``benchmarks/perf/workloads.py``'s interface) of three
    calls that each keep a list alive in the pass's closure; the last
    call's outcome fails its check when ``fail`` is set."""

    name = "allocating"
    warmup_calls = 1

    def __init__(self, fail: bool):
        self.fail = fail

    def setup(self, seed: int):
        return seed

    def calls(self, inputs):
        kept = []

        def call():
            kept.append(list(range(10_000)))
            return len(kept)

        for _ in range(3):
            yield call

    def inspect(self, raw):
        problems = ["wrong answer"] if self.fail and raw == 3 else []
        return SimpleNamespace(attempted=1, failed=len(problems),
                               digest=(raw,), problems=problems)

    def cross_check(self, inputs, digests):
        return []


class _Node:
    def __init__(self):
        self.peer = self


class _Cyclic(_Allocating):
    """Each call drops a self-referencing :class:`_Node`."""

    def calls(self, inputs):
        def call():
            _Node()
            return 1

        for _ in range(3):
            yield call


def test_a_pass_reports_retained_memory_and_collections():
    text, problems = _tool().report(_Allocating(fail=False), 0,
                                    ROOT / "src")
    assert problems == []
    assert "3 calls" in text
    retained = float(re.search(r"retained ([\d.]+)", text).group(1))
    # Three lists of 10,000 ints are alive after the last call.
    assert retained > 0.2
    assert re.search(r"untraced pass: [\d.]+ s; collections: gen0 \d+, "
                     r"gen1 \d+, gen2 \d+; collector [\d.]+ s "
                     r"\([\d.]+%\)", text)
    assert re.search(r"collections: gen0 \d+, gen1 \d+, gen2 \d+; "
                     r"collector [\d.]+ s", text)
    assert "left for the collector by one call: 0 objects\n" in text
    assert "checks: ok, 0 of 3 failed" in text


def test_a_call_that_leaves_a_cycle_fails_the_report():
    text, problems = _tool().report(_Cyclic(fail=False), 0, ROOT / "src")
    found = int(re.search(r"left for the collector by one call: (\d+) "
                          r"objects \((.*)\)", text).group(1))
    assert found >= 1
    assert "_Node 1" in text
    assert problems == [f"one call leaves {found} objects for the cyclic "
                        "collector"]
    assert "checks: FAILED, 0 of 3 failed" in text


def test_a_failed_check_fails_the_report():
    text, problems = _tool().report(_Allocating(fail=True), 0, ROOT / "src")
    assert "wrong answer" in problems
    assert "1 of 3 operations failed" in problems
    assert "checks: FAILED, 1 of 3 failed" in text


def test_churn_pass():
    completed = subprocess.run(
        [sys.executable, str(TOOL), "--workload", "churn"],
        capture_output=True, text=True, check=False, timeout=600,
        cwd=ROOT)
    assert completed.returncode == 0, completed.stderr
    out = completed.stdout
    assert re.search(r"traced MiB: peak [\d.]+, retained [\d.]+", out)
    # Algorithm 1's plan cache keeps entries alive across the pass.
    assert "repro/core/scheduler.py:" in out
    assert "ru_maxrss MiB:" in out
    assert "left for the collector by one call: 0 objects\n" in out
    assert re.search(r"checks: ok, 0 of \d+ failed", out)


def test_an_unknown_workload_exits_2():
    completed = subprocess.run(
        [sys.executable, str(TOOL), "--workload", "nope"],
        capture_output=True, text=True, check=False, timeout=120,
        cwd=ROOT)
    assert completed.returncode == 2
    assert "unknown workload 'nope'" in completed.stderr
