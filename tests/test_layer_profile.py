"""Smoke test of ``benchmarks/layer_profile.py``: every table entry
resolves, every simulator definition has an entry, foreign code is
charged to its ``repro`` caller, and one profiled ``solo`` pass and one
``churn`` pass (Algorithm 1 alone) map all but 2% of their self time."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "benchmarks" / "layer_profile.py"


def _tool():
    spec = importlib.util.spec_from_file_location("layer_profile", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _key(function):
    code = function.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def test_every_entry_resolves():
    tool = _tool()
    assert tool.unresolved_entries() == []
    assert set(tool.LAYERS.values()) <= set(tool.LAYER_ORDER)


def test_every_sim_definition_has_an_entry():
    """Every top-level class and function of a ``repro.sim`` module is
    covered by a table entry.  Tier 1 profiles only ``solo`` and
    ``churn``; a simulator name without an entry would leave the drive
    lane's self time (the ``group5`` profile) unmapped."""
    import inspect
    import pkgutil

    import repro.sim

    tool = _tool()
    uncovered = []
    for info in pkgutil.iter_modules(repro.sim.__path__, "repro.sim."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if ((inspect.isclass(value) or inspect.isfunction(value))
                    and value.__module__ == info.name
                    and tool.layer_of(info.name, name) is None):
                uncovered.append(f"{info.name}:{name}")
    assert uncovered == []


def test_a_missing_entry_is_reported(monkeypatch):
    tool = _tool()
    monkeypatch.setitem(tool.LAYERS,
                        ("repro.sim.resources", "RateResource._gone"),
                        tool.DRIVE)
    assert tool.unresolved_entries() == [
        "repro.sim.resources:RateResource._gone"]


def test_foreign_self_time_is_charged_to_its_caller():
    from repro.sim.resources import RateResource, processor_sharing

    tool = _tool()
    submit = _key(RateResource.submit)
    policy = _key(processor_sharing())
    builtin = ("~", 0, "<built-in method builtins.min>")
    stats = {
        submit: (1, 1, 0.5, 1.0, {}),
        policy: (2, 2, 0.1, 0.1, {submit: (2, 2, 0.1, 0.1)}),
        builtin: (3, 3, 0.25, 0.25, {submit: (2, 2, 0.2, 0.2),
                                     policy: (1, 1, 0.05, 0.05)}),
    }
    self_s, calls, grand, unmapped = tool.attribute(stats)
    assert self_s == {tool.PER_EVENT: pytest.approx(0.7),
                      tool.SERVICE: pytest.approx(0.15)}
    # Foreign calls are not counted; nested functions take their
    # enclosing entry's layer.
    assert calls == {tool.PER_EVENT: 1, tool.SERVICE: 2}
    assert grand == pytest.approx(0.85)
    assert unmapped == {}


def test_solo_pass_is_mapped():
    completed = subprocess.run(
        [sys.executable, str(TOOL), "--workload", "solo"],
        capture_output=True, text=True, check=False, timeout=300,
        cwd=ROOT)
    assert completed.returncode == 0, completed.stderr
    calls = {match.group(1): int(match.group(2).replace(",", ""))
             for match in re.finditer(r"^(\S.*?)\s+\S+\s+\S+\s+([\d,]+)$",
                                      completed.stdout, re.MULTILINE)}
    # Call counts are deterministic.  One serve_solo per subtask (four
    # instances of 8,000 PULL/COMP/PUSH iterations and a load each),
    # plus each instance's open and close.
    assert calls["solo lane"] == 4 * (3 * 8_000 + 1 + 2)
    assert "unmapped" in calls


def test_churn_pass_is_mapped():
    """Every Algorithm 1 helper has a row: a function added to the
    scheduler without one leaves its self time unmapped."""
    completed = subprocess.run(
        [sys.executable, str(TOOL), "--workload", "churn"],
        capture_output=True, text=True, check=False, timeout=300,
        cwd=ROOT)
    assert completed.returncode == 0, completed.stderr
    for layer in ("alg1: assignJobs", "alg1: allocation",
                  "alg1: scoring and plans"):
        assert layer in completed.stdout
