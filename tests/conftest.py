"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.config import ExecutionConfig, MachineSpec, SimConfig
from repro.core.profiler import JobMetrics
from repro.sim import RandomStreams, Simulator
from repro.workloads.apps import DATASETS, JobSpec, LDA, MLR
from repro.workloads.costmodel import CostModel
from repro.workloads.generator import WorkloadGenerator


def pytest_addoption(parser):
    parser.addoption(
        "--checked", action="store_true", default=False,
        help="run every HarmonyRuntime.run() through the repro.check "
             "invariant checker (fails the test on any violation)")
    parser.addoption(
        "--sanitize", action="store_true", default=False,
        help="instrument threading.Lock/RLock (and everything built on "
             "them: Condition, Semaphore, Event, ...) with the "
             "repro.analysis.sanitizer lock checker; any lock-order "
             "inversion or foreign release fails the test")


@pytest.fixture(autouse=True)
def _sanitize_mode(request):
    """Opt-in dynamic race detection: ``pytest --sanitize`` runs each
    test with instrumented locks and fails it on recorded violations.

    A fresh :class:`Sanitizer` per test keeps one test's lock-order
    edges from poisoning another's graph."""
    if not request.config.getoption("--sanitize"):
        yield
        return
    from repro.analysis.sanitizer import Sanitizer, install, uninstall

    sanitizer = Sanitizer(name=request.node.nodeid)
    install(sanitizer)
    try:
        yield
    finally:
        uninstall()
    sanitizer.check()


@pytest.fixture(autouse=True)
def _checked_mode(request, monkeypatch):
    """Opt-in whole-run validation: ``pytest --checked`` re-verifies
    every experiment/e2e test against the run-level invariants."""
    if not request.config.getoption("--checked"):
        yield
        return
    from repro.check import InvariantChecker
    from repro.core.runtime import HarmonyRuntime

    original = HarmonyRuntime.run
    checker = InvariantChecker()

    def run_and_check(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        violations = checker.check_runtime(self)
        if violations:
            pytest.fail(
                "run-level invariant violation(s):\n"
                + "\n".join(str(v) for v in violations))
        return result

    monkeypatch.setattr(HarmonyRuntime, "run", run_and_check)
    yield


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def streams() -> RandomStreams:
    return RandomStreams(7)


@pytest.fixture
def machine_spec() -> MachineSpec:
    return MachineSpec()


@pytest.fixture
def cost_model() -> CostModel:
    return CostModel()


@pytest.fixture
def sim_config() -> SimConfig:
    """A deterministic config (no duration jitter) for exact assertions."""
    return SimConfig(
        seed=7,
        execution=ExecutionConfig(duration_jitter_cv=0.0,
                                  barrier_overhead=0.0))


@pytest.fixture
def small_jobs() -> list[JobSpec]:
    """Eight small jobs (one hyper-param per app/dataset pair)."""
    return WorkloadGenerator(3).base_workload(hyper_params_per_pair=1)


@pytest.fixture
def tiny_job() -> JobSpec:
    """A memory-light, fast job (LDA on NYTimes)."""
    return JobSpec("tiny", LDA, DATASETS["LDA"][1], iterations=3)


@pytest.fixture
def big_job() -> JobSpec:
    """A memory-heavy job (MLR on the large synthetic dataset)."""
    return JobSpec("big", MLR, DATASETS["MLR"][1], iterations=3)


def metrics(job_id: str, cpu_work: float, t_net: float,
            m: int = 16) -> JobMetrics:
    """Hand-built profiled metrics for scheduler unit tests."""
    return JobMetrics(job_id=job_id, cpu_work=cpu_work, t_net=t_net,
                      m_observed=m)
