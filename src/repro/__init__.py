"""Harmony: a scheduling framework for multiple distributed ML jobs.

A from-scratch reproduction of the ICDCS 2021 paper.  The public API
re-exports the pieces a downstream user actually composes:

* workloads — :class:`~repro.workloads.apps.JobSpec`,
  :class:`~repro.workloads.generator.WorkloadGenerator`;
* the scheduler itself —
  :class:`~repro.core.scheduler.HarmonyScheduler`;
* end-to-end runtimes — :class:`~repro.core.runtime.HarmonyRuntime`
  (simulated cluster) and
  :class:`~repro.core.local_runtime.LocalHarmonyRuntime` (real
  threads, real models, real parameter servers);
* the baselines of the paper's evaluation.

See README.md for a tour and ``python -m repro --list`` for the
experiment drivers.
"""

import importlib

__version__ = "1.0.0"

#: Public name -> defining module, imported on first access (PEP 562),
#: so ``import repro.<anything>`` loads only what that module needs.
_EXPORTS = {
    "CostModel": "repro.workloads",
    "HarmonyRuntime": "repro.core",
    "HarmonyScheduler": "repro.core",
    "IsolatedRuntime": "repro.baselines",
    "JobMetrics": "repro.core",
    "JobSpec": "repro.workloads",
    "LocalHarmonyRuntime": "repro.core.local_runtime",
    "LocalJob": "repro.core.local_runtime",
    "MachineSpec": "repro.config",
    "NaiveRuntime": "repro.baselines",
    "OracleScheduler": "repro.baselines",
    "PerfModel": "repro.core",
    "Profiler": "repro.core",
    "RunResult": "repro.core",
    "SchedulerConfig": "repro.config",
    "SimConfig": "repro.config",
    "WorkloadGenerator": "repro.workloads",
    "make_base_workload": "repro.workloads",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value
