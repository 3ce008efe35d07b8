"""Run-level correctness harness (invariants + differential testing).

Three pieces:

* :class:`InvariantChecker` — asserts whole-run invariants (work
  conservation, COMP/COMM occupancy, barrier safety, monotone trace
  timestamps, no lost iterations, ledger consistency) over a finished
  :class:`~repro.core.runtime.HarmonyRuntime`.
* :mod:`repro.check.differential` — replays profiled jobs through the
  analytical Eqs. 1-4 model and the §V-F exhaustive oracle and bounds
  the simulator/scheduler against both.
* :class:`ScenarioGenerator` — derives complete experiments (job mix,
  arrivals, fault plan, alpha settings) from one seed, with one-line
  replay: ``python -m repro check --seed N``.
"""

import importlib

#: Public name -> defining module, imported on first access (PEP 562),
#: so ``import repro.check.invariants`` loads neither the differential
#: harness nor the scenario generator.
_EXPORTS = {
    "CheckedRun": "repro.check.scenarios",
    "DifferentialReport": "repro.check.differential",
    "InvariantChecker": "repro.check.invariants",
    "OracleCase": "repro.check.differential",
    "PerfModelCase": "repro.check.differential",
    "Scenario": "repro.check.scenarios",
    "ScenarioGenerator": "repro.check.scenarios",
    "Violation": "repro.check.invariants",
    "exact_metrics": "repro.check.differential",
    "oracle_cases": "repro.check.differential",
    "perfmodel_cases": "repro.check.differential",
    "run_checked": "repro.check.scenarios",
    "run_differential": "repro.check.differential",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value
