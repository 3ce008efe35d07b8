"""Fig. 13: accuracy of the performance model (§V-E).

(a) Error sensitivity: "we simulate the execution with different error
levels" — predictions are perturbed by a controlled relative error and
the resulting speedup is normalized to the zero-error run.  Paper:
>90% of the speedup is retained below ~7.5% error, then it degrades
quickly.

(b) Prediction error: compare predicted group iteration time and
utilization with what the runtime measured for every scheduling
decision.  Paper: below 5% at all times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.perfmodel import PerfModel
from repro.core.runtime import HarmonyRuntime, RunResult
from repro.experiments.common import scaled_workload
from repro.metrics.reporting import format_table


def make_error_injector(level: float, seed: int = 0):
    """Per-job multiplicative prediction error of relative size
    ``level``.

    The sign is deterministic per (job, quantity) so the scheduler is
    *consistently* wrong about each job — the failure mode an inaccurate
    performance model actually produces.
    """
    import zlib

    def injector(kind: str, job_id: str) -> float:
        digest = zlib.crc32(f"{seed}:{kind}:{job_id}".encode())
        sign = 1.0 if digest & 1 else -1.0
        return 1.0 + level * sign
    return injector


@dataclass
class Fig13aRow:
    error_level: float
    mean_jct: float
    makespan: float
    normalized_jct_speedup: float
    normalized_makespan_speedup: float


@dataclass
class Fig13Result:
    sensitivity: list[Fig13aRow]
    t_group_errors: np.ndarray
    utilization_errors: np.ndarray

    @property
    def mean_t_group_error(self) -> float:
        return float(np.mean(self.t_group_errors)) \
            if len(self.t_group_errors) else 0.0

    @property
    def mean_utilization_error(self) -> float:
        return float(np.mean(self.utilization_errors)) \
            if len(self.utilization_errors) else 0.0


def run(scale: float = 1.0, seed: int = 2021,
        error_levels: tuple[float, ...] = (0.0, 0.05, 0.10, 0.15, 0.20)
        ) -> Fig13Result:
    workload, n_machines = scaled_workload(scale, seed)

    baseline: RunResult | None = None
    rows: list[Fig13aRow] = []
    reference: RunResult | None = None
    for level in error_levels:
        injector = make_error_injector(level, seed=seed) \
            if level > 0 else None
        perf_model = PerfModel(error_injector=injector)
        result = HarmonyRuntime(n_machines, workload,
                                perf_model=perf_model).run()
        if baseline is None:
            baseline = result
        if level == 0.0:
            reference = result
        rows.append(Fig13aRow(
            error_level=level,
            mean_jct=result.mean_jct,
            makespan=result.makespan,
            normalized_jct_speedup=baseline.mean_jct / result.mean_jct,
            normalized_makespan_speedup=(baseline.makespan
                                         / result.makespan)))

    if reference is None:  # error_levels did not include 0.0
        workload, n_machines = scaled_workload(scale, seed)
        reference = HarmonyRuntime(n_machines, workload).run()
    errors = reference.prediction_errors()
    return Fig13Result(
        sensitivity=rows,
        t_group_errors=np.array(errors["t_group"]),
        utilization_errors=np.array(errors["utilization"]))


def report(result: Fig13Result) -> str:
    """Render the paper-style rows for this exhibit."""
    lines = [format_table(
        ["error level", "norm. JCT speedup", "norm. makespan speedup"],
        [(f"{r.error_level:.0%}", f"{r.normalized_jct_speedup:.2f}",
          f"{r.normalized_makespan_speedup:.2f}")
         for r in result.sensitivity],
        title="Fig. 13a — speedup vs injected model error "
              "(paper: >0.9 below ~7.5%, degrading beyond)")]
    lines.append(
        f"Fig. 13b — prediction error: T_g_itr mean "
        f"{result.mean_t_group_error:.1%} "
        f"(n={len(result.t_group_errors)}), U mean "
        f"{result.mean_utilization_error:.1%} "
        f"(n={len(result.utilization_errors)}) — paper: below 5%")
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover - manual driver
    print(report(run()))
