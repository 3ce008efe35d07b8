"""§V-D: workload sensitivity to resource-usage ratios.

The top/bottom 60 jobs by computation ratio form computation- and
communication-heavy workloads.  Paper: makespan speedups stay ~1.57-
1.58x with high utilization for both; JCT speedups differ (2.31x
comp-heavy vs 1.83x comm-heavy) because Harmony picks larger DoPs for
computation-heavy jobs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.isolated import IsolatedRuntime
from repro.core.runtime import HarmonyRuntime
from repro.experiments.common import scaled_workload
from repro.metrics.reporting import format_table
from repro.workloads.generator import (
    SUBSET_FRACTION,
    comm_intensive_subset,
    comp_intensive_subset,
)


@dataclass
class RatioRow:
    label: str
    jct_speedup: float
    makespan_speedup: float
    cpu_utilization: float
    net_utilization: float
    median_dop: float


@dataclass
class SensitivityRatioResult:
    rows: list[RatioRow]

    def row(self, label: str) -> RatioRow:
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(label)


def _measure(label: str, workload, n_machines: int) -> RatioRow:
    isolated = IsolatedRuntime(n_machines, workload).run()
    harmony = HarmonyRuntime(n_machines, workload).run()
    dops = [m for _, m, _ in harmony.group_shape_log]
    return RatioRow(
        label=label,
        jct_speedup=isolated.mean_jct / harmony.mean_jct,
        makespan_speedup=isolated.makespan / harmony.makespan,
        cpu_utilization=harmony.average_utilization("cpu"),
        net_utilization=harmony.average_utilization("net"),
        median_dop=float(np.median(dops)) if dops else 0.0)


def run(scale: float = 1.0, seed: int = 2021) -> SensitivityRatioResult:
    """Run the experiment; see the module docstring for
    the paper exhibit it reproduces."""
    workload, n_machines = scaled_workload(scale, seed)
    subset_size = max(1, int(len(workload) * SUBSET_FRACTION))
    rows = [
        _measure("base", workload, n_machines),
        _measure("comp-intensive",
                 comp_intensive_subset(workload, subset_size),
                 n_machines),
        _measure("comm-intensive",
                 comm_intensive_subset(workload, subset_size),
                 n_machines),
    ]
    return SensitivityRatioResult(rows=rows)


def report(result: SensitivityRatioResult) -> str:
    """Render the paper-style rows for this exhibit."""
    return format_table(
        ["workload", "JCT speedup", "makespan speedup", "CPU util",
         "net util", "median DoP"],
        [(r.label, f"{r.jct_speedup:.2f}", f"{r.makespan_speedup:.2f}",
          f"{r.cpu_utilization:.1%}", f"{r.net_utilization:.1%}",
          f"{r.median_dop:.0f}") for r in result.rows],
        title="§V-D ratio sensitivity (paper: comp 1.58x makespan / "
              "2.31x JCT with larger DoPs; comm 1.57x / 1.83x with "
              "smaller DoPs)")
