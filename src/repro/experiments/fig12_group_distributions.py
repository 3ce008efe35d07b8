"""Fig. 12: distributions of group DoP and jobs-per-group (§V-D).

Grouping decisions taken while running the base workload and the
computation-/communication-intensive subsets.  Paper: the DoP
distribution shifts right for computation-heavy workloads and left for
communication-heavy ones, while jobs-per-group stays roughly the same.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.runtime import HarmonyRuntime, RunResult
from repro.experiments.common import scaled_workload
from repro.metrics.reporting import format_table
from repro.metrics.stats import cdf_points
from repro.workloads.generator import (
    SUBSET_FRACTION,
    comm_intensive_subset,
    comp_intensive_subset,
)


@dataclass
class GroupShapeStats:
    label: str
    dops: np.ndarray
    jobs_per_group: np.ndarray
    result: RunResult

    @property
    def median_dop(self) -> float:
        return float(np.median(self.dops)) if len(self.dops) else 0.0

    @property
    def median_jobs(self) -> float:
        return float(np.median(self.jobs_per_group)) \
            if len(self.jobs_per_group) else 0.0

    def dop_cdf(self):
        return cdf_points(self.dops)


@dataclass
class Fig12Result:
    base: GroupShapeStats
    comp_intensive: GroupShapeStats
    comm_intensive: GroupShapeStats

    def all(self) -> list[GroupShapeStats]:
        return [self.base, self.comp_intensive, self.comm_intensive]


def _stats(label: str, workload, n_machines: int) -> GroupShapeStats:
    result = HarmonyRuntime(n_machines, workload).run()
    # Weight each epoch by nothing (decision-count distribution, as the
    # paper extracts "from grouping decisions of the scheduler").
    dops = np.array([m for _, m, _ in result.group_shape_log])
    jobs = np.array([n for _, _, n in result.group_shape_log])
    return GroupShapeStats(label=label, dops=dops, jobs_per_group=jobs,
                           result=result)


def run(scale: float = 1.0, seed: int = 2021) -> Fig12Result:
    """Run the experiment; see the module docstring for
    the paper exhibit it reproduces."""
    workload, n_machines = scaled_workload(scale, seed)
    subset_size = max(1, int(len(workload) * SUBSET_FRACTION))
    comp_subset = comp_intensive_subset(workload, subset_size)
    comm_subset = comm_intensive_subset(workload, subset_size)
    return Fig12Result(
        base=_stats("base", workload, n_machines),
        comp_intensive=_stats("comp-intensive", comp_subset, n_machines),
        comm_intensive=_stats("comm-intensive", comm_subset, n_machines))


def report(result: Fig12Result) -> str:
    """Render the paper-style rows for this exhibit."""
    rows = []
    for stats in result.all():
        rows.append((stats.label, f"{stats.median_dop:.0f}",
                     f"{stats.median_jobs:.0f}",
                     f"{np.percentile(stats.dops, 90):.0f}"
                     if len(stats.dops) else "-"))
    return format_table(
        ["workload", "median DoP", "median jobs/group", "p90 DoP"],
        rows,
        title="Fig. 12 — group shapes (paper: comp-intensive uses larger"
              " DoPs, comm-intensive smaller; jobs/group indifferent)")
