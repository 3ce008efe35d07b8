"""Fig. 9 (and Table I): evaluation-workload characteristics.

CDFs of per-job iteration time and computation ratio at DoP 16 —
"iteration time [up to ~20] minutes" and computation ratios spread
across most of (0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.metrics.reporting import format_table
from repro.workloads.apps import DATASETS, JobSpec
from repro.workloads.costmodel import CostModel
from repro.workloads.generator import CHARACTERIZATION_DOP, make_base_workload


@dataclass
class Fig09Result:
    iteration_minutes: np.ndarray
    comp_ratios: np.ndarray
    jobs: list[JobSpec]


def run(seed: int = 2021) -> Fig09Result:
    """Run the experiment; see the module docstring for
    the paper exhibit it reproduces."""
    jobs = make_base_workload(seed=seed)
    cost_model = CostModel()
    profiles = [cost_model.profile(job, CHARACTERIZATION_DOP)
                for job in jobs]
    return Fig09Result(
        iteration_minutes=np.array([p.t_iteration / 60.0
                                    for p in profiles]),
        comp_ratios=np.array([p.comp_ratio for p in profiles]),
        jobs=jobs)


def report(result: Fig09Result) -> str:
    """Render the paper-style rows for this exhibit."""
    lines = []
    rows = []
    for app, datasets in sorted(DATASETS.items()):
        for dataset in datasets:
            rows.append((app, dataset.name, dataset.input_gb,
                         dataset.model_gb))
    lines.append(format_table(
        ["App", "Dataset", "Input (GB)", "Model (GB)"], rows,
        title="Table I — workloads"))
    lines.append("")
    it = result.iteration_minutes
    cr = result.comp_ratios
    lines.append("Fig. 9a — iteration time (min) at DoP 16: "
                 f"min {it.min():.1f}, median {np.median(it):.1f}, "
                 f"max {it.max():.1f} (paper: ~0-20 min)")
    lines.append("Fig. 9b — computation ratio at DoP 16: "
                 f"min {cr.min():.2f}, median {np.median(cr):.2f}, "
                 f"max {cr.max():.2f} (paper: spread over ~0.1-0.95)")
    quartiles = np.percentile(it, [25, 50, 75])
    lines.append(f"  iteration-time quartiles: "
                 f"{quartiles[0]:.1f} / {quartiles[1]:.1f} / "
                 f"{quartiles[2]:.1f} min")
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover - manual driver
    print(report(run()))
