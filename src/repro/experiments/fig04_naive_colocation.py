"""Fig. 4: naively co-locating PS jobs still under-utilizes resources.

Singles (NMF, Lasso, MLR) versus naive pairs (NMF+Lasso, NMF+MLR) and
the triple, on 16 machines.  The pairs average out around ~50% on both
resources with larger variance; the triple runs out of memory —
"co-locating all three jobs results in an out-of-memory error".
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.group_runtime import ExecutionMode
from repro.experiments.common import run_single_group
from repro.metrics.reporting import format_table
from repro.workloads.apps import DATASETS, JobSpec, LASSO, MLR, NMF

_MACHINES = 16


def _specs() -> dict[str, JobSpec]:
    # MLR/Lasso use the large hyper-parameter configuration (the 16K-
    # class setting of Fig. 2 doubles the base model): with all three
    # inputs plus both big models resident, 16 machines overflow.
    return {
        "NMF": JobSpec("NMF", NMF, DATASETS["NMF"][0], iterations=6),
        "Lasso": JobSpec("Lasso", LASSO, DATASETS["Lasso"][0],
                         model_scale=2.0, iterations=6),
        "MLR": JobSpec("MLR", MLR, DATASETS["MLR"][0],
                       model_scale=2.0, iterations=6),
    }


@dataclass
class Fig04Row:
    label: str
    cpu_utilization: float | None
    net_utilization: float | None
    oom: bool


@dataclass
class Fig04Result:
    rows: list[Fig04Row]

    def row(self, label: str) -> Fig04Row:
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(label)


def _measure(specs: Sequence[JobSpec], mode: ExecutionMode,
             label: str) -> Fig04Row:
    result = run_single_group(list(specs), _MACHINES, mode=mode)
    if result.failed:
        return Fig04Row(label=label, cpu_utilization=None,
                        net_utilization=None, oom=True)
    return Fig04Row(label=label,
                    cpu_utilization=100.0 * result.cpu_utilization,
                    net_utilization=100.0 * result.net_utilization,
                    oom=False)


def run() -> Fig04Result:
    """Run the experiment; see the module docstring for
    the paper exhibit it reproduces."""
    specs = _specs()
    rows = []
    for name in ("NMF", "Lasso", "MLR"):
        rows.append(_measure([specs[name]], ExecutionMode.ISOLATED, name))
    rows.append(_measure([specs["NMF"], specs["Lasso"]],
                         ExecutionMode.NAIVE, "NMF+Lasso"))
    rows.append(_measure([specs["NMF"], specs["MLR"]],
                         ExecutionMode.NAIVE, "NMF+MLR"))
    rows.append(_measure([specs["NMF"], specs["MLR"], specs["Lasso"]],
                         ExecutionMode.NAIVE, "NMF+MLR+Lasso"))
    return Fig04Result(rows=rows)


def report(result: Fig04Result) -> str:
    """Render the paper-style rows for this exhibit."""
    cells = []
    for row in result.rows:
        if row.oom:
            cells.append((row.label, "OOM", "OOM"))
        else:
            cells.append((row.label, f"{row.cpu_utilization:.1f}",
                          f"{row.net_utilization:.1f}"))
    return format_table(
        ["workload", "CPU util (%)", "Network util (%)"], cells,
        title="Fig. 4 — naive co-location (paper: pairs average ~50%, "
              "triple OOMs)")
