"""Fig. 2: single-job resource utilization in a plain PS.

"ML training in PS fails to achieve high resource utilization, while
showing different resource usage ratios with various workloads": MLR
with 16K/8K classes and LDA on PubMed/NYTimes, run alone on 16
machines.  Expect overall utilization well below 100% with app-specific
CPU:network ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.group_runtime import ExecutionMode
from repro.experiments.common import run_single_group
from repro.metrics.reporting import format_table
from repro.workloads.apps import DATASETS, JobSpec, LDA, MLR

#: The paper's four configurations: MLR hyper-params are class counts
#: (16K doubles the 8K model); LDA varies the dataset.
_CONFIGS = [
    ("MLR-16K", JobSpec("MLR-16K", MLR, DATASETS["MLR"][0],
                        compute_scale=1.2, model_scale=2.0,
                        iterations=8)),
    ("MLR-8K", JobSpec("MLR-8K", MLR, DATASETS["MLR"][0],
                       compute_scale=1.0, model_scale=1.0,
                       iterations=8)),
    ("LDA-PubMed", JobSpec("LDA-PubMed", LDA, DATASETS["LDA"][0],
                           iterations=8)),
    ("LDA-NYTimes", JobSpec("LDA-NYTimes", LDA, DATASETS["LDA"][1],
                            iterations=8)),
]

#: DoP of the motivation experiments ("16 AWS m4.2xlarge EC2 instances").
_MACHINES = 16


@dataclass
class Fig02Result:
    rows: list[tuple[str, float, float]]  # (config, cpu%, net%)


def run() -> Fig02Result:
    """Run the experiment; see the module docstring for
    the paper exhibit it reproduces."""
    rows = []
    for label, spec in _CONFIGS:
        # A single job in ISOLATED mode: the classic sequential
        # PULL-COMP-PUSH loop of Fig. 1.
        measured = run_single_group([spec], _MACHINES,
                                    mode=ExecutionMode.ISOLATED)
        rows.append((label, 100.0 * measured.cpu_utilization,
                     100.0 * measured.net_utilization))
    return Fig02Result(rows=rows)


def report(result: Fig02Result) -> str:
    """Render the paper-style rows for this exhibit."""
    table = format_table(
        ["config", "CPU util (%)", "Network util (%)"],
        [(label, f"{cpu:.1f}", f"{net:.1f}")
         for label, cpu, net in result.rows],
        title="Fig. 2 — single-job utilization (paper: 40-70% CPU with "
              "workload-dependent ratios, never both high)")
    return table
