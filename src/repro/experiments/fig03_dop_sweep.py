"""Fig. 3: running one job with different numbers of machines.

(a) CPU utilization falls and network utilization rises as machines are
added; (b) iteration time decomposes into PULL/COMP/PUSH, with COMP
shrinking ∝ 1/m while the COMM steps stay flat.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.group_runtime import ExecutionMode
from repro.experiments.common import run_single_group
from repro.metrics.reporting import format_table
from repro.workloads.apps import DatasetSpec, JobSpec, MLR
from repro.workloads.costmodel import CostModel

_DOPS = (4, 8, 16, 32)

#: A mid-size MLR configuration that fits in memory at every swept DoP
#: (the paper does not name the dataset of this micro-benchmark; its
#: smallest DoP implies a job small enough for 4 machines).
_DATASET = DatasetSpec("Synthetic40", 40.0, 8.0)


@dataclass
class Fig03Row:
    n_machines: int
    cpu_utilization: float
    net_utilization: float
    t_pull: float
    t_comp: float
    t_push: float
    iteration_seconds: float


@dataclass
class Fig03Result:
    rows: list[Fig03Row]


def run() -> Fig03Result:
    """Run the experiment; see the module docstring for
    the paper exhibit it reproduces."""
    spec = JobSpec("MLR-dop-sweep", MLR, _DATASET, iterations=8)
    cost_model = CostModel()
    rows = []
    for m in _DOPS:
        measured = run_single_group([spec], m,
                                    mode=ExecutionMode.ISOLATED)
        profile = cost_model.profile(spec, m)
        rows.append(Fig03Row(
            n_machines=m,
            cpu_utilization=100.0 * measured.cpu_utilization,
            net_utilization=100.0 * measured.net_utilization,
            t_pull=profile.t_pull,
            t_comp=profile.t_comp,
            t_push=profile.t_push,
            iteration_seconds=measured.mean_iteration_seconds))
    return Fig03Result(rows=rows)


def report(result: Fig03Result) -> str:
    """Render the paper-style rows for this exhibit."""
    table = format_table(
        ["machines", "CPU %", "Net %", "PULL s", "COMP s", "PUSH s",
         "iter s"],
        [(r.n_machines, f"{r.cpu_utilization:.1f}",
          f"{r.net_utilization:.1f}", f"{r.t_pull:.1f}",
          f"{r.t_comp:.1f}", f"{r.t_push:.1f}",
          f"{r.iteration_seconds:.1f}") for r in result.rows],
        title="Fig. 3 — DoP sweep (paper: CPU util falls with m, COMP "
              "shrinks ~1/m, PULL/PUSH stay flat)")
    return table
