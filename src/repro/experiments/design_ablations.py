"""Ablations of this reproduction's own design choices.

DESIGN.md documents the interpretation knobs the paper leaves open;
this driver measures how much each one matters on the base workload:

* the Algorithm 1 admission order (critical/sjf/ljf/interleave),
* the secondary-COMM scavenging rate of §IV-A's network executor,
* the periodic improvement check of §IV-B2,
* the grouping algorithm's swap fine-tuning pass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.config import DEFAULT_SIM_CONFIG, SimConfig
from repro.core.runtime import HarmonyRuntime
from repro.experiments.common import scaled_workload
from repro.metrics.reporting import format_table


@dataclass
class AblationRow:
    label: str
    mean_jct_minutes: float
    makespan_minutes: float
    cpu_utilization: float


@dataclass
class DesignAblationsResult:
    rows: list[AblationRow]

    def row(self, label: str) -> AblationRow:
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(label)


def _measure(label: str, workload, n_machines: int,
             config: SimConfig) -> AblationRow:
    result = HarmonyRuntime(n_machines, workload, config=config).run()
    return AblationRow(label=label,
                       mean_jct_minutes=result.mean_jct / 60,
                       makespan_minutes=result.makespan / 60,
                       cpu_utilization=result.average_utilization("cpu"))


def run(scale: float = 0.5, seed: int = 2021) -> DesignAblationsResult:
    """Run the experiment; see the module docstring for
    the paper exhibit it reproduces."""
    workload, n_machines = scaled_workload(scale, seed)
    rows = [_measure("default", workload, n_machines, DEFAULT_SIM_CONFIG)]

    for order in ("sjf", "ljf", "interleave"):
        variant = replace(DEFAULT_SIM_CONFIG, scheduler=replace(
            DEFAULT_SIM_CONFIG.scheduler, admission_order=order))
        rows.append(_measure(f"admission={order}", workload, n_machines,
                             variant))

    no_secondary = replace(DEFAULT_SIM_CONFIG, execution=replace(
        DEFAULT_SIM_CONFIG.execution, secondary_comm_rate=0.0))
    rows.append(_measure("no secondary COMM", workload, n_machines,
                         no_secondary))

    no_periodic = replace(DEFAULT_SIM_CONFIG, scheduler=replace(
        DEFAULT_SIM_CONFIG.scheduler, reschedule_check_seconds=1e12))
    rows.append(_measure("no periodic check", workload, n_machines,
                         no_periodic))

    no_swaps = replace(DEFAULT_SIM_CONFIG, scheduler=replace(
        DEFAULT_SIM_CONFIG.scheduler, max_swap_passes=0))
    rows.append(_measure("no swap fine-tuning", workload, n_machines,
                         no_swaps))
    return DesignAblationsResult(rows=rows)


def report(result: DesignAblationsResult) -> str:
    """Render the paper-style rows for this exhibit."""
    return format_table(
        ["variant", "mean JCT (min)", "makespan (min)", "CPU util"],
        [(r.label, f"{r.mean_jct_minutes:.0f}",
          f"{r.makespan_minutes:.0f}", f"{r.cpu_utilization:.1%}")
         for r in result.rows],
        title="Design-choice ablations (reproduction-specific knobs)")
