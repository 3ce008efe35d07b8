"""§VI extensions: fault tolerance, all-reduce, multi-tenant noise.

The paper's discussion section sketches three directions beyond the
evaluated system; this driver exercises all three:

* **Fault tolerance** — "checkpointing (per epoch) and restart";
  machine failures crash whole groups, whose jobs restart from their
  last checkpoint.
* **All-reduce** — "its scheduling approach can be easily applied to
  other communication architecture such as all-reduce"; the cost model
  swaps PS pull/push for one ring all-reduce per iteration (with the
  full-replica memory cost that implies).
* **Multi-tenant interference** — "the system may show unstable
  performance occasionally due to interference (e.g., bursty traffics
  by other users)"; COMM subtasks are randomly hit by traffic spikes
  and the profiler's moving averages absorb them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.config import DEFAULT_SIM_CONFIG
from repro.core.runtime import HarmonyRuntime, RunResult
from repro.experiments.common import scaled_workload
from repro.metrics.reporting import format_table
from repro.workloads.costmodel import CostModel


@dataclass
class ExtensionsResult:
    baseline: RunResult
    with_failures: RunResult
    failures_injected: int
    allreduce: RunResult
    with_interference: RunResult

    @property
    def failure_slowdown(self) -> float:
        return self.with_failures.makespan / self.baseline.makespan

    @property
    def interference_slowdown(self) -> float:
        return self.with_interference.makespan / self.baseline.makespan

    @property
    def allreduce_makespan_ratio(self) -> float:
        return self.allreduce.makespan / self.baseline.makespan


def run(scale: float = 0.5, seed: int = 2021,
        n_failures: int = 4) -> ExtensionsResult:
    """Run the experiment; see the module docstring for
    the paper exhibit it reproduces."""
    workload, n_machines = scaled_workload(scale, seed)

    baseline = HarmonyRuntime(n_machines, workload).run()

    # Failures spread over the first two thirds of the baseline run.
    failure_times = list(np.linspace(0.2, 0.66, n_failures)
                         * baseline.makespan)
    failing = HarmonyRuntime(n_machines, workload,
                             failure_times=failure_times)
    with_failures = failing.run()

    allreduce = HarmonyRuntime(
        n_machines, workload,
        cost_model=CostModel(DEFAULT_SIM_CONFIG.machine,
                             comm_architecture="allreduce"),
        scheduler_name="harmony-allreduce").run()

    noisy_config = replace(DEFAULT_SIM_CONFIG, execution=replace(
        DEFAULT_SIM_CONFIG.execution, comm_interference_probability=0.10))
    with_interference = HarmonyRuntime(n_machines, workload,
                                       config=noisy_config).run()

    return ExtensionsResult(
        baseline=baseline,
        with_failures=with_failures,
        failures_injected=failing.master.failures_injected,
        allreduce=allreduce,
        with_interference=with_interference)


def report(result: ExtensionsResult) -> str:
    """Render the paper-style rows for this exhibit."""
    rows = []
    for label, run_result in (
            ("baseline (PS)", result.baseline),
            (f"+ {result.failures_injected} machine failures",
             result.with_failures),
            ("all-reduce architecture", result.allreduce),
            ("+ 10% bursty interference", result.with_interference)):
        rows.append((label,
                     f"{run_result.makespan / 60:.0f}",
                     f"{len(run_result.finished)}",
                     f"{run_result.average_utilization('cpu'):.1%}"))
    lines = [format_table(
        ["configuration", "makespan (min)", "jobs finished",
         "CPU util"], rows,
        title="§VI extensions — fault tolerance, all-reduce, "
              "multi-tenant interference")]
    lines.append(
        f"failure slowdown {result.failure_slowdown:.2f}x, "
        f"interference slowdown {result.interference_slowdown:.2f}x, "
        f"all-reduce/PS makespan {result.allreduce_makespan_ratio:.2f}x")
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover - manual driver
    print(report(run()))
