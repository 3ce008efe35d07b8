"""Fault-tolerance experiment: Harmony under injected machine faults.

§VI of the paper sketches fault tolerance as "checkpointing (per
epoch) and restart".  This driver measures that story end to end with
the :mod:`repro.faults` subsystem: a seeded
:class:`~repro.faults.plan.FaultPlan` injects machine crashes,
stragglers (machine slowdowns), and transient network drops into an
otherwise identical run, the heartbeat
:class:`~repro.faults.monitor.HealthMonitor` detects dead machines,
and the master checkpoints, regroups the displaced jobs onto the
survivors, and resumes them.

The exhibit compares the faulty run against the fault-free baseline:

* makespan / mean-JCT inflation (how much the faults cost),
* every job still finishes (faults cost time, never correctness),
* recovery accounting — detection latency, per-crash recovery time,
  iterations rolled back, and the re-run work they imply.

Same seed ⇒ same fault timeline ⇒ identical results, so the exhibit
is exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.runtime import HarmonyRuntime, RunResult
from repro.experiments.common import scaled_workload
from repro.faults.plan import FaultPlan
from repro.metrics.faults import FaultSummary
from repro.metrics.reporting import format_table

#: Cluster-wide fault rates, per hour of the fault-free makespan.
CRASH_RATE_PER_HOUR = 0.5
SLOWDOWN_RATE_PER_HOUR = 1.0
DROP_RATE_PER_HOUR = 2.0


@dataclass
class FaultsResult:
    baseline: RunResult
    faulty: RunResult
    plan: FaultPlan
    fault_summary: FaultSummary

    @property
    def makespan_inflation(self) -> float:
        return self.faulty.makespan / self.baseline.makespan

    @property
    def jct_inflation(self) -> float:
        return self.faulty.mean_jct / self.baseline.mean_jct


def run(scale: float = 0.5, seed: int = 2021) -> FaultsResult:
    """Run the experiment; see the module docstring for
    the paper exhibit it reproduces.

    The fault plan's horizon is the fault-free makespan, so the rates
    are "faults per cluster-hour of useful work" regardless of scale.
    """
    workload, n_machines = scaled_workload(scale, seed)

    baseline = HarmonyRuntime(n_machines, workload).run()

    plan = FaultPlan.generate(
        seed=seed, n_machines=n_machines,
        horizon_seconds=baseline.makespan,
        crash_rate_per_hour=CRASH_RATE_PER_HOUR,
        slowdown_rate_per_hour=SLOWDOWN_RATE_PER_HOUR,
        drop_rate_per_hour=DROP_RATE_PER_HOUR)
    faulty = HarmonyRuntime(n_machines, workload, fault_plan=plan,
                            scheduler_name="harmony-faults").run()

    return FaultsResult(baseline=baseline, faulty=faulty, plan=plan,
                        fault_summary=faulty.fault_log.summary())


def report(result: FaultsResult) -> str:
    """Render the paper-style rows for this exhibit."""
    rows = []
    for label, run_result in (("fault-free", result.baseline),
                              ("with fault plan", result.faulty)):
        rows.append((label,
                     f"{run_result.makespan / 60:.0f}",
                     f"{run_result.mean_jct / 60:.0f}",
                     f"{len(run_result.finished)}",
                     f"{run_result.average_utilization('cpu'):.1%}"))
    summary = result.fault_summary
    lines = [format_table(
        ["configuration", "makespan (min)", "mean JCT (min)",
         "jobs finished", "CPU util"], rows,
        title="Fault tolerance — crash/straggler/drop injection "
              "(heartbeat detection, checkpoint-regroup-resume)")]
    lines.append(result.plan.describe())
    lines.append(
        f"makespan inflation {result.makespan_inflation:.2f}x, "
        f"mean-JCT inflation {result.jct_inflation:.2f}x")
    lines.append(
        f"recovery: detection {summary.mean_detection_seconds:.0f}s "
        f"mean, recovery {summary.mean_recovery_seconds / 60:.1f} min "
        f"mean / {summary.max_recovery_seconds / 60:.1f} min max, "
        f"{summary.lost_iterations} iterations rolled back "
        f"({summary.rerun_work_seconds / 60:.1f} min re-run work), "
        f"{summary.unrecovered_jobs} jobs unrecovered")
    return "\n".join(lines)
