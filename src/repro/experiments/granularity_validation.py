"""Validation: group-level abstraction vs per-worker simulation.

DESIGN.md models each job group as one symmetric pipeline; this driver
quantifies what that abstraction costs by running the same groups at
per-machine granularity (every machine its own CPU/NIC, real cross-
worker barriers — Fig. 7's full structure) and comparing:

* the measured steady-state group iteration time, and
* both against the Eq. 1 analytical prediction.

The claim being validated is the one behind Fig. 13b: with subtask
execution, the iteration time of a coordinated group is predictable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.config import DEFAULT_SIM_CONFIG, ExecutionConfig, SimConfig
from repro.core.fine_executor import run_fine_grained_group
from repro.core.perfmodel import PerfModel
from repro.core.profiler import JobMetrics
from repro.experiments.common import run_single_group
from repro.metrics.reporting import format_table
from repro.workloads.costmodel import CostModel
from repro.workloads.generator import WorkloadGenerator


@dataclass
class GranularityRow:
    label: str
    n_jobs: int
    n_machines: int
    eq1_prediction: float
    group_level_measured: float
    per_worker_measured: float

    @property
    def abstraction_error(self) -> float:
        """Relative gap between the two simulation granularities."""
        return abs(self.group_level_measured - self.per_worker_measured) \
            / self.per_worker_measured

    @property
    def model_error(self) -> float:
        """Relative gap between Eq. 1 and the per-worker ground truth."""
        return abs(self.eq1_prediction - self.per_worker_measured) \
            / self.per_worker_measured


@dataclass
class GranularityResult:
    rows: list[GranularityRow]

    @property
    def worst_abstraction_error(self) -> float:
        return max(row.abstraction_error for row in self.rows)

    @property
    def worst_model_error(self) -> float:
        return max(row.model_error for row in self.rows)


def _quiet_config() -> SimConfig:
    """Deterministic timings and no memory effects: both granularities
    share the memory model, so it would only add variance here."""
    return replace(
        DEFAULT_SIM_CONFIG,
        execution=ExecutionConfig(duration_jitter_cv=0.0,
                                  barrier_overhead=0.0))


def run(iterations: int = 12, seed: int = 2021) -> GranularityResult:
    """Run the experiment; see the module docstring for the modelling
    claim it validates."""
    config = _quiet_config()
    cost_model = CostModel(config.machine)
    perf_model = PerfModel()
    # 16 jobs: 2 hyper-params x 8 (app, dataset) pairs, ordered
    # LDA(4), Lasso(4), MLR(4), NMF(4).
    jobs = WorkloadGenerator(seed).base_workload(hyper_params_per_pair=2)

    cases = [
        ("2 LDA jobs / 8 machines", [jobs[0], jobs[1]], 8),
        ("3 mixed jobs / 16 machines", [jobs[0], jobs[4], jobs[8]], 16),
        ("4 mixed jobs / 24 machines",
         [jobs[1], jobs[5], jobs[9], jobs[13]], 24),
    ]
    rows = []
    for label, specs, n_machines in cases:
        specs = [replace(spec, iterations=iterations) for spec in specs]
        metrics = []
        for spec in specs:
            profile = cost_model.profile(spec, n_machines)
            metrics.append(JobMetrics(spec.job_id,
                                      cpu_work=profile.t_comp
                                      * n_machines,
                                      t_net=profile.t_comm,
                                      m_observed=n_machines))
        eq1 = perf_model.estimate_group(metrics,
                                        n_machines).t_group_iteration

        coarse = run_single_group(specs, n_machines, config=config)
        fine = run_fine_grained_group(specs, n_machines, config,
                                      iterations=iterations, seed=seed)
        rows.append(GranularityRow(
            label=label, n_jobs=len(specs), n_machines=n_machines,
            eq1_prediction=eq1,
            group_level_measured=coarse.pacing_cycle_seconds(),
            per_worker_measured=fine.pacing_cycle_seconds()))
    return GranularityResult(rows=rows)


def report(result: GranularityResult) -> str:
    """Render the validation table."""
    table = format_table(
        ["group", "Eq. 1 (s)", "group-level sim (s)",
         "per-worker sim (s)", "abstraction err", "model err"],
        [(r.label, f"{r.eq1_prediction:.1f}",
          f"{r.group_level_measured:.1f}",
          f"{r.per_worker_measured:.1f}",
          f"{r.abstraction_error:.1%}", f"{r.model_error:.1%}")
         for r in result.rows],
        title="Granularity validation — one-pipeline abstraction vs "
              "Fig. 7 per-worker simulation")
    return table
