"""Differential oracles: simulator vs Eqs. 1-4, Harmony vs exhaustive.

Two independent ground truths bound the simulator and the scheduler:

* :func:`perfmodel_cases` builds exact :class:`JobMetrics` straight
  from the cost model (no profiling noise), predicts the group
  iteration time with Eq. 1, and *measures* the same group in the
  §IV-A execution engine with jitter and barrier overhead switched
  off.  The two must agree within a modest tolerance — the residual
  is real pipelining (the secondary COMM slot overlaps work Eq. 1
  serializes), not noise.
* :func:`oracle_cases` runs Harmony's greedy Algorithm 1 and the §V-F
  exhaustive-search oracle on the same profiled pools and compares the
  predicted cluster-utilization scores.  Harmony must stay within a
  bounded gap of the ground truth (Fig. 14 reports ~95% agreement);
  the gap is one-sided because the two searches order admissions
  differently, so Harmony occasionally *beats* the oracle's
  prefix-restricted search.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.check.oracle import deterministic_config, exact_metrics
from repro.core.memory_manager import FootprintTable
from repro.core.perfmodel import PerfModel
from repro.core.profiler import JobMetrics
from repro.core.scheduler import HarmonyScheduler
from repro.sim.rand import RandomStreams
from repro.workloads.costmodel import CostModel
from repro.workloads.generator import WorkloadGenerator

__all__ = [
    "exact_metrics",  # re-exported from repro.check.oracle
    "perfmodel_cases", "oracle_cases", "run_differential",
    "PerfModelCase", "OracleCase", "DifferentialReport",
]

#: Per-case / mean relative-error bounds for simulator vs Eq. 1.
#: Empirical worst cases over 120 seeded instances: 10.9% / 0.7% (the
#: residual is secondary-COMM pipelining that Eq. 1 serializes).
PERFMODEL_CASE_TOL = 0.20
PERFMODEL_MEAN_TOL = 0.05
#: Per-case / mean bounds for the Harmony-vs-oracle score gap.
#: Empirical worst cases over 120 seeded instances: 24.7% / 3.6%.
ORACLE_CASE_GAP = 0.30
ORACLE_MEAN_GAP = 0.08


@dataclass(frozen=True)
class PerfModelCase:
    """One simulator-vs-Eq.1 comparison."""

    job_ids: tuple[str, ...]
    m: int
    predicted: float
    measured: float

    @property
    def rel_error(self) -> float:
        if self.predicted <= 0:
            return 0.0
        return abs(self.measured - self.predicted) / self.predicted


@dataclass(frozen=True)
class OracleCase:
    """One Harmony-vs-exhaustive-search comparison."""

    n_jobs: int
    n_machines: int
    harmony_score: float
    oracle_score: float

    @property
    def gap(self) -> float:
        """How far Harmony's plan falls short of the ground truth
        (clamped at 0: beating the oracle's restricted search is
        fine)."""
        if self.oracle_score <= 0:
            return 0.0
        return max(0.0, (self.oracle_score - self.harmony_score)
                   / self.oracle_score)


#: Iterations each differential case runs.
PERFMODEL_ITERATIONS = 8


def perfmodel_cases(n_cases: int = 20,
                    seed: int = 2021) -> list[PerfModelCase]:
    """Seeded simulator-vs-Eq.1 instances (``n_cases`` of them)."""
    from repro.experiments.common import run_single_group

    rng = RandomStreams(seed).spawn("check-differential").stream(
        "perfmodel")
    config = deterministic_config(seed)
    cost_model = CostModel(config.machine)
    footprints = FootprintTable(cost_model, config.memory, mode_spills=False)
    pool = WorkloadGenerator(seed).base_workload(hyper_params_per_pair=1)
    budget = cost_model.spec.usable_memory_bytes * 0.70

    cases: list[PerfModelCase] = []
    while len(cases) < n_cases:
        n_jobs = int(rng.integers(1, 4))
        m = int(rng.integers(6, 17))
        chosen = [pool[i] for i in rng.choice(len(pool), size=n_jobs,
                                              replace=False)]
        # Keep the group below the GC onset with spill disabled, so
        # memory pressure cannot inflate COMP beyond the model.
        resident = sum(footprints.resident(spec, m, footprints.alpha)
                       for spec in chosen)
        if resident > budget:
            continue
        specs = [replace(spec, iterations=PERFMODEL_ITERATIONS,
                         submit_time=0.0)
                 for spec in chosen]
        metrics = [exact_metrics(cost_model, spec, m) for spec in specs]
        predicted = PerfModel().estimate_group(
            metrics, m).t_group_iteration
        result = run_single_group(specs, m, config=config)
        cases.append(PerfModelCase(
            job_ids=tuple(spec.job_id for spec in specs), m=m,
            predicted=predicted,
            measured=result.pacing_cycle_seconds()))
    return cases


def oracle_cases(n_cases: int = 20, seed: int = 2021) -> \
        list[OracleCase]:
    """Seeded Harmony-vs-oracle instances (``n_cases`` of them)."""
    from repro.baselines.oracle import OracleScheduler

    rng = RandomStreams(seed).spawn("check-differential").stream(
        "oracle")
    cases: list[OracleCase] = []
    for _ in range(n_cases):
        n_jobs = int(rng.integers(4, 8))
        n_machines = int(rng.integers(6, 13))
        pool = [JobMetrics(job_id=f"j{i}",
                           cpu_work=float(rng.uniform(40.0, 600.0)),
                           t_net=float(rng.uniform(5.0, 60.0)),
                           m_observed=16)
                for i in range(n_jobs)]
        harmony = HarmonyScheduler().schedule(pool, n_machines)
        oracle = OracleScheduler().schedule(pool, n_machines)
        cases.append(OracleCase(
            n_jobs=n_jobs, n_machines=n_machines,
            harmony_score=harmony.score if harmony is not None else 0.0,
            oracle_score=oracle.score if oracle is not None else 0.0))
    return cases


@dataclass(frozen=True)
class DifferentialReport:
    """Aggregated differential results with pass/fail verdicts."""

    perfmodel: tuple[PerfModelCase, ...]
    oracle: tuple[OracleCase, ...]

    @property
    def perfmodel_max_error(self) -> float:
        return max((c.rel_error for c in self.perfmodel), default=0.0)

    @property
    def perfmodel_mean_error(self) -> float:
        if not self.perfmodel:
            return 0.0
        return float(np.mean([c.rel_error for c in self.perfmodel]))

    @property
    def oracle_max_gap(self) -> float:
        return max((c.gap for c in self.oracle), default=0.0)

    @property
    def oracle_mean_gap(self) -> float:
        if not self.oracle:
            return 0.0
        return float(np.mean([c.gap for c in self.oracle]))

    @property
    def ok(self) -> bool:
        return not self.failures()

    def failures(self) -> list[str]:
        problems = []
        if self.perfmodel_max_error > PERFMODEL_CASE_TOL:
            problems.append(
                f"simulator vs Eq.1: worst case off by "
                f"{self.perfmodel_max_error:.1%} "
                f"(limit {PERFMODEL_CASE_TOL:.0%})")
        if self.perfmodel_mean_error > PERFMODEL_MEAN_TOL:
            problems.append(
                f"simulator vs Eq.1: mean error "
                f"{self.perfmodel_mean_error:.1%} "
                f"(limit {PERFMODEL_MEAN_TOL:.0%})")
        if self.oracle_max_gap > ORACLE_CASE_GAP:
            problems.append(
                f"Harmony vs oracle: worst gap {self.oracle_max_gap:.1%} "
                f"(limit {ORACLE_CASE_GAP:.0%})")
        if self.oracle_mean_gap > ORACLE_MEAN_GAP:
            problems.append(
                f"Harmony vs oracle: mean gap {self.oracle_mean_gap:.1%} "
                f"(limit {ORACLE_MEAN_GAP:.0%})")
        return problems

    def summary(self) -> str:
        return (f"differential: {len(self.perfmodel)} Eq.1 cases "
                f"(mean {self.perfmodel_mean_error:.1%}, max "
                f"{self.perfmodel_max_error:.1%}); {len(self.oracle)} "
                f"oracle cases (mean gap {self.oracle_mean_gap:.1%}, "
                f"max {self.oracle_max_gap:.1%})")


def run_differential(n_cases: int = 20,
                     seed: int = 2021) -> DifferentialReport:
    """Run both differential suites and aggregate the verdict."""
    return DifferentialReport(
        perfmodel=tuple(perfmodel_cases(n_cases, seed)),
        oracle=tuple(oracle_cases(n_cases, seed)))
