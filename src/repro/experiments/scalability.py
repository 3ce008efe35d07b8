"""§V-F: performance and scalability of the scheduling algorithm.

"Harmony can schedule 8K jobs to 10K machines within 5 seconds ... the
exhaustive search algorithm for 4K jobs on 10K machines takes about 10
hours."  We time Algorithm 1 on growing pools and measure the oracle's
partition-space blow-up directly on small pools (Bell-number growth
makes the 10-hour figure obvious by extrapolation).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from repro.baselines.oracle import OracleScheduler
from repro.config import ShardConfig
from repro.core.profiler import Profiler
from repro.core.scheduler import HarmonyScheduler
from repro.metrics.reporting import format_table
from repro.shard.scheduler import ShardedScheduler
from repro.workloads.costmodel import CostModel
from repro.workloads.generator import WorkloadGenerator


@dataclass
class ScaleRow:
    n_jobs: int
    n_machines: int
    seconds: float
    jobs_scheduled: int


@dataclass
class OracleRow:
    n_jobs: int
    seconds: float
    partitions_searched: int


@dataclass
class ScalabilityResult:
    harmony_rows: list[ScaleRow]
    oracle_rows: list[OracleRow]

    @property
    def largest_harmony_seconds(self) -> float:
        """Seconds of the largest Harmony row, or 0.0 for an empty
        sweep (``run(sizes=())`` is a legitimate oracle-only call)."""
        if not self.harmony_rows:
            return 0.0
        return self.harmony_rows[-1].seconds


def _metrics_for(n_jobs: int, seed: int) -> list:
    jobs = WorkloadGenerator(seed).sized_workload(n_jobs)
    cost_model = CostModel()
    profiler = Profiler()
    for job in jobs:
        profile = cost_model.profile(job, 16)
        profiler.record_iteration(job.job_id, profile.t_comp,
                                  profile.t_comm, 16)
    return [profiler.get(job.job_id) for job in jobs]


def run(sizes: tuple[tuple[int, int], ...] = ((80, 100), (1000, 2000),
                                              (8000, 10_000)),
        oracle_sizes: tuple[int, ...] = (4, 6, 8),
        seed: int = 2021) -> ScalabilityResult:
    harmony_rows = []
    for n_jobs, n_machines in sizes:
        metrics = _metrics_for(n_jobs, seed)
        scheduler = HarmonyScheduler()
        # harmony: allow[DET001] scalability exhibit measures real scheduling wall time
        started = time.perf_counter()
        plan = scheduler.schedule(metrics, n_machines)
        # harmony: allow[DET001] scalability exhibit measures real scheduling wall time
        elapsed = time.perf_counter() - started
        harmony_rows.append(ScaleRow(
            n_jobs=n_jobs, n_machines=n_machines, seconds=elapsed,
            jobs_scheduled=plan.n_jobs if plan else 0))

    oracle_rows = []
    for n_jobs in oracle_sizes:
        metrics = _metrics_for(n_jobs, seed)
        oracle = OracleScheduler()
        # harmony: allow[DET001] scalability exhibit measures real scheduling wall time
        started = time.perf_counter()
        oracle.schedule(metrics, 32)
        # harmony: allow[DET001] scalability exhibit measures real scheduling wall time
        elapsed = time.perf_counter() - started
        oracle_rows.append(OracleRow(
            n_jobs=n_jobs, seconds=elapsed,
            partitions_searched=oracle.last_search_size))
    return ScalabilityResult(harmony_rows=harmony_rows,
                             oracle_rows=oracle_rows)


@dataclass
class ShardRow:
    """One (cell count × cluster size) measurement of the sharded sweep."""

    n_cells: int
    n_jobs: int
    n_machines: int
    #: One full schedule of the whole pool from scratch.
    cold_seconds: float
    #: Total over the online churn steps that follow (each = one job
    #: arrival + one profile republish of a running job).
    churn_seconds: float
    jobs_scheduled: int
    score: float

    @property
    def total_seconds(self) -> float:
        return self.cold_seconds + self.churn_seconds


@dataclass
class ShardScalabilityResult:
    rows: list[ShardRow]
    churn_steps: int

    def rows_at(self, n_jobs: int, n_machines: int) -> list[ShardRow]:
        return [row for row in self.rows
                if row.n_jobs == n_jobs and row.n_machines == n_machines]

    @property
    def speedup_at_largest(self) -> float:
        """Unsharded-total / best-sharded-total at the largest size.

        0.0 when the sweep has no size with both an unsharded
        (``n_cells == 1``) and a sharded row — mirrors the empty-sweep
        guard on :attr:`ScalabilityResult.largest_harmony_seconds`.
        """
        if not self.rows:
            return 0.0
        largest = max((row.n_jobs, row.n_machines) for row in self.rows)
        rows = self.rows_at(*largest)
        unsharded = [row for row in rows if row.n_cells == 1]
        sharded = [row for row in rows if row.n_cells > 1]
        if not unsharded or not sharded:
            return 0.0
        return unsharded[0].total_seconds \
            / min(row.total_seconds for row in sharded)


def run_sharded(
        sizes: tuple[tuple[int, int], ...] = ((1000, 2000),
                                              (8000, 10_000)),
        cells: tuple[int, ...] = (1, 8),
        churn_steps: int = 16,
        seed: int = 2021) -> ShardScalabilityResult:
    """The cells × cluster-size sweep in the online-churn setting.

    For each size and cell count: one cold full schedule of ``n_jobs``,
    then ``churn_steps`` online steps, each a job arrival *plus* a
    profile republish (an EMA update replacing one running job's
    :class:`~repro.core.profiler.JobMetrics`) — the steady-state shape
    of a live master, whose profiler republishes running jobs
    constantly.  A republish of a scheduled job changes the unsharded
    scheduler's prefix fingerprints from that job's admission position
    onward, so its plan cache misses there and most of Algorithm 1's
    prefix loop re-runs;
    sharded, it dirties exactly one cell while every other cell answers
    from its memoized plan.  That per-decision asymmetry is the point
    of the exhibit (and what ``benchmarks/bench_scalability.py`` pins a
    >= 3x floor on at the largest size).

    Each scheduler churns its *own* scheduled jobs (round-robin over
    the cold plan's placements in pool order), since only running jobs
    get profiled — deterministic per configuration.
    """
    rows = []
    for n_jobs, n_machines in sizes:
        metrics = _metrics_for(n_jobs + churn_steps, seed)
        pool0, newcomers = metrics[:n_jobs], metrics[n_jobs:]
        for n_cells in cells:
            scheduler = ShardedScheduler(shard=ShardConfig(n_cells=n_cells))
            pool = list(pool0)
            # harmony: allow[DET001] scalability exhibit measures real scheduling wall time
            started = time.perf_counter()
            plan = scheduler.schedule(pool, n_machines)
            # harmony: allow[DET001] scalability exhibit measures real scheduling wall time
            cold = time.perf_counter() - started
            placed = plan.scheduled_job_ids if plan else frozenset()
            running = [index for index, job in enumerate(pool)
                       if job.job_id in placed]
            # harmony: allow[DET001] scalability exhibit measures real scheduling wall time
            started = time.perf_counter()
            for step in range(churn_steps):
                pool.append(newcomers[step])
                scheduler.schedule(pool, n_machines)
                if running:
                    index = running[(step * 997) % len(running)]
                    job = pool[index]
                    pool[index] = replace(
                        job, cpu_work=job.cpu_work * 1.01,
                        samples=job.samples + 1)
                plan = scheduler.schedule(pool, n_machines)
            # harmony: allow[DET001] scalability exhibit measures real scheduling wall time
            churn = time.perf_counter() - started
            rows.append(ShardRow(
                n_cells=n_cells, n_jobs=n_jobs, n_machines=n_machines,
                cold_seconds=cold, churn_seconds=churn,
                jobs_scheduled=plan.n_jobs if plan else 0,
                score=plan.score if plan else 0.0))
    return ShardScalabilityResult(rows=rows, churn_steps=churn_steps)


def report_sharded(result: ShardScalabilityResult) -> str:
    """Render the sharded sweep table."""
    return format_table(
        ["cells", "jobs", "machines", "cold s",
         f"{result.churn_steps} churn steps s", "total s", "placed",
         "score"],
        [(row.n_cells, row.n_jobs, row.n_machines,
          f"{row.cold_seconds:.2f}", f"{row.churn_seconds:.2f}",
          f"{row.total_seconds:.2f}", row.jobs_scheduled,
          f"{row.score:.3f}")
         for row in result.rows],
        title="Sharded scheduling — cells x cluster size, online churn "
              "(arrival + profile republish per step; ROADMAP scale "
              "jump past the paper's §V-F table)")


def report(result: ScalabilityResult) -> str:
    """Render the paper-style rows for this exhibit."""
    lines = [format_table(
        ["jobs", "machines", "schedule() seconds", "jobs placed"],
        [(r.n_jobs, r.n_machines, f"{r.seconds:.2f}", r.jobs_scheduled)
         for r in result.harmony_rows],
        title="§V-F — Harmony scheduling time "
              "(paper: 8K jobs / 10K machines within 5 s)")]
    lines.append(format_table(
        ["jobs", "oracle seconds", "partitions searched"],
        [(r.n_jobs, f"{r.seconds:.3f}", r.partitions_searched)
         for r in result.oracle_rows],
        title="Oracle exhaustive search (Bell-number growth; the paper "
              "reports ~10 h at 4K jobs)"))
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover - manual driver
    print(report(run()))
