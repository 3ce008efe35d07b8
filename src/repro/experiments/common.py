"""Shared plumbing for the experiment drivers."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

from repro.config import DEFAULT_SIM_CONFIG, SimConfig
from repro.core.group_runtime import ExecutionMode, GroupRuntime
from repro.core.job import Job, JobState
from repro.errors import OutOfMemoryError
from repro.sim import RandomStreams, Simulator
from repro.trace.tracer import Tracer
from repro.workloads.apps import JobSpec
from repro.workloads.costmodel import CostModel
from repro.workloads.generator import WorkloadGenerator

#: Paper-scale experiment size (§V-B).
PAPER_MACHINES = 100
PAPER_JOBS = 80


def scaled_workload(scale: float = 1.0, seed: int = 2021) -> \
        tuple[list[JobSpec], int]:
    """The base workload and cluster shrunk by ``scale``.

    ``scale=1.0`` is the paper's 80 jobs / 100 machines; smaller scales
    shrink both proportionally (at least 1 hyper-param per app/dataset
    pair, and at least 20 machines so the *no-spill* baselines can
    place the largest Table I job) so quick test/bench runs keep the
    same shape.
    """
    if not 0.0 < scale <= 1.0:
        raise ValueError(f"scale {scale} not in (0, 1]")
    hyper = max(1, round(10 * scale))
    machines = max(20, round(PAPER_MACHINES * scale))
    jobs = WorkloadGenerator(seed).base_workload(
        hyper_params_per_pair=hyper)
    return jobs, machines


@dataclass
class SingleGroupResult:
    """Measured behaviour of one job group run to completion."""

    job_ids: tuple[str, ...]
    n_machines: int
    cpu_utilization: float
    net_utilization: float
    mean_iteration_seconds: float
    duration_seconds: float
    #: Per-job mean cycle times, first (pipeline-fill) cycle excluded.
    per_job_cycle_seconds: dict = None  # type: ignore[assignment]
    oom: OutOfMemoryError | None = None
    #: The run's tracer when ``config.trace.enabled`` (else None).
    trace: Tracer | None = None

    @property
    def failed(self) -> bool:
        return self.oom is not None

    def pacing_cycle_seconds(self) -> float:
        """The slowest job's mean cycle — the measured counterpart of
        Eq. 1's ``max`` semantics (in a job-bound group the largest job
        paces the group while smaller ones cycle faster)."""
        if not self.per_job_cycle_seconds:
            return self.mean_iteration_seconds
        return max(self.per_job_cycle_seconds.values())


class _CollectingHooks:
    """Minimal GroupHooks that records terminal events."""

    #: No per-iteration behaviour at all.
    on_iteration = None

    def __init__(self):
        self.finished: list[str] = []
        self.failed: list[tuple[str, OutOfMemoryError]] = []

    def on_job_finished(self, job, group):
        job.transition(JobState.FINISHED)
        self.finished.append(job.job_id)

    def on_job_paused(self, job, group):  # pragma: no cover - unused
        job.transition(JobState.PAUSED)

    def on_job_failed(self, job, group, error):
        job.transition(JobState.FAILED)
        self.failed.append((job.job_id, error))


def run_single_group(specs: Sequence[JobSpec], n_machines: int,
                     mode: ExecutionMode = ExecutionMode.HARMONY,
                     config: SimConfig = DEFAULT_SIM_CONFIG,
                     max_iterations: int | None = None) -> \
        SingleGroupResult:
    """Run one fixed job group to completion and measure it.

    The workhorse behind Figs. 2-4 and the §V-G micro-benchmarks: no
    master, no scheduling — just the §IV-A execution engine on one
    machine set.
    """
    sim = Simulator()
    if config.trace.enabled:
        sim.tracer = Tracer(sim.clock(), config.trace)
    cost_model = CostModel(config.machine)
    hooks = _CollectingHooks()
    group = GroupRuntime(sim, "exp", tuple(range(n_machines)), mode,
                         cost_model, config, RandomStreams(config.seed),
                         hooks)
    for spec in specs:
        if max_iterations is not None:
            spec = replace(spec, iterations=min(spec.iterations,
                                                max_iterations))
        job = Job(spec)
        job.transition(JobState.RUNNING)
        group.add_job(job)
    sim.run()
    group.stop()  # every job has left the group by now
    duration = sim.now
    # A group fails a job only on an OOM at admission (NAIVE mode).
    oom = hooks.failed[0][1] if hooks.failed else None
    cycles = [c.duration for c in group.cycles]
    per_job: dict[str, float] = {}
    for job_id in sorted({c.job_id for c in group.cycles}):
        durations = [c.duration for c in group.cycles
                     if c.job_id == job_id][1:]
        if durations:
            per_job[job_id] = sum(durations) / len(durations)
    return SingleGroupResult(
        job_ids=tuple(spec.job_id for spec in specs),
        n_machines=n_machines,
        cpu_utilization=(group.cpu.busy_seconds / duration
                         if duration > 0 else 0.0),
        net_utilization=(group.net.busy_seconds / duration
                         if duration > 0 else 0.0),
        mean_iteration_seconds=(sum(cycles) / len(cycles)
                                if cycles else 0.0),
        duration_seconds=duration,
        per_job_cycle_seconds=per_job,
        oom=oom,
        trace=sim.tracer)
