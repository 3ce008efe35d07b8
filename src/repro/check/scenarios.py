"""Seeded scenario generation and checked execution.

A :class:`ScenarioGenerator` derives a full experiment — job mix,
arrival pattern, cluster size, scheduler knobs, alpha settings, cell
count and an optional fault plan — from a single integer seed, through
the same named random streams the simulator uses.  The seed is therefore a
complete reproduction recipe: any failure found by the fuzzer (CI, the
hypothesis suite, or ``python -m repro check``) is replayed with one
line::

    PYTHONPATH=src python -m repro check --seed N
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.check.invariants import InvariantChecker, Violation
from repro.config import (
    ADMISSION_ORDERS,
    ExecutionConfig,
    MemoryConfig,
    SchedulerConfig,
    SimConfig,
)
from repro.core.job import JobState
from repro.errors import ReproError
from repro.faults.plan import FaultPlan
from repro.sim.rand import RandomStreams
from repro.workloads.apps import JobSpec
from repro.workloads.generator import WorkloadGenerator

#: Simulated-time ceiling: a scenario still running after this long is
#: reported as stuck (the generator's job mixes finish in well under a
#: simulated week).
MAX_SCENARIO_SECONDS = 30.0 * 24 * 3600.0


@dataclass(frozen=True)
class Scenario:
    """One fully-determined checked run."""

    seed: int
    n_machines: int
    specs: tuple[JobSpec, ...]
    config: SimConfig
    fault_plan: FaultPlan | None

    def describe(self) -> str:
        fault = (f"{len(self.fault_plan)} fault(s)"
                 if self.fault_plan is not None else "no faults")
        scheduler = self.config.scheduler
        return (f"seed {self.seed}: {len(self.specs)} jobs on "
                f"{self.n_machines} machines, "
                f"order={scheduler.admission_order}, "
                f"alpha={self.config.memory.fixed_alpha}, "
                f"jitter={self.config.execution.duration_jitter_cv}, "
                f"cells={self.config.shard.n_cells}, {fault}")

    @property
    def replay_command(self) -> str:
        return f"PYTHONPATH=src python -m repro check --seed {self.seed}"


@dataclass
class CheckedRun:
    """Outcome of one scenario executed with the checker enabled."""

    scenario: Scenario
    violations: list[Violation]
    error: str | None = None
    finished_jobs: int = 0
    sim_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations and self.error is None

    def report(self) -> str:
        if self.ok:
            return (f"OK   {self.scenario.describe()} -> "
                    f"{self.finished_jobs} jobs finished in "
                    f"{self.sim_seconds / 3600:.1f} simulated hours")
        lines = [f"FAIL {self.scenario.describe()}"]
        if self.error is not None:
            lines.append(f"  error: {self.error}")
        lines.extend(f"  {violation}"
                     for violation in self.violations)
        lines.append(f"  replay: {self.scenario.replay_command}")
        return "\n".join(lines)


class ScenarioGenerator:
    """Derives a :class:`Scenario` deterministically from a seed."""

    def __init__(self, seed: int):
        self.seed = seed
        self._streams = RandomStreams(seed).spawn("check-scenario")

    def generate(self) -> Scenario:
        rng = self._streams.stream("shape")
        n_machines = int(rng.integers(20, 33))

        pool = WorkloadGenerator(self.seed).base_workload(
            hyper_params_per_pair=1)
        n_jobs = int(rng.integers(3, len(pool) + 1))
        chosen = [pool[i] for i in
                  sorted(rng.choice(len(pool), size=n_jobs,
                                    replace=False))]
        staggered = bool(rng.random() < 0.5)
        gap = float(rng.uniform(150.0, 600.0)) if staggered else 0.0
        specs = tuple(
            replace(spec,
                    iterations=int(rng.integers(3, 9)),
                    submit_time=index * gap)
            for index, spec in enumerate(chosen))

        scheduler = SchedulerConfig(
            admission_order=ADMISSION_ORDERS[
                int(rng.integers(0, len(ADMISSION_ORDERS)))],
            reschedule_check_seconds=float(
                rng.choice([600.0, 1200.0])))
        execution = ExecutionConfig(
            duration_jitter_cv=float(rng.choice([0.0, 0.02, 0.05])),
            barrier_overhead=float(rng.choice([0.0, 0.01])))
        # alpha settings: mostly the §IV-C hill-climb, occasionally the
        # fixed-alpha baseline (spill stays on so every Table I job can
        # be placed on a small cluster).
        fixed_alpha = 0.5 if rng.random() < 0.25 else None
        memory = MemoryConfig(fixed_alpha=fixed_alpha)

        fault_plan = None
        if rng.random() < 0.5:
            fault_plan = FaultPlan.generate(
                seed=self.seed,
                n_machines=n_machines,
                horizon_seconds=float(rng.uniform(4000.0, 20000.0)),
                crash_rate_per_hour=float(rng.uniform(0.3, 1.5)),
                slowdown_rate_per_hour=float(rng.uniform(0.0, 1.0)),
                drop_rate_per_hour=float(rng.uniform(0.0, 2.0)),
                crash_downtime_seconds=float(rng.uniform(300.0, 900.0)))

        # Drawn from its own stream so that every other field of a seed
        # stays what it was before the cell count was drawn.
        n_cells = int(self._streams.stream("shard").choice([1, 2, 4]))
        config = SimConfig(seed=self.seed, scheduler=scheduler,
                           execution=execution, memory=memory) \
            .with_sharding(n_cells).with_tracing()
        return Scenario(seed=self.seed, n_machines=n_machines,
                        specs=specs, config=config,
                        fault_plan=fault_plan)


def run_checked(scenario: Scenario,
                checker: InvariantChecker | None = None) -> CheckedRun:
    """Execute a scenario end to end with all invariants enforced."""
    from repro.core.runtime import HarmonyRuntime

    checker = checker if checker is not None else InvariantChecker()
    runtime = HarmonyRuntime(scenario.n_machines, scenario.specs,
                             config=scenario.config,
                             fault_plan=scenario.fault_plan)
    error: str | None = None
    try:
        runtime.run(max_sim_seconds=MAX_SCENARIO_SECONDS)
    except ReproError as exc:
        error = f"{type(exc).__name__}: {exc}"
    if error is None:
        stuck = [job.job_id for job in runtime.master.jobs.values()
                 if not job.is_done]
        if len(runtime.master.jobs) < len(scenario.specs):
            error = (f"only {len(runtime.master.jobs)} of "
                     f"{len(scenario.specs)} jobs were submitted")
        elif stuck:
            error = (f"stuck: {len(stuck)} job(s) unfinished after "
                     f"{MAX_SCENARIO_SECONDS:.0f} simulated seconds: "
                     f"{stuck[:5]}")
    violations = checker.check_runtime(runtime)
    finished = sum(1 for job in runtime.master.jobs.values()
                   if job.state is JobState.FINISHED)
    # sim.run(until=...) advances the clock to the bound even when the
    # queue drains early; report when work actually ended.
    last_finish = max(
        (job.finish_time for job in runtime.master.jobs.values()
         if job.finish_time is not None), default=runtime.sim.now)
    return CheckedRun(scenario=scenario, violations=violations,
                      error=error, finished_jobs=finished,
                      sim_seconds=last_finish)
