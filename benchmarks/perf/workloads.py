"""The benchmark's five workloads.

Every workload is a closed loop: one caller, and each call is made only
after the previous one returned.  A workload builds its inputs from the
seed in :meth:`setup`, and :meth:`calls` yields one *pass*: the fixed
sequence of calls the harness times one by one.  A pass is the same on
every repetition, so its outcomes must repeat exactly.

A pass holds several input instances drawn from the seed (eight runs on
``fig10``, four on ``group5`` and ``solo``, two streams on ``churn``),
because one instance's host cost depends on its draw: a fig10 run's by
13-18% (coefficient of variation).  ``sharded`` replays one stream.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, replace

from repro.check.invariants import InvariantChecker
from repro.check.oracle import deterministic_config
from repro.config import DEFAULT_SIM_CONFIG, ShardConfig, SimConfig
from repro.core import regroup
from repro.core.group_runtime import ExecutionMode
from repro.core.job import JobState
from repro.core.profiler import Profiler
from repro.core.runtime import HarmonyRuntime
from repro.core.scheduler import HarmonyScheduler, SchedulePlan
from repro.errors import SchedulingError
from repro.experiments import common, sched_churn, scalability, sim_engines
from repro.shard.scheduler import ShardedScheduler
from repro.workloads.generator import WorkloadGenerator

SCHEDULER_CONFIG = DEFAULT_SIM_CONFIG.scheduler


def instance_seeds(seed: int, count: int) -> list[int]:
    """Seeds of a pass's input instances; the first is ``seed`` itself."""
    return [seed + 10_000 * index for index in range(count)]


@dataclass
class Outcome:
    """What the harness keeps of one call: work done, and its checks."""

    #: Work units the call completed (see :attr:`Workload.unit`).
    units: int
    #: Operations attempted and failed: jobs on the simulation
    #: workloads, decisions on the scheduler workloads.
    attempted: int
    failed: int
    #: Exact simulated or planned outcome; must repeat on every pass.
    digest: tuple
    #: Outcome values reported (averaged over the first pass's calls).
    values: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


class Workload:
    name: str
    #: What one work unit is, for ``throughput_per_s``.
    unit: str
    #: Calls made in the untimed warm-up (None: a whole pass).
    warmup_calls: int | None = 1

    def setup(self, seed: int):
        raise NotImplementedError

    def calls(self, inputs) -> Iterator[Callable[[], object]]:
        raise NotImplementedError

    def inspect(self, raw) -> Outcome:
        """Check one call's result.  The harness calls this right after
        the call returns, before the pass moves on."""
        raise NotImplementedError

    def cross_check(self, inputs, digests: list[tuple]) -> list[str]:
        """Problems found by computing outcomes of a pass, whose digests
        are ``digests``, another way; none when there is no other way."""
        return []


# -- simulation workloads ------------------------------------------------


class Fig10(Workload):
    """The paper's headline run: 80 jobs on 100 machines, to completion."""

    name = "fig10"
    unit = "simulated job-iterations"
    instances = 8

    def setup(self, seed: int):
        inputs = []
        for instance_seed in instance_seeds(seed, self.instances):
            jobs, machines = common.scaled_workload(1.0, instance_seed)
            inputs.append((jobs, machines, SimConfig(seed=instance_seed)))
        return inputs

    def calls(self, inputs):
        for jobs, machines, config in inputs:
            yield functools.partial(_run_harmony, jobs, machines, config)

    def inspect(self, raw) -> Outcome:
        runtime, result = raw
        jobs = runtime.workload
        unfinished = sorted(job_id for job_id, outcome
                            in result.outcomes.items()
                            if outcome.state is not JobState.FINISHED)
        unfinished += [spec.job_id for spec in jobs
                       if spec.job_id not in result.outcomes]
        problems = [f"{len(unfinished)} of {len(jobs)} jobs not finished: "
                    f"{unfinished[:5]}"] if unfinished else []
        problems += [f"invariant: {violation}" for violation
                     in InvariantChecker().check_runtime(runtime)]
        values = {}
        if len(unfinished) < len(jobs):
            values = {"sim_jct_mean_s": result.mean_jct,
                      "sim_makespan_s": result.makespan,
                      "sim_cpu_util": result.average_utilization("cpu")}
        return Outcome(units=sum(spec.iterations for spec in jobs),
                       attempted=len(jobs), failed=len(unfinished),
                       digest=tuple(sorted(values.items())), values=values,
                       problems=problems)


def _run_harmony(jobs, machines, config):
    # Looked up per call, so that a traced pass sees the wrapped methods.
    runtime = HarmonyRuntime(machines, jobs, config=config)
    return runtime, runtime.run()


class Group(Workload):
    """One fixed job group run to completion, with no master."""

    def __init__(self, name: str, n_jobs: int, iterations: int,
                 machines: int, mode: ExecutionMode, instances: int):
        self.name = name
        self.unit = "simulated job-iterations"
        self.n_jobs = n_jobs
        self.iterations = iterations
        self.machines = machines
        self.mode = mode
        self.instances = instances

    def setup(self, seed: int):
        inputs = []
        for instance_seed in instance_seeds(seed, self.instances):
            pool = WorkloadGenerator(instance_seed).base_workload(
                hyper_params_per_pair=1)
            specs = [replace(pool[index % len(pool)], job_id=f"j{index}",
                             iterations=self.iterations, submit_time=0.0)
                     for index in range(self.n_jobs)]
            inputs.append((specs, deterministic_config(instance_seed)))
        return inputs

    def calls(self, inputs):
        for specs, config in inputs:
            yield functools.partial(_run_group, specs, self.machines,
                                    self.mode, config)

    def inspect(self, result) -> Outcome:
        problems = []
        if result.failed:
            problems.append(f"group failed: {result.oom}")
        missing = set(result.job_ids) - set(result.per_job_cycle_seconds)
        if missing:
            problems.append(f"jobs without cycles: {sorted(missing)}")
        values = {"sim_makespan_s": result.duration_seconds,
                  "sim_cpu_util": result.cpu_utilization}
        return Outcome(
            units=self.n_jobs * self.iterations, attempted=self.n_jobs,
            failed=self.n_jobs if problems else 0,
            digest=(result.duration_seconds, result.mean_iteration_seconds,
                    tuple(sorted(result.per_job_cycle_seconds.items()))),
            values=values, problems=problems)

    def cross_check(self, inputs, digests):
        specs, config = inputs[0]
        other_way = self.inspect(_run_group(
            specs, self.machines, self.mode,
            config.with_engine("reference"))).digest
        if digests[:1] != [other_way]:
            return ["the first call's outcome differs from the reference "
                    "engine's"]
        return []


def _run_group(specs, machines, mode, config):
    # Looked up per call, so that a traced pass sees the wrapped function.
    return common.run_single_group(specs, machines, mode=mode, config=config)


# -- scheduler workloads -------------------------------------------------


def plan_problems(plan: SchedulePlan | None, pool_ids: frozenset[str],
                  machines: int) -> list[str]:
    """Why ``plan`` is not a valid decision for ``pool_ids``, if it isn't."""
    if plan is None:
        return ["no plan"]
    problems = []
    placed = [job_id for group in plan.groups for job_id in group.job_ids]
    if len(placed) != len(set(placed)):
        problems.append("a job is placed twice")
    if not set(placed) <= pool_ids:
        problems.append("a placed job is not in the pool")
    if plan.machines_used > machines:
        problems.append(f"{plan.machines_used} machines used of {machines}")
    if any(group.n_machines < 1 for group in plan.groups):
        problems.append("a group has no machine")
    return problems


@dataclass
class Decision:
    plan: SchedulePlan | None
    #: The live pool the plan was made for; the harness inspects a
    #: decision before the stream moves on and changes it.
    pool: list
    machines: int
    #: Score of the plan a patch replaced, when the decision is a patch.
    replaced_score: float | None = None


class Churn(Workload):
    """Seeded streams of arrivals, completions, profile updates and
    periodic checks, each replayed through one scheduler (§IV-B4 patches
    on completions).  Every stream event is one call."""

    name = "churn"
    unit = "stream events"
    #: The first full replay runs 10-15% slower than the next ones while
    #: the patch and profiler paths warm up, so warm up with a whole pass.
    warmup_calls = None
    #: The shape of :func:`repro.experiments.sched_churn.run`, two streams
    #: per pass.
    n_jobs = 220
    n_initial = 120
    n_events = 160
    machines = 1000
    #: The seed draws each stream's jobs; its event pattern comes from a
    #: fixed stream seed.  How many arrivals (which re-plan the pool) and
    #: checks (cache hits) a stream holds decides most of its cost, and
    #: varies by up to 1.8x between stream seeds.
    stream_seeds = (2022, 12022)

    def setup(self, seed: int):
        inputs = []
        for instance_seed, stream_seed in zip(
                instance_seeds(seed, len(self.stream_seeds)),
                self.stream_seeds, strict=True):
            profiles = sched_churn._base_profiles(self.n_jobs, instance_seed)
            events = sched_churn.generate_stream(
                profiles, self.n_initial, self.n_events, seed=stream_seed,
                similarity_threshold=SCHEDULER_CONFIG.similarity_threshold)
            inputs.append((profiles, events))
        return inputs

    def calls(self, inputs):
        for profiles, events in inputs:
            yield from self._replay(profiles, events)

    def _replay(self, profiles, events):
        # Mirrors sched_churn.replay event by event, so that each event is
        # a call of its own; cross_check holds the two to the same plans.
        dop = sched_churn._PROFILE_DOP
        threshold = SCHEDULER_CONFIG.regroup_benefit_threshold
        scheduler = HarmonyScheduler(config=SCHEDULER_CONFIG)
        profiler = Profiler()
        for job_id, t_cpu, t_net in profiles:
            profiler.record_iteration(job_id, t_cpu, t_net, dop)
        profiler.add_listener(scheduler.plan_cache.invalidate_job)
        pool_ids = [job_id for job_id, _, _ in profiles[:self.n_initial]]
        last: list[Decision] = []

        def schedule() -> Decision:
            pool = [profiler.get(job_id) for job_id in pool_ids]
            last[:] = [Decision(scheduler.schedule(pool, self.machines),
                                pool_ids, self.machines)]
            return last[0]

        def complete(finished: str, replacement: str | None) -> Decision:
            previous = last[0].plan
            if previous is not None and finished in previous.scheduled_job_ids:
                index = next(i for i, group in enumerate(previous.groups)
                             if finished in group.job_ids)
                extra = [profiler.get(replacement)] if replacement else []
                patched = regroup.splice_plan(
                    previous, scheduler.perf_model, index, finished, extra,
                    metrics_for=profiler.get)
                if patched.score >= previous.score * (1.0 - threshold):
                    last[:] = [Decision(patched, pool_ids, self.machines,
                                        previous.score)]
                    return last[0]
            return schedule()

        def update(job_id: str, cpu_factor: float, net_factor: float) -> None:
            metrics = profiler.get(job_id)
            profiler.record_iteration(job_id,
                                      metrics.cpu_work / dop * cpu_factor,
                                      metrics.t_net * net_factor, dop)

        yield schedule
        for event in events:
            kind = event[0]
            if kind == "arrival":
                pool_ids.append(event[1])
                yield schedule
            elif kind == "completion":
                finished, replacement = event[1], event[2]
                pool_ids.remove(finished)
                if replacement is not None:
                    pool_ids.append(replacement)
                yield functools.partial(complete, finished, replacement)
            elif kind == "iteration":
                yield functools.partial(update, *event[1:])
            else:
                yield schedule

    def inspect(self, decision: Decision | None) -> Outcome:
        if decision is None:
            return Outcome(units=1, attempted=1, failed=0, digest=("update",))
        plan = decision.plan
        problems = plan_problems(plan, frozenset(decision.pool),
                                 decision.machines)
        threshold = SCHEDULER_CONFIG.regroup_benefit_threshold
        if (plan is not None and decision.replaced_score is not None
                and plan.score < decision.replaced_score * (1.0 - threshold)):
            problems.append("an accepted patch falls below the regroup "
                            "threshold")
        return _decision_outcome(plan, problems,
                                 patched=decision.replaced_score is not None)

    def cross_check(self, inputs, digests):
        """Each stream's decisions, full schedules and patches, must score
        exactly as in the experiment's own replay."""
        problems = []
        start = 0
        for index, (profiles, events) in enumerate(inputs):
            stream = digests[start:start + 1 + len(events)]
            start += 1 + len(events)
            ours = [(digest[0], dict(digest[1:]).get("plan_score", 0.0))
                    for digest in stream if digest != ("update",)]
            replayed = sched_churn._replay_with(
                HarmonyScheduler(config=SCHEDULER_CONFIG), profiles, events,
                self.n_initial, self.machines, "fast", use_patch=True,
                regroup_threshold=SCHEDULER_CONFIG.regroup_benefit_threshold)
            theirs = [(kind == "patched", score)
                      for kind, score in replayed.scores]
            if ours != theirs:
                problems.append(f"stream {index}: decisions differ from "
                                "sched_churn.replay's")
        return problems


def _decision_outcome(plan: SchedulePlan | None, problems: list[str],
                      patched: bool = False) -> Outcome:
    values = {}
    if plan is not None:
        values = {"plan_score": plan.score,
                  "plan_jobs": float(len(plan.scheduled_job_ids))}
    return Outcome(units=1, attempted=1, failed=1 if problems else 0,
                   digest=(patched, *sorted(values.items())), values=values,
                   problems=problems)


class Sharded(Workload):
    """The 32K-job / 40K-machine cluster-of-cells sweep in the online
    setting: after a cold schedule, steps of one arrival plus one profile
    republish, each step two decisions."""

    name = "sharded"
    unit = "decisions"
    n_jobs = 32_000
    machines = 40_000
    n_cells = 32
    steps = 64

    def setup(self, seed: int):
        metrics = scalability._metrics_for(self.n_jobs + self.steps, seed)
        return metrics[:self.n_jobs], metrics[self.n_jobs:]

    def calls(self, inputs):
        initial, newcomers = inputs
        scheduler = ShardedScheduler(config=SCHEDULER_CONFIG,
                                     shard=ShardConfig(n_cells=self.n_cells))
        pool = list(initial)
        # The cold schedule builds every cell's plan cache; like set-up it
        # happens once per pass, before the first timed call.
        cold = scheduler.schedule(pool, self.machines)
        problems = plan_problems(cold, frozenset(job.job_id for job in pool),
                                 self.machines)
        if problems:
            raise SchedulingError(f"cold plan is invalid: {problems}")
        placed = cold.scheduled_job_ids
        running = [index for index, job in enumerate(pool)
                   if job.job_id in placed]

        def schedule() -> Decision:
            return Decision(scheduler.schedule(pool, self.machines), pool,
                            self.machines)

        for step in range(self.steps):
            pool.append(newcomers[step])
            yield schedule
            index = running[(step * 997) % len(running)]
            job = pool[index]
            pool[index] = replace(job, cpu_work=job.cpu_work * 1.01,
                                  samples=job.samples + 1)
            yield schedule

    def inspect(self, decision: Decision) -> Outcome:
        return _decision_outcome(
            decision.plan,
            plan_problems(decision.plan,
                          frozenset(job.job_id for job in decision.pool),
                          decision.machines))


# Simulation calls are kept short (0.07-0.3 s, except fig10's 1 s
# headline run): the reference speed (speed.py) follows the host's speed
# changes between calls, not within one.
WORKLOADS: dict[str, Workload] = {
    workload.name: workload for workload in (
        Fig10(),
        Group("group5", n_jobs=sim_engines.MULTI_JOBS,
              iterations=sim_engines.MULTI_ITERATIONS,
              machines=sim_engines.MULTI_MACHINES,
              mode=ExecutionMode.HARMONY, instances=4),
        # 8,000 iterations keeps the simulated clock below ~7e6 s on every
        # seed: RateResource livelocks on some seeds past ~1.6e7 s.
        Group("solo", n_jobs=1, iterations=8_000, machines=4,
              mode=ExecutionMode.ISOLATED, instances=4),
        Churn(),
        Sharded(),
    )
}
