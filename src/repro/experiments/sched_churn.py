"""Scheduler churn stream: decisions under arrival/completion streams.

Online DL-cluster schedulers run placement inside the serving loop, so
what matters at the §V-F scale is not one cold ``schedule()`` call but
the decisions across a stream of arrivals, completions, metric updates,
and periodic regroup checks — exactly the call pattern
:class:`~repro.core.master.HarmonyMaster` generates.  This module
replays one seeded stream through the incremental
:class:`~repro.core.scheduler.HarmonyScheduler` (plan cache, §IV-B4
plan patching on completions) and records every decision's plan
score plus how often each shortcut engaged.

The stream is generated up front as pure data, so any two replays see
the identical pool history and their score streams are
position-aligned; ``tests/test_sched_fastpath.py`` replays it through
the frozen test oracle as well.  Decision throughput is measured by the
``churn`` workload of ``benchmarks/perf/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import DEFAULT_SIM_CONFIG
from repro.core.profiler import JobMetrics, Profiler
from repro.core.regroup import find_similar_job, splice_plan
from repro.core.scheduler import HarmonyScheduler
from repro.metrics.reporting import format_table
from repro.workloads.costmodel import CostModel
from repro.workloads.generator import WorkloadGenerator

#: Characterization DoP: jobs are profiled (and similarity is judged)
#: at this machine count, like the scalability harness.
_PROFILE_DOP = 16

#: The replayed stream: jobs drawn, jobs in the initial pool, stream
#: events, and the machine count each decision plans for.
N_JOBS = 220
N_INITIAL = 120
N_EVENTS = 160
MACHINES = 1000


@dataclass
class ChurnRunResult:
    """One replay of the stream under one scheduler."""

    label: str
    n_schedule_calls: int = 0
    n_patched: int = 0
    #: (event kind, plan score) per scheduling event, in stream order.
    scores: list = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    #: Planned prefixes whose n_G* the L6 end certificate settled.
    groups_certified: int = 0


def _base_profiles(n_jobs: int, seed: int) -> list[tuple[str, float, float]]:
    """(job_id, t_cpu, t_net) measured at the characterization DoP."""
    jobs = WorkloadGenerator(seed).sized_workload(n_jobs)
    cost_model = CostModel()
    profiles = []
    for job in jobs:
        profile = cost_model.profile(job, _PROFILE_DOP)
        profiles.append((job.job_id, profile.t_comp, profile.t_comm))
    return profiles


def generate_stream(profiles: list[tuple[str, float, float]],
                    n_initial: int, n_events: int, seed: int,
                    similarity_threshold: float = 0.05) -> list[tuple]:
    """The seeded event stream, as pure data shared by every replay.

    Events: ``("arrival", job_id)``, ``("completion", finished_id,
    replacement_id_or_None)``, ``("iteration", job_id, cpu_factor,
    net_factor)``, ``("check",)``.  Completion replacements are decided
    here (similarity at the characterization DoP) so the pool history
    cannot depend on which scheduler replays the stream.
    """
    rng = np.random.default_rng(seed)
    base = {job_id: JobMetrics(job_id=job_id,
                               cpu_work=t_cpu * _PROFILE_DOP,
                               t_net=t_net, m_observed=_PROFILE_DOP)
            for job_id, t_cpu, t_net in profiles}
    pool = [job_id for job_id, _, _ in profiles[:n_initial]]
    waiting = [job_id for job_id, _, _ in profiles[n_initial:]]
    events: list[tuple] = []
    for _ in range(n_events):
        roll = rng.random()
        if roll < 0.30 and waiting:
            job_id = waiting.pop(0)
            pool.append(job_id)
            events.append(("arrival", job_id))
        elif roll < 0.55 and len(pool) > max(2, n_initial // 2):
            finished = pool.pop(int(rng.integers(len(pool))))
            candidates = [base[job_id] for job_id in waiting]
            match = find_similar_job(candidates, base[finished],
                                     _PROFILE_DOP, similarity_threshold)
            replacement = match.job_id if match is not None else None
            if replacement is not None:
                waiting.remove(replacement)
                pool.append(replacement)
            events.append(("completion", finished, replacement))
        elif roll < 0.80 and pool:
            job_id = pool[int(rng.integers(len(pool)))]
            events.append((
                "iteration", job_id,
                float(max(0.5, rng.normal(1.0, 0.03))),
                float(max(0.5, rng.normal(1.0, 0.03)))))
        else:
            events.append(("check",))
    return events


def replay(scheduler, profiles: list[tuple[str, float, float]],
           events: list[tuple], n_initial: int, machines: int,
           label: str, use_patch: bool,
           regroup_threshold: float) -> ChurnRunResult:
    """Drive one scheduler through the stream, recording its decisions.

    With ``use_patch`` a completion first tries the §IV-B4 splice of the
    current plan and falls back to a full schedule only when the splice
    trips the regroup threshold; without it every completion
    reschedules.
    """
    profiler = Profiler()
    for job_id, t_cpu, t_net in profiles:
        profiler.record_iteration(job_id, t_cpu, t_net, _PROFILE_DOP)

    pool_ids = [job_id for job_id, _, _ in profiles[:n_initial]]
    result = ChurnRunResult(label=label)

    def full_schedule(kind: str):
        pool = [profiler.get(job_id) for job_id in pool_ids]
        plan = scheduler.schedule(pool, machines)
        result.n_schedule_calls += 1
        stats = scheduler.last_stats
        result.cache_hits += stats.cache_hits
        result.cache_misses += stats.cache_misses
        result.groups_certified += stats.groups_certified
        result.scores.append((kind, plan.score if plan else 0.0))
        return plan

    current_plan = full_schedule("initial")
    for event in events:
        kind = event[0]
        if kind == "arrival":
            pool_ids.append(event[1])
            current_plan = full_schedule(kind)
        elif kind == "completion":
            finished, replacement = event[1], event[2]
            pool_ids.remove(finished)
            if replacement is not None:
                pool_ids.append(replacement)
            patched = _try_patch(scheduler, profiler, current_plan,
                                 finished, replacement, regroup_threshold) \
                if use_patch else None
            if patched is not None:
                result.n_patched += 1
                result.scores.append(("patched", patched.score))
                current_plan = patched
            else:
                current_plan = full_schedule(kind)
        elif kind == "iteration":
            job_id, cpu_factor, net_factor = event[1], event[2], event[3]
            metrics = profiler.get(job_id)
            profiler.record_iteration(
                job_id, (metrics.cpu_work / _PROFILE_DOP) * cpu_factor,
                metrics.t_net * net_factor, _PROFILE_DOP)
        else:  # periodic regroup check: unchanged pool
            current_plan = full_schedule("check")
    return result


#: The name ``benchmarks/perf/workloads.py`` cross-checks its churn
#: decisions against.
_replay_with = replay


def _try_patch(scheduler, profiler, previous, finished: str, replacement,
               regroup_threshold: float):
    """The §IV-B4 fast path: splice the previous plan and re-score.

    Returns the accepted patched plan, or None to fall back to a full
    schedule (no previous plan, the finished job was not placed, or the
    patched score trips the regroup threshold).
    """
    if previous is None or finished not in previous.scheduled_job_ids:
        return None
    group_index = next(index for index, group in enumerate(previous.groups)
                       if finished in group.job_ids)
    replacements = [profiler.get(replacement)] \
        if replacement is not None else []
    candidate = splice_plan(previous, scheduler.perf_model, group_index,
                            finished, replacements,
                            metrics_for=profiler.get)
    if candidate.score >= previous.score * (1.0 - regroup_threshold):
        return candidate
    return None


def run(seed: int = 2021) -> ChurnRunResult:
    """Replay one seeded churn stream through the incremental scheduler."""
    scheduler_config = DEFAULT_SIM_CONFIG.scheduler
    profiles = _base_profiles(N_JOBS, seed)
    events = generate_stream(
        profiles, N_INITIAL, N_EVENTS, seed=seed + 1,
        similarity_threshold=scheduler_config.similarity_threshold)
    return replay(HarmonyScheduler(config=scheduler_config), profiles,
                  events, N_INITIAL, MACHINES, "fast", use_patch=True,
                  regroup_threshold=scheduler_config.regroup_benefit_threshold)


def report(result: ChurnRunResult) -> str:
    """Render the replay's decision counts."""
    return format_table(
        ["schedule() calls", "patched", "cache hits", "cache misses",
         "certified n_G*"],
        [(result.n_schedule_calls, result.n_patched, result.cache_hits,
          result.cache_misses, result.groups_certified)],
        title=f"Scheduler churn stream ({len(result.scores)} decisions)")
