"""Harmony's Algorithm 1 as a queue policy.

:func:`harmony_static` is a one-shot grouping over the queued jobs
using exact cost-model metrics.  This is Harmony's grouping without
profiling or dynamic regrouping — the "harmony-static" competitor of
the tournament, isolating how much of Harmony's win comes from the
grouping math versus from the runtime adaptation loop.
"""

from __future__ import annotations

from repro.config import SchedulerConfig
from repro.core.scheduler import ORDERING_DOP, HarmonyScheduler, SchedulePlan
from repro.policies.base import GroupStart, Policy, PolicyObservation


def harmony_static(config: SchedulerConfig) -> Policy:
    """Algorithm 1 as a queue-admission policy for one run.

    On every pass the queued jobs are characterized at the ordering
    DoP, Algorithm 1 plans groups over the free machines, and every
    plan group that fits is started as-is.  Jobs the plan leaves out
    stay queued for the next pass (when completions free machines).

    The scheduler is built on the first pass that plans: its memory
    floor is the observation's, which only exists once the master runs.
    It then lives, plan cache and all, as long as the returned policy.
    """
    scheduler: HarmonyScheduler | None = None

    def plan_pass(obs: PolicyObservation) -> tuple[GroupStart, ...]:
        nonlocal scheduler
        if not obs.queue or obs.n_free < 1:
            return ()
        if scheduler is None:
            scheduler = HarmonyScheduler(config=config,
                                         memory_floor=obs.memory_floor)
        characterize_at = min(ORDERING_DOP, obs.cluster_size)
        pool = []
        for job_id in obs.queue:
            if obs.batch_demand((job_id,)) > obs.cluster_size:
                continue  # unplaceable anywhere; skip, don't wedge
            pool.append(obs.metrics_at(job_id, characterize_at))
        if not pool:
            return ()
        return plan_decision(scheduler.schedule(pool, obs.n_free),
                             obs.n_free)

    return plan_pass


def plan_decision(plan: SchedulePlan | None,
                  n_free: int) -> tuple[GroupStart, ...]:
    """Start each group of an Algorithm 1 plan as-is, in plan order,
    skipping a group once the earlier ones leave too few of ``n_free``
    machines (no starts when there is no plan)."""
    starts: list[GroupStart] = []
    for group in plan.groups if plan is not None else ():
        if group.n_machines <= n_free:
            starts.append(GroupStart(group.job_ids, group.n_machines))
            n_free -= group.n_machines
    return tuple(starts)
