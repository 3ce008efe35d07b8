"""Harmony's Algorithm 1 as a queue policy.

:class:`HarmonyPlanPolicy` is a one-shot grouping over the queued jobs
using exact cost-model metrics.  This is Harmony's grouping without
profiling or dynamic regrouping — the "harmony-static" competitor of
the tournament, isolating how much of Harmony's win comes from the
grouping math versus from the runtime adaptation loop.
"""

from __future__ import annotations

from repro.core.scheduler import ORDERING_DOP
from repro.policies.base import (
    GroupStart,
    PolicyDecision,
    PolicyObservation,
)


class HarmonyPlanPolicy:
    """Algorithm 1 as a queue-admission policy (``harmony-static``).

    On every pass the queued jobs are characterized at the ordering
    DoP, Algorithm 1 plans groups over the free machines, and every
    plan group that fits is started as-is.  Jobs the plan leaves out
    stay queued for the next pass (when completions free machines).
    """

    name = "harmony-static"

    def __init__(self, scheduler_factory):
        #: Called as ``scheduler_factory(memory_floor)`` on first use:
        #: the memory-floor oracle only exists once the master is
        #: running, so construction is deferred to the first decide.
        self._scheduler_factory = scheduler_factory
        self._scheduler = None

    def decide(self, obs: PolicyObservation) -> PolicyDecision:
        if not obs.queue or obs.n_free < 1:
            return PolicyDecision(())
        if self._scheduler is None:
            self._scheduler = self._scheduler_factory(obs.memory_floor)
        characterize_at = min(ORDERING_DOP, obs.cluster_size)
        pool = []
        for job_id in obs.queue:
            if obs.batch_demand((job_id,)) > obs.cluster_size:
                continue  # unplaceable anywhere; skip, don't wedge
            pool.append(obs.metrics_at(job_id, characterize_at))
        if not pool:
            return PolicyDecision(())
        plan = self._scheduler.schedule(pool, obs.n_free)
        if plan is None:
            return PolicyDecision(())
        starts: list[GroupStart] = []
        free = obs.n_free
        for group in plan.groups:
            if group.n_machines <= free:
                starts.append(GroupStart(group.job_ids,
                                         group.n_machines))
                free -= group.n_machines
        return PolicyDecision(tuple(starts))
