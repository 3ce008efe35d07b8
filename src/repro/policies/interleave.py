"""CASSINI-style network-aware COMM interleaving.

CASSINI (NSDI '24) places jobs that share network links so their
communication phases *interleave*: each job's COMM burst lands in its
partners' COMP gaps, found by sliding per-job phase offsets against a
ring-buffer model of link demand.  Harmony's execution engine already
serializes one primary COMM plus a reduced-rate secondary (Fig. 7);
this policy generalizes those two slots to a *planned* stagger across
up to :data:`MAX_GROUP_JOBS` partners.

Partner selection uses a phase-compatibility score straight out of
Eq. 1::

    compat(G, m) = max_j T_itr_j / T_g_itr

``compat == 1`` means the group is job-bound — every job's COMM hides
entirely inside the others' COMP, a perfect interleave; lower values
mean the CPU or the network serializes and someone waits.  Groups only
form while compatibility stays at or above :data:`COMPAT_THRESHOLD`.

The phase offsets delay job *k*'s first PULL by the summed COMM demand
of the jobs before it, so the group's COMM bursts enter the pipeline
maximally spread instead of colliding at start-up (after the first
epoch the engine's primary/secondary discipline keeps them apart).
"""

from __future__ import annotations

from repro.core.perfmodel import PerfModel
from repro.policies.base import GroupStart, PolicyObservation

#: Strictly-better margin for partner selection; ties resolve to the
#: earliest queued candidate so the scan is hash-order independent.
_TIE_EPSILON = 1e-12

#: Most jobs one interleaved group may hold.
MAX_GROUP_JOBS = 4

#: Lowest Eq. 1 compatibility at which a partner may join a group.
COMPAT_THRESHOLD = 0.85

#: The Eq. 1 model every compatibility is taken with.
_PERF_MODEL = PerfModel()


def _compatibility(obs: PolicyObservation, batch: tuple[str, ...],
                   m: int) -> float:
    metrics = [obs.metrics_at(job_id, m) for job_id in batch]
    estimate = _PERF_MODEL.estimate_group(metrics, m)
    t_group = estimate.t_group_iteration
    if t_group <= 0:
        return 1.0
    return estimate.t_itr_max / t_group


def _phase_offsets(obs: PolicyObservation, batch: tuple[str, ...],
                   m: int) -> tuple[float, ...]:
    """Stagger job k by the COMM demand of the jobs ahead of it."""
    offsets: list[float] = []
    accumulated = 0.0
    for job_id in batch:
        offsets.append(accumulated)
        accumulated += obs.metrics_at(job_id, m).t_net
    return tuple(offsets)


def cassini(obs: PolicyObservation) -> tuple[GroupStart, ...]:
    """Phase-offset COMM interleaving over Eq. 1 compatibility."""
    starts: list[GroupStart] = []
    free = obs.n_free
    queue = list(obs.queue)
    while queue:
        head = queue[0]
        demand = obs.batch_demand((head,))
        if demand > obs.cluster_size:
            queue.pop(0)
            continue  # unplaceable anywhere; don't wedge the queue
        if demand > free:
            break  # FIFO: the head waits for machines
        queue.pop(0)
        batch = (head,)
        while len(batch) < MAX_GROUP_JOBS and queue:
            best: tuple[float, int, int] | None = None
            for index, candidate in enumerate(queue):
                trial = batch + (candidate,)
                trial_demand = obs.batch_demand(trial)
                if trial_demand > free:
                    continue
                compat = _compatibility(obs, trial, trial_demand)
                if compat < COMPAT_THRESHOLD:
                    continue
                if best is None or compat > best[0] + _TIE_EPSILON:
                    best = (compat, index, trial_demand)
            if best is None:
                break
            _, index, demand = best
            batch = batch + (queue.pop(index),)
        offsets = _phase_offsets(obs, batch, demand) \
            if len(batch) > 1 else None
        starts.append(GroupStart(batch, demand, start_offsets=offsets))
        free -= demand
    return tuple(starts)
