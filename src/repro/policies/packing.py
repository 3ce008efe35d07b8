"""Synergy-style resource-sensitive packing.

Synergy (OSDI '22) packs jobs onto shared servers by their *sensitivity*
to each resource instead of GPU-proportional shares.  Translated to
Harmony's world: co-locate queued jobs into one group whenever the
co-location raises the group's weighted CPU/network utilization
(Eq. 3 scored via :class:`~repro.core.perfmodel.PerfModel`, CPU
weighted above network exactly as §IV-B2 does) by more than
:data:`GAIN_THRESHOLD`.  Memory awareness comes in through the
batch-demand oracle: a co-located batch's machine demand is floored by
the smallest DoP at which the members' working sets fit, so
memory-heavy pairings price themselves out of the packing score.

The packer walks the queue head-first (FIFO fairness: the head is
never skipped) and greedily accretes later jobs while the marginal
score gain clears :data:`GAIN_THRESHOLD`, up to :data:`MAX_GROUP_JOBS`
jobs a group.  All tie-breaks follow queue order — no hash-order
iteration anywhere.
"""

from __future__ import annotations

from repro.core.perfmodel import PerfModel
from repro.policies.base import GroupStart, PolicyObservation

#: Most jobs one packed group may hold.
MAX_GROUP_JOBS = 4

#: Smallest Eq. 3 score rise for which a candidate joins a group.
GAIN_THRESHOLD = 0.02

#: The Eq. 3 model every packing score is taken with.
_PERF_MODEL = PerfModel()


def _pack_score(obs: PolicyObservation, batch: tuple[str, ...],
                m: int) -> float:
    """Weighted-utilization score of co-locating ``batch`` on ``m``."""
    metrics = [obs.metrics_at(job_id, m) for job_id in batch]
    estimate = _PERF_MODEL.estimate_group(metrics, m)
    return _PERF_MODEL.score(estimate.utilization)


def synergy(obs: PolicyObservation) -> tuple[GroupStart, ...]:
    """Resource-sensitive packing scored on the Eq. 3 utilization."""
    starts: list[GroupStart] = []
    free = obs.n_free
    queue = list(obs.queue)
    while queue:
        head = queue[0]
        demand = obs.batch_demand((head,))
        if demand > obs.cluster_size:
            # Unplaceable on any cluster state; step over it so the
            # rest of the queue keeps flowing.
            queue.pop(0)
            continue
        if demand > free:
            break  # FIFO: the head waits for machines, everyone waits
        queue.pop(0)
        batch = (head,)
        score = _pack_score(obs, batch, demand)
        # Greedy accretion in queue order: each candidate joins when
        # the packed group's weighted utilization (memory floors
        # included via batch_demand) improves by > GAIN_THRESHOLD.
        index = 0
        while len(batch) < MAX_GROUP_JOBS and index < len(queue):
            candidate = queue[index]
            trial = batch + (candidate,)
            trial_demand = obs.batch_demand(trial)
            if trial_demand > free:
                index += 1
                continue
            trial_score = _pack_score(obs, trial, trial_demand)
            if trial_score > score + GAIN_THRESHOLD:
                batch = trial
                demand = trial_demand
                score = trial_score
                queue.pop(index)
            else:
                index += 1
        starts.append(GroupStart(batch, demand))
        free -= demand
    return tuple(starts)
