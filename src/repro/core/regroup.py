"""Dynamic regrouping helpers (§IV-B4).

When a job finishes, Harmony first tries to repair its group locally:
find a *similar* waiting job ("the difference of statistics is within
5%"), then a *bundle* of jobs with equivalent aggregate characteristics,
and only then escalates to the full scheduling algorithm over a growing
scope of groups.  These pure functions implement the similarity
searches; the escalation lives in the master, which owns the groups.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

from repro.core.profiler import JobMetrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.perfmodel import PerfModel
    from repro.core.scheduler import SchedulePlan

#: §IV-B4's preference for the grouping decision with fewer jobs: a
#: decision over more jobs wins only when it improves the predicted
#: score by more than this fraction.
FEWER_JOBS_PREFERENCE = 0.05

#: Most jobs one §IV-B4 bundle may hold in place of a finished job.
MAX_BUNDLE = 4


def _relative_difference(a: float, b: float) -> float:
    denominator = max(abs(a), abs(b), 1e-12)
    return abs(a - b) / denominator


def is_similar_job(candidate: JobMetrics, target: JobMetrics, m: int,
                   threshold: float = 0.05) -> bool:
    """Whether two jobs match within the paper's 5% tolerance.

    Similarity is judged "in terms of iteration time and comp/comm
    ratio" at the group's DoP ``m``.
    """
    if _relative_difference(candidate.t_iteration_at(m),
                            target.t_iteration_at(m)) > threshold:
        return False
    return _relative_difference(candidate.t_cpu_at(m) + 1e-12,
                                target.t_cpu_at(m) + 1e-12) <= threshold \
        or _relative_difference(candidate.comp_comm_ratio_at(m),
                                target.comp_comm_ratio_at(m)) <= threshold


def find_similar_job(candidates: Sequence[JobMetrics],
                     target: JobMetrics, m: int,
                     threshold: float = 0.05) -> JobMetrics | None:
    """The §IV-B4 single-replacement search: the closest candidate
    within tolerance, or None."""
    best = None
    best_distance = None
    for candidate in candidates:
        if not is_similar_job(candidate, target, m, threshold):
            continue
        distance = (_relative_difference(candidate.t_iteration_at(m),
                                         target.t_iteration_at(m))
                    + _relative_difference(
                        candidate.comp_comm_ratio_at(m),
                        target.comp_comm_ratio_at(m)))
        if best_distance is None or distance < best_distance:
            best_distance = distance
            best = candidate
    return best


def find_similar_bundle(candidates: Sequence[JobMetrics],
                        target: JobMetrics, m: int,
                        threshold: float = 0.05) -> list[JobMetrics] | None:
    """The §IV-B4 bundle search: a set of jobs "whose the sum of
    iteration times and the ratio of respective sum of computation and
    communication times are similar to the finished job".

    Greedy largest-first packing of up to :data:`MAX_BUNDLE` jobs under
    the CPU/network budgets, then an aggregate tolerance check.  Returns
    None when no acceptable bundle exists.
    """
    target_cpu = target.t_cpu_at(m)
    target_net = target.t_net
    budget_cpu = target_cpu * (1.0 + threshold)
    budget_net = target_net * (1.0 + threshold)
    bundle: list[JobMetrics] = []
    total_cpu = 0.0
    total_net = 0.0
    for candidate in sorted(candidates,
                            key=lambda j: j.t_iteration_at(m),
                            reverse=True):
        if len(bundle) >= MAX_BUNDLE:
            break
        if (total_cpu + candidate.t_cpu_at(m) <= budget_cpu
                and total_net + candidate.t_net <= budget_net):
            bundle.append(candidate)
            total_cpu += candidate.t_cpu_at(m)
            total_net += candidate.t_net
    if len(bundle) < 2:
        return None  # a single job is the find_similar_job case
    if (_relative_difference(total_cpu, target_cpu) > threshold
            or _relative_difference(total_net, target_net) > threshold):
        return None
    return bundle


def splice_plan(plan: "SchedulePlan", perf_model: "PerfModel",
                group_index: int, remove_job_id: str,
                replacements: Sequence[JobMetrics],
                metrics_for: Callable[[str], JobMetrics]) -> "SchedulePlan":
    """The §IV-B4 plan patch: replace one departed job in one group.

    When a finished job has a profiled-similar successor, rebuilding the
    whole plan through Algorithm 1 re-derives decisions that did not
    change; this splices the affected group (drop ``remove_job_id``, add
    ``replacements``), re-estimates only that group, and re-scores the
    cluster utilization over the patched estimate set — O(|group| +
    n_groups) instead of a full schedule.  ``metrics_for`` resolves the
    surviving members' current metrics.  A group left empty is dropped
    from the plan (its machines count as idle in the re-score).

    The caller owns the fallback: when the patched score trips the 5%
    regroup threshold, run the full scheduling algorithm instead.
    """
    from repro.core.scheduler import GroupPlan, SchedulePlan

    target = plan.groups[group_index]
    kept = [metrics_for(job_id) for job_id in target.job_ids
            if job_id != remove_job_id]
    members = kept + list(replacements)
    groups = list(plan.groups)
    if members:
        estimate = perf_model.estimate_group(members, target.n_machines)
        groups[group_index] = GroupPlan(job_ids=estimate.job_ids,
                                        n_machines=target.n_machines,
                                        estimate=estimate)
    else:
        del groups[group_index]
    utilization = perf_model.cluster_utilization(
        [group.estimate for group in groups],
        total_machines=plan.total_machines)
    return SchedulePlan(groups=tuple(groups), utilization=utilization,
                        score=perf_model.score(utilization),
                        total_machines=plan.total_machines)


def prefer_fewer_jobs(plans: Sequence[tuple[int, float]]) -> int | None:
    """Pick among (scope_size, predicted_score) candidates.

    "It compares their predicted performance and selects the grouping
    decision with smaller number of jobs, if the performance improvement
    of decisions with more number of jobs is less than 5%."  Returns the
    index of the chosen plan, or None for an empty sequence.
    """
    if not plans:
        return None
    chosen = 0
    for index in range(1, len(plans)):
        size, score = plans[index]
        chosen_size, chosen_score = plans[chosen]
        if size <= chosen_size:
            if score >= chosen_score:
                chosen = index
        elif score > chosen_score * (1.0 + FEWER_JOBS_PREFERENCE):
            chosen = index
    return chosen


def settled(plans: Sequence[tuple[int, float]], top: float,
            next_size: int) -> bool:
    """Whether no further candidate can change ``prefer_fewer_jobs(plans)``.

    Every further candidate is assumed to score at most ``top`` and to
    be at least ``next_size`` jobs large.  Let the choice so far be
    (n_c, s_c).  A candidate of size ≤ n_c replaces it only with a
    score ≥ s_c, a larger one only with a score > s_c·(1 + preference),
    the very product :func:`prefer_fewer_jobs` compares against.  So
    the choice is final once ``top`` is at most that product and either
    no candidate can be as small as n_c or ``top`` is below s_c.
    """
    chosen = prefer_fewer_jobs(plans)
    if chosen is None:
        return False
    size, score = plans[chosen]
    return (top <= score * (1.0 + FEWER_JOBS_PREFERENCE)
            and (next_size > size or top < score))
