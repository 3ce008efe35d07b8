"""Test-support oracle: the pre-optimization planning stack.

The scheduler's production path (:mod:`repro.core.grouping`,
:mod:`repro.core.allocation`, :mod:`repro.core.scheduler`) is
incremental: it shares one flat
:class:`~repro.core.scheduler.PoolSnapshot` across Algorithm 1's
sub-steps and works on index groups into it, maintains group imbalances
as O(1) running sums, reuses the sorted job order across prefixes, and
memoizes prefix candidates, group floors and group score terms.  Every one of those shortcuts is an *optimization*,
not a semantic change — this module keeps the original
recompute-everything implementations, verbatim, as the ground truth the
differential tests in ``tests/test_sched_fastpath.py`` compare against.
Nothing at runtime imports it.  :func:`assign_metrics` and
:func:`allocate_metrics` call the production index-group functions on
:class:`JobMetrics` groups, for tests written in terms of jobs.

Admission order and plan assembly (:class:`~repro.core.perfmodel.PerfModel`
scoring) are inherited from the production scheduler on purpose: the
fast path must produce bitwise-equal plans, so both paths must score
candidate plans with the exact same floating-point arithmetic.  Machine
allocation is frozen here too (:func:`reference_allocate_machines`, the
original one-machine-per-heap-round-trip loop); the production
allocator solves it in closed form but performs the identical divisions
and comparisons, so the allocations — and therefore the plans — stay
bitwise equal.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from itertools import accumulate

from repro.core.allocation import MemoryFloorFn, allocate_machines
from repro.core.grouping import assign_jobs
from repro.core.perfmodel import PerfModel
from repro.core.profiler import JobMetrics
from repro.core.scheduler import (
    SCHEDULE_PATIENCE,
    HarmonyScheduler,
    PoolSnapshot,
    SchedulePlan,
    ScheduleStats,
    _prefix_sizes,
    argmin_convex,
)
from repro.errors import SchedulingError


def assign_metrics(jobs: Sequence[JobMetrics], n_groups: int, m_ref: int,
                   max_swap_passes: int = 50) -> list[list[JobMetrics]]:
    """Production :func:`assign_jobs` on ``jobs`` balanced at DoP
    ``m_ref``, its index groups mapped back to the jobs."""
    groups = assign_jobs([job.t_cpu_at(m_ref) for job in jobs],
                         [job.t_net for job in jobs], n_groups,
                         max_swap_passes=max_swap_passes)
    return [[jobs[index] for index in group] for group in groups]


def allocate_metrics(groups: Sequence[Sequence[JobMetrics]],
                     total_machines: int,
                     memory_floor: MemoryFloorFn | None = None) -> \
        list[int] | None:
    """Production :func:`allocate_machines` on ``groups`` of jobs,
    through one snapshot of all their jobs, group after group."""
    jobs = [job for group in groups for job in group]
    starts = accumulate(map(len, groups), initial=0)
    index_groups = [list(range(start, start + len(group)))
                    for start, group in zip(starts, groups)]
    return allocate_machines(
        index_groups, PoolSnapshot(jobs, PerfModel(), memory_floor),
        total_machines)

#: Head-window width of the greedy fill (must match the production
#: path's ``grouping._FILL_WINDOW``).
_FILL_WINDOW = 4


def reference_imbalance(group: Sequence[JobMetrics], m: int) -> float:
    """Signed resource imbalance, recomputed from scratch."""
    return (sum(job.t_cpu_at(m) for job in group)
            - sum(job.t_net for job in group))


def reference_assign_jobs(jobs: Sequence[JobMetrics], n_groups: int,
                          m_ref: int,
                          max_swap_passes: int = 50) -> \
        list[list[JobMetrics]]:
    """The original (non-incremental) grouping algorithm (§IV-B3)."""
    if n_groups < 1:
        raise SchedulingError(f"need >= 1 group, got {n_groups}")
    if n_groups > len(jobs):
        raise SchedulingError(
            f"{n_groups} groups for only {len(jobs)} jobs")
    if m_ref < 1:
        raise SchedulingError(f"m_ref must be >= 1, got {m_ref}")

    remaining = sorted(jobs, key=lambda j: j.t_iteration_at(m_ref),
                       reverse=True)

    base, extra = divmod(len(remaining), n_groups)
    groups: list[list[JobMetrics]] = []
    for index in range(n_groups):
        quota = base + (1 if index < extra else 0)
        group: list[JobMetrics] = []
        for _ in range(quota):
            group.append(_pick_balancing(remaining, group, m_ref))
        groups.append(group)

    _fine_tune_swaps(groups, m_ref, max_swap_passes)
    return groups


def _pick_balancing(remaining: list[JobMetrics], group: list[JobMetrics],
                    m_ref: int) -> JobMetrics:
    window = min(_FILL_WINDOW, len(remaining))
    current = reference_imbalance(group, m_ref)
    best_index = 0
    best_cost = None
    for index in range(window):
        candidate = remaining[index]
        cost = abs(current + candidate.t_cpu_at(m_ref) - candidate.t_net)
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_index = index
    return remaining.pop(best_index)


def _fine_tune_swaps(groups: list[list[JobMetrics]], m_ref: int,
                     max_passes: int) -> None:
    """Pairwise swap refinement that re-derives every group's imbalance
    on every pass (the production path carries them across passes)."""
    if len(groups) < 2:
        return
    for _ in range(max_passes):
        imbalances = [reference_imbalance(g, m_ref) for g in groups]
        order = sorted(range(len(groups)),
                       key=lambda i: -abs(imbalances[i]))
        g1 = order[0]
        g2 = min((i for i in range(len(groups)) if i != g1),
                 key=lambda i: imbalances[i] * (1 if imbalances[g1] > 0
                                                else -1))
        if not _best_swap(groups[g1], groups[g2], m_ref):
            return


def _best_swap(group_a: list[JobMetrics], group_b: list[JobMetrics],
               m_ref: int) -> bool:
    imbalance_a = reference_imbalance(group_a, m_ref)
    imbalance_b = reference_imbalance(group_b, m_ref)
    current_cost = abs(imbalance_a) + abs(imbalance_b)
    best = None
    best_cost = current_cost - 1e-9
    deltas_a = [job.t_cpu_at(m_ref) - job.t_net for job in group_a]
    deltas_b = [job.t_cpu_at(m_ref) - job.t_net for job in group_b]

    for ia, delta_a in enumerate(deltas_a):
        for ib, delta_b in enumerate(deltas_b):
            new_cost = (abs(imbalance_a - delta_a + delta_b)
                        + abs(imbalance_b - delta_b + delta_a))
            if new_cost < best_cost:
                best_cost = new_cost
                best = (ia, ib)
    if best is None:
        return False
    ia, ib = best
    group_a[ia], group_b[ib] = group_b[ib], group_a[ia]
    return True


def reference_allocate_machines(
        groups: Sequence[Sequence[JobMetrics]], total_machines: int,
        memory_floor: MemoryFloorFn | None = None) -> \
        list[int] | None:
    """The original L8 allocator: one heap round-trip per machine.

    The production allocator batches consecutive grants to the same
    group; this one hands out machines strictly one heappop/heappush at
    a time.  Both must produce identical allocations — every grant uses
    the same divisions and the same tuple comparisons.
    """
    if total_machines < 1:
        raise SchedulingError(
            f"total_machines must be >= 1, got {total_machines}")
    if not groups:
        return []

    floors = []
    for group in groups:
        if not group:
            raise SchedulingError("cannot allocate to an empty group")
        job_ids = [job.job_id for job in group]
        floors.append(memory_floor(job_ids) if memory_floor else 1)
    if sum(floors) > total_machines:
        return None  # not placeable even at the memory floors

    allocation = list(floors)
    spare = total_machines - sum(allocation)

    cpu_work = [sum(job.cpu_work for job in group) for group in groups]
    t_net = [sum(job.t_net for job in group) for group in groups]

    def cpu_pressure(index: int) -> float:
        return cpu_work[index] / allocation[index] - t_net[index]

    heap = [(-cpu_pressure(i), i) for i in range(len(groups))]
    heapq.heapify(heap)
    while spare > 0 and heap:
        negative_pressure, index = heapq.heappop(heap)
        current = cpu_pressure(index)
        if current < -negative_pressure - 1e-12:
            heapq.heappush(heap, (-current, index))  # stale, retry
            continue
        if current <= 0:
            break  # every group is network- or job-bound
        allocation[index] += 1
        spare -= 1
        heapq.heappush(heap, (-cpu_pressure(index), index))

    return allocation


class ReferenceScheduler(HarmonyScheduler):
    """Algorithm 1 with every incremental shortcut disabled.

    Runs the original prefix loop: each prefix's grouping is re-derived
    from scratch through the module-level reference functions and built
    into a full plan, nothing is memoized within or across calls, and
    the L6 cost is evaluated with the original Python summation.  Only
    the admission order and plan assembly (:meth:`build_plan`) come
    from :class:`HarmonyScheduler`.
    """

    def schedule(self, jobs: Sequence[JobMetrics],
                 total_machines: int) -> SchedulePlan | None:
        if total_machines < 1:
            raise SchedulingError(
                f"total_machines must be >= 1, got {total_machines}")
        if not jobs:
            return None
        ordered = self._admission_order(jobs)
        best: SchedulePlan | None = None
        no_improvement = 0
        n_prefixes = 0
        for n_jobs in _prefix_sizes(len(ordered)):
            candidate_jobs = ordered[:n_jobs]
            n_prefixes += 1
            plan = self._plan_for(candidate_jobs, total_machines)
            if plan is None:
                if best is not None:
                    break  # adding jobs stopped being feasible
                continue
            if best is None or plan.score > best.score:
                best = plan
                no_improvement = 0
            else:
                # L12-13: stop growing once utilization stops improving
                # (with a small patience for discrete n_G* bumps).
                no_improvement += 1
                if no_improvement > SCHEDULE_PATIENCE:
                    break
        self.last_stats = ScheduleStats(
            n_jobs_offered=len(ordered),
            n_prefixes_evaluated=n_prefixes,
            best_n_groups=len(best.groups) if best is not None else 0,
            best_n_jobs=(len(best.scheduled_job_ids)
                         if best is not None else 0),
            best_score=best.score if best is not None else 0.0)
        return best

    def _plan_for(self, jobs: Sequence[JobMetrics],
                  total_machines: int) -> SchedulePlan | None:
        """One iteration of the L4-L13 loop body for a fixed job set."""
        n_groups = self._pick_group_count(jobs, total_machines)
        groups = reference_assign_jobs(
            jobs, n_groups,
            m_ref=max(1, total_machines // n_groups),
            max_swap_passes=self.config.max_swap_passes)
        allocation = reference_allocate_machines(groups, total_machines,
                                                 self.memory_floor)
        if allocation is None:
            return None
        return self.build_plan(groups, allocation, total_machines)

    def _pick_group_count(self, jobs: Sequence[JobMetrics],
                          total_machines: int) -> int:
        min_groups = max(
            1, -(-len(jobs) // self.config.max_jobs_per_group))
        max_groups = min(len(jobs), total_machines)
        if min_groups > max_groups:
            min_groups = max_groups

        def cost(n_g: int) -> float:
            scale = n_g / total_machines
            return sum(abs(job.cpu_work * scale - job.t_net)
                       for job in jobs)

        return argmin_convex(cost, min_groups, max_groups)
