"""Machine allocation to job groups (§IV-B3, L8 of Algorithm 1).

"First, the algorithm allocates one machine for every job group.  The
algorithm then repeats a step of allocating one machine to a group that
needs additional machines the most.  Those groups that need machines
are the most computation-intensive ones, as having more machines would
reduce the computation cost in an iteration (Eq. 2), reducing the
CPU-bound cases (Eq. 1)."

Memory feasibility is honoured: a group's floor is the smallest machine
count at which its jobs fit even with maximal input spill (the paper's
model-spill fallback covers the rest, but a group that cannot hold its
models has no valid placement).  Groups arrive as index lists into the
scheduler's per-call :class:`~repro.core.scheduler.PoolSnapshot`, which
serves the per-job floats and memoizes each group's floor for the call.

The allocator is the hottest loop of the planning stack (one grant per
machine, hundreds of machines per ``_plan_for``), so the production
implementation solves the greedy process in closed form: the grant
taking group ``i`` from ``a`` to ``a+1`` machines has priority
``p_i(a) = W_i/a - T_i`` (its CPU pressure *before* the grant), the
per-group priority sequences are strictly decreasing, and the greedy
loop executes exactly the ``spare`` highest-priority positive grants
(ties across groups broken by group index).  Computing that set
directly — with the very same float divisions and comparisons the
one-at-a-time loop would perform — produces bitwise-identical
allocations (pinned against the original loop, kept as a test oracle
in ``tests/sched_oracle.py``, by the differential suite) in a handful
of vectorized passes.  Short candidate lists, where NumPy's fixed cost
dominates, run the reference process itself on a heap instead
(:data:`_HEAP_CANDIDATES`).
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SchedulingError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.scheduler import PoolSnapshot

#: Returns the minimum machine count for a set of co-located jobs.
MemoryFloorFn = Callable[[Sequence[str]], int]

#: Up to this many candidate grants the heap beats the vectorized
#: top-``spare`` selection (it makes ``spare`` grants, fewer than the
#: candidates).  Mean ``allocate_machines`` time per demand-limited call
#: by candidate count, best of five timings each (seed 2021, Python
#: 3.11, shared 2-vCPU host):
#:
#:   workload  candidates   calls   NumPy       heap
#:   fig10     1-16           763    55.5 us    10.5 us
#:   fig10     17-32          865    57.8 us    17.1 us
#:   fig10     33-64        1,060    62.3 us    33.2 us
#:   fig10     65-128       1,426    69.9 us    66.1 us
#:   fig10     129-256        459    78.8 us    80.7 us
#:   churn     513-2048     2,203   166-172 us  1,078-1,087 us
#:   sharded   1025 and up    821   310-499 us  1,671-1,790 us
_HEAP_CANDIDATES = 128
#: Above this many candidate grants the vectorized top-``spare``
#: selection would allocate too much memory; fall back to the heap.
_MAX_CANDIDATES = 4_000_000


def allocate_machines(groups: Sequence[Sequence[int]],
                      pool: PoolSnapshot,
                      total_machines: int) -> list[int] | None:
    """Machine counts per group of ``pool`` indices, or None when
    memory-infeasible.

    Always hands a machine to the group whose CPU-side bottleneck
    exceeds its network-side bottleneck by the most (the most
    computation-intensive group); stops early when no group is
    CPU-bound any more, leaving the remainder free for future arrivals.
    """
    if total_machines < 1:
        raise SchedulingError(
            f"total_machines must be >= 1, got {total_machines}")
    if not groups:
        return []

    if not all(groups):
        raise SchedulingError("cannot allocate to an empty group")
    floors = pool.floors(groups)
    spare = total_machines - sum(floors)
    if spare < 0:
        return None  # not placeable even at the memory floors
    if spare == 0:
        return floors

    # Group sums stay Python-sequential on purpose: they feed the same
    # pressure arithmetic as the reference loop, term for term.  A
    # one-job group's sum is ``0 + W``, read without ``map``.
    job_work = pool.cpu_work
    job_net = pool.t_net
    work_of = job_work.__getitem__
    net_of = job_net.__getitem__
    cpu_work = []
    t_net = []
    for group in groups:
        if len(group) == 1:
            index = group[0]
            cpu_work.append(0 + job_work[index])
            t_net.append(0 + job_net[index])
        else:
            cpu_work.append(sum(map(work_of, group)))
            t_net.append(sum(map(net_of, group)))

    # Last machine count whose grant still has positive priority:
    # largest a with work/a > net, decided by exactly the loop's stop
    # comparison.  The float estimate work/net never lands below the
    # true boundary: work/(b + 1) > net in floats means the exact
    # quotient exceeds the integer b + 1, so fl(work/net) >= b + 1.  It
    # can land above it (ties, rounding up), which the nudge corrects.
    demand = []
    total_demand = 0
    # Grants the top-``spare`` selection would weigh: each group's
    # demand, capped at ``spare``.
    n_candidates = 0
    for index in range(len(floors)):
        work = cpu_work[index]
        net = t_net[index]
        lowest = floors[index]
        cap = lowest + spare  # can absorb at most every spare grant
        if net > 0.0:
            estimate = work / net
            bound = int(estimate) if estimate < cap else cap
            if bound < lowest - 1:
                bound = lowest - 1
        else:
            bound = cap
        while bound >= lowest and work / bound <= net:
            bound -= 1
        wanted = bound - lowest + 1
        if wanted > 0:
            demand.append(wanted)
            total_demand += wanted
            n_candidates += wanted if wanted < spare else spare
        else:
            demand.append(0)

    if total_demand <= spare:
        # Saturated: every positive-priority grant executes and the
        # loop breaks with machines left over — order never matters.
        return [floors[i] + demand[i] for i in range(len(floors))]

    if n_candidates <= _HEAP_CANDIDATES or n_candidates > _MAX_CANDIDATES:
        return _allocate_by_heap(list(floors), spare, cpu_work, t_net)
    counts = np.minimum(np.array(demand, dtype=np.int64), spare)
    base = np.array(floors, dtype=np.int64)
    work = np.array(cpu_work, dtype=np.float64)
    net = np.array(t_net, dtype=np.float64)

    # Demand-limited: exactly the `spare` highest-priority grants
    # execute.  Materialize every candidate grant's priority with the
    # same division the loop would use, select the spare-th largest as
    # the threshold, and hand the leftover threshold-tied grants to the
    # smallest group indexes first (the heap's tuple tie-break).
    group_index = np.repeat(np.arange(len(floors)), counts)
    ends = np.cumsum(counts)
    offsets = np.arange(n_candidates) - np.repeat(ends - counts, counts)
    a_values = np.repeat(base, counts) + offsets
    priorities = (np.repeat(work, counts) / a_values
                  - np.repeat(net, counts))
    threshold = np.partition(priorities, n_candidates - spare)[
        n_candidates - spare]
    above = priorities > threshold
    granted = np.bincount(group_index[above], minlength=len(floors))
    remaining = spare - int(above.sum())
    if remaining > 0:
        tied = np.nonzero(np.bincount(group_index[
            priorities == threshold], minlength=len(floors)))[0]
        granted[tied[:remaining]] += 1
    return [int(n) for n in base + granted]


def _allocate_by_heap(allocation: list[int], spare: int,
                      cpu_work: list[float],
                      t_net: list[float]) -> list[int]:
    """Grant-by-grant max-heap loop (the reference process), with
    consecutive grants to the same group batched via exact tuple
    comparisons against the heap top.

    Serves short and huge candidate lists.  Runs only when the groups'
    positive-priority grants outnumber ``spare`` (``allocate_machines``'
    demand count), so ``spare`` runs out before a popped pressure
    reaches zero: no saturation exit."""
    heap = [(t_net[i] - cpu_work[i] / allocation[i], i)
            for i in range(len(allocation))]
    heapq.heapify(heap)
    while spare > 0:
        _, index = heapq.heappop(heap)
        work = cpu_work[index]
        net = t_net[index]
        granted = allocation[index]
        while True:
            granted += 1
            spare -= 1
            current = work / granted - net
            if spare <= 0:
                break
            if heap and not ((-current, index) < heap[0]):
                break  # another group pops first now
        allocation[index] = granted
        if spare > 0:
            heapq.heappush(heap, (-current, index))

    return allocation
