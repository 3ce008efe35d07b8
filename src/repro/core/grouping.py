"""Job-to-group assignment (§IV-B3, "the grouping algorithm").

"The grouping algorithm assigns jobs J evenly into a given number of
groups n_G*.  In order to prevent job-bound cases, we place jobs with
similar iteration times together ... The scheduler first sorts jobs by
their job iteration time.  The scheduler then fills job groups one by
one with jobs from the sorted list in a greedy manner to balance
resource use.  Lastly, the algorithm fine-tunes the result by swapping
jobs between the groups."

This is the incremental implementation on the scheduler's hot path.
It runs on plain Python floats and index lists: the scheduler hands it
one flat per-job list of COMP times at the balancing DoP and one of
network times, and gets index groups back.  Group imbalances are
carried as running sums updated in O(1) per placement and per swap, the
sort is one stable ``sorted``, and the swap loop takes the
most-imbalanced group by a single ``max`` instead of sorting all group
imbalances each pass.  The original recompute-everything implementation
is kept verbatim as a test oracle (``tests/sched_oracle.py``); the
differential suite pins the two to identical partitions.
"""

from __future__ import annotations

from collections.abc import Sequence
from heapq import heapify, heappop, heapreplace
from operator import add

from repro.errors import SchedulingError

#: While filling a group, the next job is chosen among this many heads
#: of the sorted list: close enough in iteration time to avoid
#: job-bound groups, free enough to balance CPU vs network use.
_FILL_WINDOW = 4


def grouping_order(keys: Sequence[float]) -> list[int]:
    """Indices of ``keys`` (solo iteration times) sorted longest first.

    Stable on ties, so it is exactly ``np.argsort(-keys,
    kind="stable")`` and ``sorted(jobs, key=t_iteration, reverse=True)``
    — large jobs are kept together rather than spread across groups.
    """
    return sorted(range(len(keys)), key=keys.__getitem__, reverse=True)


def assign_jobs(t_cpu: Sequence[float], t_net: Sequence[float],
                n_groups: int,
                max_swap_passes: int = 50) -> list[list[int]]:
    """Partition jobs into ``n_groups`` balanced groups of indices.

    Job ``i`` has COMP time ``t_cpu[i]`` at the DoP assumed while
    balancing (Algorithm 1 assumes all groups get an equal number of
    machines, ``m_ref ≈ M / n_G``) and network time ``t_net[i]``.
    """
    n_jobs = len(t_cpu)
    if len(t_net) != n_jobs:
        raise SchedulingError(
            f"{n_jobs} COMP times for {len(t_net)} network times")
    if n_groups < 1:
        raise SchedulingError(f"need >= 1 group, got {n_groups}")
    if n_groups > n_jobs:
        raise SchedulingError(
            f"{n_groups} groups for only {n_jobs} jobs")

    order = grouping_order(list(map(add, t_cpu, t_net)))
    groups, imbalances = _fill_groups(order, t_cpu, t_net, n_groups)
    if n_groups < n_jobs:
        # With one job per group no swap can improve: the fill leaves
        # each imbalance exactly that job's own delta, so a swap scores
        # |δ_b| + |δ_a|, the current cost itself (DESIGN.md §5).
        _fine_tune_swaps(groups, imbalances, t_cpu, t_net,
                         max_swap_passes)
    return groups


def _fill_groups(order: Sequence[int], t_cpu: Sequence[float],
                 t_net: Sequence[float], n_groups: int) -> \
        tuple[list[list[int]], list[float]]:
    """Greedy balanced fill; returns index groups + their imbalances.

    Each group's imbalance is accumulated as it is filled (term order =
    append order, exactly the from-scratch sum), so a placement costs
    O(window) instead of O(|group|).  When every group from index
    ``extra`` on takes one job (``base == 1``), those groups are filled
    by :func:`_fill_one_job_groups` instead of the window scan.
    """
    n = len(order)
    base, extra = divmod(n, n_groups)
    one_job_from = extra if base == 1 else -1

    # The candidate window always holds the first min(4, remaining)
    # entries of the virtual sorted remaining list, in list order —
    # popping the chosen entry and refilling from the tail preserves
    # the reference semantics without O(n) list shifts.
    window: list[int] = []
    position = 0
    groups: list[list[int]] = []
    imbalances: list[float] = []
    for group_index in range(n_groups):
        if group_index == one_job_from and _fill_one_job_groups(
                [*window, *order[position:]], t_cpu, t_net, groups,
                imbalances):
            break
        quota = base + (1 if group_index < extra else 0)
        group: list[int] = []
        cpu_sum = 0.0
        net_sum = 0.0
        for _ in range(quota):
            while len(window) < _FILL_WINDOW and position < n:
                window.append(order[position])
                position += 1
            current = cpu_sum - net_sum
            best_slot = 0
            best_cost = None
            for slot, index in enumerate(window):
                cost = abs(current + t_cpu[index] - t_net[index])
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    best_slot = slot
            chosen = window.pop(best_slot)
            group.append(chosen)
            cpu_sum += t_cpu[chosen]
            net_sum += t_net[chosen]
        groups.append(group)
        imbalances.append(cpu_sum - net_sum)
    return groups, imbalances


def _fill_one_job_groups(rest: list[int], t_cpu: Sequence[float],
                         t_net: Sequence[float], groups: list[list[int]],
                         imbalances: list[float]) -> bool:
    """Give each job of ``rest`` (the unplaced jobs, in sorted-list
    order) a group of its own, exactly as the window scan would.

    A one-job group starts at imbalance ``0.0``, so each pick costs the
    job's own ``|0.0 + t_cpu − t_net|``, whatever was picked before.
    The scan takes the cheapest of the first :data:`_FILL_WINDOW`
    unplaced jobs, the earliest on a tie (its ``<`` is strict), which is
    the head of a heap of that many ``(cost, position)`` keys; each pick
    then lets the next job of the list in.  Returns False, placing
    nothing, when a cost is NaN: the scan's choice then depends on
    where the NaN sits in the window, which no key order replays.
    """
    costs = [abs(0.0 + t_cpu[index] - t_net[index]) for index in rest]
    total = sum(costs)  # NaN exactly when a cost is NaN
    if total != total:
        return False
    entries = list(zip(costs, range(len(rest)), rest))
    heap = entries[:_FILL_WINDOW]
    heapify(heap)
    picks = [heapreplace(heap, entry) for entry in entries[_FILL_WINDOW:]]
    picks += [heappop(heap) for _ in range(len(heap))]
    for _cost, _position, index in picks:
        groups.append([index])
        # The scan's own sums: (0.0 + c) − (0.0 + n), zero signs and all.
        imbalances.append((0.0 + t_cpu[index]) - (0.0 + t_net[index]))
    return True


def _fine_tune_swaps(groups: list[list[int]], imbalances: list[float],
                     t_cpu: Sequence[float], t_net: Sequence[float],
                     max_passes: int) -> None:
    """Pairwise swap refinement (§IV-B3).

    "It first picks the most imbalanced group, and finds the group that
    has the most complementary resource use.  Then, it finds the tuple
    of jobs from each of the groups that would minimize the
    resource-imbalance for both of the groups, and swaps the two jobs.
    The fine-tuning repeats until there are no possible swap cases."

    Imbalances are carried across passes; only the two groups touched
    by a swap are re-summed (a pass costs O(|g1| + |g2|) instead of a
    full O(Σ|g|) rescan), and the most-imbalanced group is a single
    ``max`` (the reference sorts all group imbalances each pass only to
    read the first element).  ``max`` and ``min`` return the first
    extremum, so ties go to the lowest group index, as the reference's
    stable sort and ``min`` do.

    The touched groups are *re-summed in membership order* rather than
    updated with ``±delta``: the swap objective Σ|I| has exact plateaus
    (every candidate that keeps both post-swap signs costs exactly
    ``-I_a - I_b``), so the winner among tied candidates is decided by
    float rounding — the carried sums must be bit-identical to the
    reference path's from-scratch sums for both paths to break those
    ties the same way.
    """
    if len(groups) < 2:
        return
    magnitude = [abs(value) for value in imbalances]
    indexes = range(len(groups))
    for _ in range(max_passes):
        g1 = max(indexes, key=magnitude.__getitem__)
        # Most complementary: the group whose imbalance is most opposite.
        others = [index for index in indexes if index != g1]
        pick = min if imbalances[g1] > 0 else max
        g2 = pick(others, key=imbalances.__getitem__)
        if not _best_swap(groups[g1], groups[g2],
                          imbalances[g1], imbalances[g2], t_cpu, t_net):
            return
        for index in (g1, g2):
            group = groups[index]
            value = (sum(t_cpu[job] for job in group)
                     - sum(t_net[job] for job in group))
            imbalances[index] = value
            magnitude[index] = abs(value)


def _best_swap(group_a: list[int], group_b: list[int],
               imbalance_a: float, imbalance_b: float,
               t_cpu: Sequence[float], t_net: Sequence[float]) -> bool:
    """Apply the single swap that most reduces combined imbalance.

    Returns True if an improving swap was found and applied.
    """
    current_cost = abs(imbalance_a) + abs(imbalance_b)
    best = None
    best_cost = current_cost - 1e-9
    deltas_a = [t_cpu[index] - t_net[index] for index in group_a]
    deltas_b = [t_cpu[index] - t_net[index] for index in group_b]

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
