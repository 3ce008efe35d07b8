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

import bisect
from collections.abc import Sequence
from operator import add

from repro.core.profiler import JobMetrics
from repro.errors import SchedulingError

#: While filling a group, the next job is chosen among this many heads
#: of the sorted list: close enough in iteration time to avoid
#: job-bound groups, free enough to balance CPU vs network use.
_FILL_WINDOW = 4


def _imbalance(group: Sequence[JobMetrics], m: int) -> float:
    """Signed resource imbalance: positive = CPU-heavy (at DoP ``m``)."""
    return (sum(job.t_cpu_at(m) for job in group)
            - sum(job.t_net for job in group))


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
    O(window) instead of O(|group|).
    """
    n = len(order)
    base, extra = divmod(n, n_groups)

    # The candidate window always holds the first min(4, remaining)
    # entries of the virtual sorted remaining list, in list order —
    # popping the chosen entry and refilling from the tail preserves
    # the reference semantics without O(n) list shifts.
    window: list[int] = []
    position = 0
    groups: list[list[int]] = []
    imbalances: list[float] = []
    for group_index in range(n_groups):
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

    if len(group_a) * len(group_b) <= 4096:
        pairs = ((ia, ib) for ia in range(len(group_a))
                 for ib in range(len(group_b)))
    else:
        # Large groups (§V-F scale): for each job of A, only probe the
        # jobs of B whose delta is closest to the ideal swap partner
        # (the combined cost is piecewise-linear in delta_b, minimized
        # near delta_a - (I_a - I_b)/2).
        order_b = sorted(range(len(group_b)), key=deltas_b.__getitem__)
        sorted_deltas = [deltas_b[i] for i in order_b]

        def candidate_pairs():
            for ia in range(len(group_a)):
                target = deltas_a[ia] - (imbalance_a - imbalance_b) / 2.0
                position = bisect.bisect_left(sorted_deltas, target)
                for offset in (-1, 0, 1):
                    probe = position + offset
                    if 0 <= probe < len(order_b):
                        yield ia, order_b[probe]
        pairs = candidate_pairs()

    for ia, ib in pairs:
        delta_a = deltas_a[ia]
        delta_b = deltas_b[ib]
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
