"""Cross-cell rebalancer: drain hot cells into cold ones.

Sticky routing (:mod:`repro.shard.placer`) keeps arrivals cheap but
lets cells drift apart as jobs depart unevenly.  Every
``ShardConfig.rebalance_every`` schedule calls the sharded scheduler
asks :func:`plan_moves` for a bounded set of job migrations from cells
whose normalized load exceeds the mean by
``ShardConfig.rebalance_threshold``, then applies them through the
existing §IV-B4 migration path: the donor's memoized plan is *spliced*
(:func:`repro.core.regroup.splice_plan` drops the job from its group
and re-scores) so the donor never re-runs Algorithm 1, while the
receiving cell re-plans on the next schedule call because its job
tuple changed.

Everything here is pure planning over ``(load, cell_index)`` scalars
that start from the placer's cached per-cell loads: only the jobs a
move pops are weighed, and nothing is O(#machines).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.profiler import JobMetrics
from repro.shard.placer import job_weight


@dataclass(frozen=True)
class ShardMove:
    """One planned migration: ``job`` leaves ``source`` for ``target``."""

    job: JobMetrics
    source: int
    target: int


def plan_moves(cell_jobs: Sequence[Sequence[JobMetrics]],
               cell_loads: Sequence[float],
               cell_machines: Sequence[int],
               threshold: float,
               max_moves: int) -> list[ShardMove]:
    """Plan migrations until no cell is hot (or the move budget is spent).

    ``cell_loads`` are the cells' raw loads, each the pool-order sum
    of :func:`~repro.shard.placer.job_weight` over ``cell_jobs`` (the
    placer caches them, see
    :meth:`~repro.shard.placer.GlobalPlacer.raw_loads`), so only the
    jobs a move pops are weighed here.  A cell is *hot* when its
    normalized load exceeds ``(1 + threshold) * mean``.  Each step
    moves the hottest cell's most recent job (last in pool order — the
    cheapest to uproot, as the stickiest jobs keep their warm groups)
    to the coldest cell.  Loads are updated incrementally, so the loop
    is deterministic in cell order and job order alone.
    """
    n_cells = len(cell_machines)
    if n_cells < 2 or max_moves <= 0:
        return []
    pending = [list(members) for members in cell_jobs]
    loads = [load / machines for load, machines
             in zip(cell_loads, cell_machines, strict=True)]
    total = sum(load * machines for load, machines
                in zip(loads, cell_machines, strict=True))
    mean = total / sum(cell_machines)
    if mean <= 0.0:
        return []
    hot_bar = (1.0 + threshold) * mean
    moves: list[ShardMove] = []
    while len(moves) < max_moves:
        source = max(range(n_cells), key=lambda c: (loads[c], -c))
        if loads[source] <= hot_bar or len(pending[source]) <= 1:
            break
        target = min(range(n_cells), key=lambda c: (loads[c], c))
        if target == source:
            break
        job = pending[source].pop()
        weight = job_weight(job)
        shed = weight / cell_machines[source]
        gained = weight / cell_machines[target]
        # Refuse moves that would just swap which cell is hot.
        if loads[target] + gained > loads[source] - shed:
            break
        loads[source] -= shed
        loads[target] += gained
        pending[target].append(job)
        moves.append(ShardMove(job=job, source=source, target=target))
    return moves
