"""Test-support oracle for the sharded placer.

:class:`ReferencePlacer` keeps the placer's original routing: one
Python pass over the pool per call, whole-pool load sums on every
arrival, and a whole-pool order dict to restore pool order inside the
cells.  :func:`reference_migrate` is the matching original receiver
logic of ``ShardedScheduler._rebalance``.  Both exist so the
differential sweep in ``tests/test_shard.py`` can pin the indexed,
cached :class:`~repro.shard.placer.GlobalPlacer` to them call by call;
nothing at runtime imports this module.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence

from repro.core.profiler import JobMetrics
from repro.shard.placer import GlobalPlacer, job_weight
from repro.shard.rebalance import ShardMove


class ReferencePlacer(GlobalPlacer):
    """``GlobalPlacer`` with the original whole-pool ``route``."""

    def route(self, jobs: Sequence[JobMetrics]) -> \
            list[tuple[JobMetrics, ...]]:
        """Split the pool into per-cell job tuples, routing new jobs.

        Known jobs keep their cell; new jobs go to the least-loaded
        cell at the moment they are considered (pool order), via a
        heap of ``(load, cell_index)`` entries — ties break on the
        cell index, never on object identity or hash order.
        """
        by_cell: list[list[JobMetrics]] = \
            [[] for _ in range(self.n_cells)]
        new_jobs: list[JobMetrics] = []
        for job in jobs:
            cell = self._assignment.get(job.job_id)
            if cell is None:
                new_jobs.append(job)
            else:
                by_cell[cell].append(job)
        if new_jobs:
            loads = [0.0] * self.n_cells
            for cell, members in enumerate(by_cell):
                for job in members:
                    loads[cell] += job_weight(job)
            heap = [(load / machines, cell)
                    for cell, (load, machines)
                    in enumerate(zip(loads, self.cell_machines,
                                     strict=True))]
            heapq.heapify(heap)
            for job in new_jobs:
                load, cell = heapq.heappop(heap)
                self._assignment[job.job_id] = cell
                by_cell[cell].append(job)
                load += job_weight(job) \
                    / self.cell_machines[cell]
                heapq.heappush(heap, (load, cell))
            if self.tracer is not None:
                self.tracer.instant(
                    "placer.route", cat="shard",
                    args={"new_jobs": len(new_jobs),
                          "pool": len(jobs)})
        if len(self._assignment) > 2 * len(jobs) + 64:
            live = {job.job_id for job in jobs}
            self._assignment = {
                job_id: cell
                for job_id, cell in self._assignment.items()
                if job_id in live}
        # New jobs landed after the stickies inside each cell; restore
        # pool order so per-cell admission matches an unsharded pool.
        if new_jobs:
            order = {job.job_id: index
                     for index, job in enumerate(jobs)}
            for members in by_cell:
                members.sort(key=lambda job: order[job.job_id])
        return [tuple(members) for members in by_cell]


def reference_migrate(placer: GlobalPlacer,
                      routed: Sequence[tuple[JobMetrics, ...]],
                      jobs: Sequence[JobMetrics],
                      moves: Sequence[ShardMove]) \
        -> list[tuple[JobMetrics, ...]]:
    """Apply ``moves`` the way the original rebalance pass did."""
    members = [list(cell_members) for cell_members in routed]
    for move in moves:
        placer.reassign(move.job.job_id, move.target)
        members[move.source].remove(move.job)
        members[move.target].append(move.job)
    # Receivers take migrants at the pool-order position an
    # unsharded admission would see them in.
    order = {job.job_id: index for index, job in enumerate(jobs)}
    for target in sorted({move.target for move in moves}):
        members[target].sort(key=lambda job: order[job.job_id])
    return [tuple(cell_members) for cell_members in members]
