"""Global placer: sticky job routing for the sharded scheduler.

The placer is the only component that sees every job, and it never
scans machines: it keeps one scalar load per cell (a weighted-work
proxy normalized by the cell's machine count) and routes each *new*
job to the least-loaded cell with a heap keyed on
``(load, cell_index)``.  Routing is sticky — a job stays in its cell
across calls until it departs or the rebalancer moves it — so a
single arrival perturbs exactly one cell and every other cell's
memoized plan survives (:mod:`repro.shard.cells`).

Per call, the only work proportional to the pool runs in C: one id
lookup per job and one :func:`operator.itemgetter` per cell to build
the cell tuples from per-cell pool-index lists.  Python-level work is
spent only on cells whose members changed: a cell's raw load is cached
against the member tuple it was summed over, and only cells that
received new jobs are re-sorted.  The index lists themselves are
reused whenever the pool's cell column equals (or extends) the
previous call's.

Everything is deterministic: jobs are considered in pool order, heap
ties break on the cell index, and no container is iterated in hash
order (the routing digest is pinned under varying ``PYTHONHASHSEED``
by ``tests/test_shard.py``).
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from itertools import chain
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING

from repro.core.perfmodel import CPU_WEIGHT
from repro.core.profiler import JobMetrics
from repro.core.scheduler import ORDERING_DOP
from repro.trace.tracer import NULL_TRACER, NullTracer, Tracer

if TYPE_CHECKING:
    from repro.shard.rebalance import ShardMove

_job_id = attrgetter("job_id")


def job_weight(job: JobMetrics) -> float:
    """Scalar load proxy of one job.

    Mirrors the scheduler's scoring split: CPU work dominates with
    :data:`~repro.core.perfmodel.CPU_WEIGHT`, and the network term is
    scaled by the ordering DoP so both sides are in comparable
    per-machine seconds.
    """
    return CPU_WEIGHT * job.cpu_work \
        + (1.0 - CPU_WEIGHT) * job.t_net * ORDERING_DOP


def _take(jobs: Sequence[JobMetrics],
          indices: list[int]) -> tuple[JobMetrics, ...]:
    """``tuple(jobs[i] for i in indices)``, built in C."""
    if len(indices) > 1:
        return itemgetter(*indices)(jobs)
    return (jobs[indices[0]],) if indices else ()


class GlobalPlacer:
    """Sticky job→cell router.

    ``route()`` takes the current job pool and returns the per-cell job
    tuples (pool order preserved inside each cell).  The sticky
    assignment map is pruned once it outgrows the live pool, so memory
    stays proportional to the pool even under heavy churn.
    """

    def __init__(self, cell_machines: Sequence[int],
                 tracer: "Tracer | NullTracer | None" = None):
        self.cell_machines = tuple(cell_machines)
        if not self.cell_machines or min(self.cell_machines) < 1:
            raise ValueError(
                f"every cell needs >= 1 machine, got {cell_machines}")
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: job_id -> cell index; insertion-ordered, never hash-iterated.
        self._assignment: dict[str, int] = {}
        #: ``(cell of every pool position, per-cell ascending pool
        #: indices)`` of the last routed pool; None until a route
        #: completes.  The index lists are a pure function of the cell
        #: column, so an equal column reuses them.
        self._memo: tuple[list[int], list[list[int]]] | None = None
        #: Per cell, ``(member tuple, raw load)`` of its last load sum.
        self._loads: list[tuple[tuple[JobMetrics, ...], float] | None] = \
            [None] * self.n_cells

    @property
    def n_cells(self) -> int:
        return len(self.cell_machines)

    def cell_of(self, job_id: str) -> int | None:
        """Cell the job is currently routed to, or None if unknown."""
        return self._assignment.get(job_id)

    def reassign(self, job_id: str, cell_index: int) -> None:
        """Pin a job to a cell."""
        if not 0 <= cell_index < self.n_cells:
            raise ValueError(
                f"cell {cell_index} out of range 0..{self.n_cells - 1}")
        self._assignment[job_id] = cell_index

    def route(self, jobs: Sequence[JobMetrics]) -> \
            list[tuple[JobMetrics, ...]]:
        """Split the pool into per-cell job tuples, routing new jobs.

        Known jobs keep their cell; new jobs go to the least-loaded
        cell at the moment they are considered (pool order), via a
        heap of ``(load, cell_index)`` entries — ties break on the
        cell index, never on object identity or hash order.
        """
        ids = list(map(_job_id, jobs))
        cells = list(map(self._assignment.get, ids))
        members, new_jobs = self._partition(cells)
        routed = [_take(jobs, indices) for indices in members]
        if new_jobs:
            heap = [(self._raw_load(cell, routed[cell]) / machines, cell)
                    for cell, machines in enumerate(self.cell_machines)]
            heapq.heapify(heap)
            for index in new_jobs:
                load, cell = heapq.heappop(heap)
                self._assignment[ids[index]] = cell
                cells[index] = cell
                members[cell].append(index)
                load += job_weight(jobs[index]) \
                    / self.cell_machines[cell]
                heapq.heappush(heap, (load, cell))
            # New jobs landed after the stickies inside each cell; restore
            # pool order so per-cell admission matches an unsharded pool.
            for cell in sorted({cells[index] for index in new_jobs}):
                members[cell].sort()
                routed[cell] = _take(jobs, members[cell])
            self.tracer.instant(
                "placer.route", cat="shard",
                args={"new_jobs": len(new_jobs),
                      "pool": len(jobs)})
        if len(self._assignment) > 2 * len(jobs) + 64:
            live = set(ids)
            self._assignment = {
                job_id: cell
                for job_id, cell in self._assignment.items()
                if job_id in live}
        self._memo = (cells, members)
        return routed

    def migrate(self, jobs: Sequence[JobMetrics],
                routed: Sequence[tuple[JobMetrics, ...]],
                moves: Sequence[ShardMove]) -> list[tuple[JobMetrics, ...]]:
        """Apply the rebalancer's moves to ``routed = route(jobs)``.

        Every moved job is reassigned, and each cell a move touched is
        re-read from its pool indices, so a receiver takes each migrant
        at the pool position an unsharded admission would see it in.
        """
        for move in moves:
            self.reassign(move.job.job_id, move.target)
        cells, members = self._memo
        touched = sorted({move.source for move in moves}
                         | {move.target for move in moves})
        indices = sorted(chain.from_iterable(
            members[cell] for cell in touched))
        for cell in touched:
            members[cell] = []
        for index in indices:
            cell = self._assignment[jobs[index].job_id]
            cells[index] = cell
            members[cell].append(index)
        rerouted = list(routed)
        for cell in touched:
            rerouted[cell] = _take(jobs, members[cell])
        return rerouted

    def _partition(self, cells: list[int | None]) \
            -> tuple[list[list[int]], list[int]]:
        """Per-cell ascending pool indices of the routed positions, and
        the positions still to route.

        Positions covered by the previous call's cell column are taken
        from its index lists when the column matches; only the rest are
        walked.
        """
        memo, self._memo = self._memo, None
        start = 0
        if memo is not None and cells[:len(memo[0])] == memo[0]:
            start, members = len(memo[0]), memo[1]
        else:
            members = [[] for _ in range(self.n_cells)]
        appends = [indices.append for indices in members]
        new_jobs = []
        for index in range(start, len(cells)):
            cell = cells[index]
            if cell is None:
                new_jobs.append(index)
            else:
                appends[cell](index)
        return members, new_jobs

    def _raw_load(self, cell: int, members: tuple[JobMetrics, ...]) -> float:
        """Unnormalized load of ``members``, summed in pool order from
        0.0 and reused while the cell's member tuple compares equal."""
        cached = self._loads[cell]
        if cached is not None and cached[0] == members:
            return cached[1]
        load = 0.0
        for job in members:
            load += job_weight(job)
        self._loads[cell] = (members, load)
        return load
