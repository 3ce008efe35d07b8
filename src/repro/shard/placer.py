"""Global placer: sticky job routing for the sharded scheduler.

The placer is the only component that sees every job, and it never
scans machines: it keeps one scalar load per cell (a weighted-work
proxy normalized by the cell's machine count) and routes each *new*
job to the least-loaded cell with a heap keyed on
``(load, cell_index)``.  Routing is sticky — a job stays in its cell
across calls until it departs or the rebalancer moves it — so a
single arrival perturbs exactly one cell and every other cell's
memoized plan survives (:mod:`repro.shard.cells`).

A call costs what changed since the previous one.  The placer keeps
one memo of the last routed pool: a copy of it, its cell column, the
per-cell pool-index lists and the per-cell job tuples.  One C-level
identity pass over the new pool finds the *stale* positions (a
different object than last time, or past the old end); only those are
looked up, only cells whose membership changed are re-indexed, and
only cells holding a stale position get a new tuple — every other
cell returns the previous call's tuple object, which its memoized plan
recognizes by identity.  A cell's raw load is cached against the
member tuple it was summed over, and only cells that received new
jobs are re-sorted.  A pool whose positions mostly moved (a shuffle, a
departure at the head) pays the identity pass and the per-position
diff on top of re-reading every job.

Everything is deterministic: jobs are considered in pool order, heap
ties break on the cell index, and no container is iterated in hash
order (the routing digest is pinned under varying ``PYTHONHASHSEED``
by ``tests/test_shard.py``).
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from itertools import compress
from operator import attrgetter, is_not, itemgetter
from typing import TYPE_CHECKING

from repro.core.perfmodel import CPU_WEIGHT
from repro.core.profiler import JobMetrics
from repro.core.scheduler import ORDERING_DOP
from repro.trace.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
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
                 tracer: Tracer | None = None):
        self.cell_machines = tuple(cell_machines)
        if not self.cell_machines or min(self.cell_machines) < 1:
            raise ValueError(
                f"every cell needs >= 1 machine, got {cell_machines}")
        self.tracer = tracer
        #: job_id -> cell index; insertion-ordered, never hash-iterated.
        self._assignment: dict[str, int] = {}
        #: The memo of the last routed pool: a copy of it, the cell of
        #: every position, per-cell ascending pool indices and per-cell
        #: job tuples.
        self._pool: list[JobMetrics] = []
        self._column: list[int | None] = []
        self._members: list[list[int]] = [[] for _ in self.cell_machines]
        self._routed: list[tuple[JobMetrics, ...]] = \
            [()] * self.n_cells
        #: Cells that held a job reassigned since the memo was taken;
        #: the next diff re-reads all their positions.
        self._stale_cells: set[int] = set()
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
        """Pin a job to a cell; a move marks its old cell stale for
        the next diff."""
        if not 0 <= cell_index < self.n_cells:
            raise ValueError(
                f"cell {cell_index} out of range 0..{self.n_cells - 1}")
        home = self._assignment.get(job_id)
        if home is not None and home != cell_index:
            self._stale_cells.add(home)
        self._assignment[job_id] = cell_index

    def route(self, jobs: Sequence[JobMetrics]) -> \
            list[tuple[JobMetrics, ...]]:
        """Split the pool into per-cell job tuples, routing new jobs.

        Known jobs keep their cell; new jobs go to the least-loaded
        cell at the moment they are considered (pool order), via a
        heap of ``(load, cell_index)`` entries — ties break on the
        cell index, never on object identity or hash order.
        """
        return self._place(jobs)

    def migrate(self, jobs: Sequence[JobMetrics],
                moves: Sequence[ShardMove]) -> list[tuple[JobMetrics, ...]]:
        """Apply the rebalancer's moves to the pool ``route`` last saw.

        Every moved job is reassigned, which marks its old cell stale,
        so the re-diff re-reads just the touched cells and a receiver
        takes each migrant at the pool position an unsharded admission
        would see it in.
        """
        for move in moves:
            self.reassign(move.job.job_id, move.target)
        return self._place(jobs)

    def raw_loads(self) -> list[float]:
        """Unnormalized load of every cell's last routed members, each
        a left fold from 0.0 in pool order."""
        return [self._raw_load(cell, members)
                for cell, members in enumerate(self._routed)]

    def _place(self, jobs: Sequence[JobMetrics]) -> \
            list[tuple[JobMetrics, ...]]:
        """The body of :meth:`route`, shared with :meth:`migrate` so a
        migration does not count as a routing call."""
        pending = self._diff(jobs)
        routed = self._routed
        if pending:
            column, members = self._column, self._members
            heap = [(self._raw_load(cell, routed[cell]) / machines, cell)
                    for cell, machines in enumerate(self.cell_machines)]
            heapq.heapify(heap)
            for index in pending:
                job = jobs[index]
                load, cell = heapq.heappop(heap)
                self._assignment[job.job_id] = cell
                column[index] = cell
                members[cell].append(index)
                load += job_weight(job) / self.cell_machines[cell]
                heapq.heappush(heap, (load, cell))
            # New jobs landed after the stickies inside each cell; restore
            # pool order so per-cell admission matches an unsharded pool.
            for cell in sorted({column[index] for index in pending}):
                members[cell].sort()
                routed[cell] = _take(jobs, members[cell])
            if self.tracer is not None:
                self.tracer.instant(
                    "placer.route", cat="shard",
                    args={"new_jobs": len(pending),
                          "pool": len(jobs)})
        if len(self._assignment) > 2 * len(jobs) + 64:
            live = set(map(_job_id, jobs))
            self._assignment = {
                job_id: cell
                for job_id, cell in self._assignment.items()
                if job_id in live}
        return list(routed)

    def _diff(self, jobs: Sequence[JobMetrics]) -> list[int]:
        """Bring the memo up to ``jobs``; return the positions whose
        jobs are still to route, ascending.

        A position is stale when it holds a different object than the
        memo's pool, lies past the memo's end, or sits in a cell marked
        by :meth:`reassign`.  Stale positions are the only ones looked
        up; a cell is re-indexed only when a position joined or left
        it, and re-tupled only when it held a stale position.  On the
        first call every position is past the memo's (empty) end.
        """
        previous, column, members = self._pool, self._column, self._members
        size, before = len(jobs), len(previous)
        marked_cells, self._stale_cells = self._stale_cells, set()
        self._pool = list(jobs)
        stale = list(compress(range(size), map(is_not, previous, jobs)))
        if marked_cells:
            marked = [index for cell in sorted(marked_cells)
                      for index in members[cell] if index < size]
            stale = sorted(set(stale).union(marked))
        stale.extend(range(before, size))
        # Dropped tail positions leave their cells.
        changed = set(column[size:])
        del column[size:]
        column.extend([None] * (size - before))
        held = set()
        arrivals: dict[int, list[int]] = {}
        pending = []
        homes = map(self._assignment.get,
                    map(_job_id, map(jobs.__getitem__, stale)))
        for index, cell in zip(stale, homes):
            old = column[index]
            if old is not None:
                held.add(old)
            if cell is None:
                pending.append(index)
            elif cell == old:
                continue
            else:
                arrivals.setdefault(cell, []).append(index)
            column[index] = cell
            if old is not None:
                changed.add(old)
        changed.update(arrivals)
        for cell in sorted(changed):
            kept = [index for index in members[cell]
                    if index < size and column[index] == cell]
            kept += arrivals.get(cell, ())
            kept.sort()
            members[cell] = kept
        for cell in sorted(changed | held):
            self._routed[cell] = _take(jobs, members[cell])
        return pending

    def _raw_load(self, cell: int, members: tuple[JobMetrics, ...]) -> float:
        """Unnormalized load of ``members``, summed in pool order from
        0.0 and reused while the cell's member tuple compares equal."""
        cached = self._loads[cell]
        if cached is not None and (cached[0] is members
                                   or cached[0] == members):
            return cached[1]
        load = 0.0
        for job in members:
            load += job_weight(job)
        self._loads[cell] = (members, load)
        return load
