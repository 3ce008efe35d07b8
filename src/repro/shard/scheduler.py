"""Sharded scheduling: cells behind a global placer.

:class:`ShardedScheduler` is a drop-in for
:class:`~repro.core.scheduler.HarmonyScheduler` — same constructor
seam (``perf_model=``/``config=``/``memory_floor=``), same
``schedule(jobs, total_machines)`` contract, same ``last_stats``
attribute the master introspects — that partitions the machine pool
into :class:`~repro.shard.cells.Cell` shards and runs one independent
Algorithm 1 per cell:

* The :class:`~repro.shard.placer.GlobalPlacer` sticks each job to a
  cell, so one arrival dirties exactly one cell.  It diffs each pool
  against the last one by identity (one C-level pass), looks up only
  the positions that changed and hands every untouched cell the very
  tuple it routed last time.  Every clean cell answers from its
  memoized plan without touching Algorithm 1 at all.  That is where
  the speedup lives: an unsharded scheduler re-plans the *whole* pool
  per arrival, a sharded one re-plans ``1/n_cells`` of it (see
  ``benchmarks/bench_scalability.py``).
* Nothing listens to profiler publishes.  A republished job is a new
  :class:`~repro.core.profiler.JobMetrics` with new values, so its
  cell's tuple stops comparing equal to the memo
  (:meth:`Cell.unchanged`) and every plan cache under it refuses the
  stale entries on read.
* Dirty cells are planned one after another, in cell order, and their
  plans merged in that order; the merge sums the Eq. 4 terms each cell
  kept when it memoized its plan.  Cells are pure-Python Algorithm 1
  under the GIL, so a thread pool never beat the serial loop.
* Every ``ShardConfig.rebalance_every`` calls the
  :mod:`~repro.shard.rebalance` pass drains hot cells; donors keep
  their plans through the §IV-B4 splice
  (:func:`repro.core.regroup.splice_plan`) instead of re-planning.

With ``n_cells = 1`` (or a machine pool smaller than the cell count)
every call delegates to a single plain ``HarmonyScheduler``, which the
differential suite pins bitwise-equal to the unsharded scheduler.  A
call in which no cell places any job falls back to that delegate over
the whole pool, so a job too large for every cell is not starved.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain

from repro.config import ShardConfig
from repro.core.allocation import MemoryFloorFn
from repro.core.perfmodel import PerfModel
from repro.core.profiler import JobMetrics
from repro.core.regroup import splice_plan
from repro.core.scheduler import (
    HarmonyScheduler,
    SchedulePlan,
    SchedulerConfig,
    ScheduleStats,
)
from repro.errors import SchedulingError
from repro.shard.cells import Cell, partition_machines
from repro.shard.placer import GlobalPlacer
from repro.shard.rebalance import ShardMove, plan_moves
from repro.trace.tracer import NULL_TRACER

#: Most jobs one rebalance pass may migrate between cells.
MAX_REBALANCE_MOVES = 64


class ShardedScheduler:
    """Cluster-of-cells front end over per-cell Harmony schedulers."""

    def __init__(self, perf_model: PerfModel | None = None,
                 config: SchedulerConfig | None = None,
                 memory_floor: MemoryFloorFn | None = None,
                 shard: ShardConfig | None = None,
                 tracer=None):
        self.config = config if config is not None else SchedulerConfig()
        self.perf_model = perf_model if perf_model is not None \
            else PerfModel()
        self.memory_floor = memory_floor
        self.shard = shard if shard is not None else ShardConfig()
        tracer = tracer if tracer is not None else NULL_TRACER
        self._trace = tracer if tracer.enabled else None
        self._trace_track = (
            tracer.track("shard", "cells", process_sort=1)
            if self._trace is not None else None)
        #: Delegate for the inert configurations (``n_cells == 1`` or a
        #: pool too small to split) — pinned bitwise-equal to an
        #: unsharded ``HarmonyScheduler`` because it *is* one.
        self._solo = HarmonyScheduler(perf_model=self.perf_model,
                                      config=self.config,
                                      memory_floor=memory_floor)
        self._cells: list[Cell] = []
        self._placer: GlobalPlacer | None = None
        self._total_machines: int | None = None
        self._calls = 0
        #: Shape of the most recent call, mirroring the unsharded
        #: scheduler's attribute (aggregated across cells).
        self.last_stats: ScheduleStats | None = None
        #: Rebalance accounting, for experiments and tests.
        self.jobs_rebalanced = 0
        #: Calls in which no cell placed a job and the pool-scope
        #: scheduler planned instead.
        self.pool_fallbacks = 0

    # -- cell pool ---------------------------------------------------------

    def _rebuild_cells(self, total_machines: int) -> None:
        machines = partition_machines(total_machines, self.shard.n_cells)
        self._cells = [
            Cell(index, n_machines, perf_model=self.perf_model,
                 config=self.config, memory_floor=self.memory_floor)
            for index, n_machines in enumerate(machines)]
        self._placer = GlobalPlacer(
            machines, tracer=self._trace if self._trace is not None
            else NULL_TRACER)
        self._total_machines = total_machines

    # -- the schedule contract --------------------------------------------

    def schedule(self, jobs: Sequence[JobMetrics],
                 total_machines: int) -> SchedulePlan | None:
        """Route, (re)plan dirty cells, merge in cell order."""
        if total_machines < 1:
            raise SchedulingError(
                f"total_machines must be >= 1, got {total_machines}")
        if not jobs:
            self.last_stats = ScheduleStats.of(None, 0, 0)
            return None
        if self.shard.n_cells == 1 or total_machines < self.shard.n_cells:
            return self._schedule_solo(jobs, total_machines)
        if self._total_machines != total_machines:
            self._rebuild_cells(total_machines)
        self._calls += 1
        routed = self._placer.route(jobs)
        if (self.shard.rebalance_every > 0
                and self._calls % self.shard.rebalance_every == 0):
            routed = self._rebalance(routed, jobs)
        occupied, stats, n_skipped = self._schedule_cells(routed)
        merged = self._merge(occupied, total_machines)
        if merged is None:
            # No cell placed anything, e.g. every pooled job's memory
            # floor exceeds its cell: plan at pool scope, so such a job
            # still starts once the cluster has room for it.
            self.pool_fallbacks += 1
            if self._trace is not None:
                self._trace.counter("shard.pool_fallbacks").add(1)
            return self._schedule_solo(jobs, total_machines)
        self.last_stats = ScheduleStats.of(
            merged, len(jobs),
            sum(s.n_prefixes_evaluated for s in stats),
            cache_hits=sum(s.cache_hits for s in stats),
            cache_misses=sum(s.cache_misses for s in stats),
            groups_certified=sum(s.groups_certified for s in stats),
            fast_path=(n_skipped > 0
                       or any(s.fast_path for s in stats)))
        return merged

    def _schedule_solo(self, jobs: Sequence[JobMetrics],
                       total_machines: int) -> SchedulePlan | None:
        plan = self._solo.schedule(jobs, total_machines)
        self.last_stats = self._solo.last_stats
        return plan

    def _schedule_cells(self, routed: Sequence[tuple[JobMetrics, ...]]) \
            -> tuple[list[Cell], list[ScheduleStats], int]:
        """Run Algorithm 1 in every dirty cell; skip clean ones.

        Returns the cells holding jobs, the stats of the dirty ones and
        how many clean ones were skipped.
        """
        occupied = [cell for cell, members
                    in zip(self._cells, routed, strict=True) if members]
        dirty = [cell for cell in occupied
                 if not cell.unchanged(routed[cell.index])]
        if self._trace is not None:
            self._trace.counter("shard.cells_rescheduled").add(len(dirty))
        for cell in dirty:
            self._schedule_cell(cell, routed[cell.index])
        stats = [cell.scheduler.last_stats for cell in dirty
                 if cell.scheduler.last_stats is not None]
        return occupied, stats, len(occupied) - len(dirty)

    def _schedule_cell(self, cell: Cell,
                       members: tuple[JobMetrics, ...]) -> None:
        """Plan one dirty cell, under a per-cell trace span."""
        if self._trace is None:
            cell.remember(members, cell.scheduler.schedule(
                members, cell.n_machines))
            return
        span = self._trace.begin(self._trace_track,
                                 f"cell·{cell.index}", cat="shard")
        plan = cell.scheduler.schedule(members, cell.n_machines)
        self._trace.end(span, args={
            "jobs": len(members),
            "placed": plan.n_jobs if plan is not None else 0})
        cell.remember(members, plan)

    def _merge(self, cells: Sequence[Cell],
               total_machines: int) -> SchedulePlan | None:
        """Concatenate the cells' memoized groups and re-score at pool
        scope.

        Eq. 4 over the concatenated groups, from the terms each cell
        kept with its plan (:attr:`Cell.last_terms`): the same products
        summed in the same order as
        :meth:`~repro.core.perfmodel.PerfModel.cluster_utilization`, so
        the score is bitwise the same.  Pure arithmetic in fixed cell
        order — the merge itself can never perturb a plan, so equal
        per-cell plans imply an equal merged plan.
        """
        groups = tuple(chain.from_iterable(
            cell.last_plan.groups for cell in cells
            if cell.last_plan is not None))
        if not groups:
            return None
        utilization = self.perf_model.utilization_from_terms(
            *(chain.from_iterable(terms)
              for terms in zip(*(cell.last_terms for cell in cells))),
            total_machines=total_machines)
        return SchedulePlan(groups=groups, utilization=utilization,
                            score=self.perf_model.score(utilization),
                            total_machines=total_machines)

    # -- rebalancing -------------------------------------------------------

    def _rebalance(self, routed: list[tuple[JobMetrics, ...]],
                   jobs: Sequence[JobMetrics]) \
            -> list[tuple[JobMetrics, ...]]:
        """Apply the cross-cell drain pass to this call's routing."""
        moves = plan_moves(
            routed, self._placer.raw_loads(),
            [cell.n_machines for cell in self._cells],
            threshold=self.shard.rebalance_threshold,
            max_moves=MAX_REBALANCE_MOVES)
        if not moves:
            return routed
        rerouted = self._placer.migrate(jobs, moves)
        for source in sorted({move.source for move in moves}):
            self._patch_donor(
                self._cells[source], routed[source], rerouted[source],
                [move for move in moves if move.source == source])
        self.jobs_rebalanced += len(moves)
        if self._trace is not None:
            self._trace.instant(
                "shard.rebalance", cat="shard", track=self._trace_track,
                args={"moves": len(moves)})
            self._trace.counter("shard.jobs_moved").add(len(moves))
        return rerouted

    def _patch_donor(self, cell: Cell,
                     before: tuple[JobMetrics, ...],
                     after: tuple[JobMetrics, ...],
                     moves: Sequence[ShardMove]) -> None:
        """Keep the donor's memoized plan alive through the §IV-B4 splice.

        Each departing job is dropped from its group and the plan
        re-scored (:func:`splice_plan`); the patch is accepted only
        while the score stays within the regroup-benefit threshold of
        the original, mirroring the master's patch-vs-escalate rule.
        On any mismatch the memo is simply forgotten and the donor
        re-plans on this call — correct, just slower.
        """
        plan = cell.last_plan
        if plan is None or cell.last_jobs != before:
            cell.forget()
            return
        metrics_by_id = {job.job_id: job for job in before}
        for move in moves:
            group_index = next(
                (index for index, group in enumerate(plan.groups)
                 if move.job.job_id in group.job_ids), None)
            if group_index is None:
                continue  # never placed; dropping it changes nothing
            plan = splice_plan(plan, self.perf_model, group_index,
                               move.job.job_id, (),
                               metrics_for=metrics_by_id.__getitem__)
        threshold = self.config.regroup_benefit_threshold
        if plan.score < cell.last_plan.score * (1.0 - threshold):
            cell.forget()
            return
        cell.remember(after, plan)
