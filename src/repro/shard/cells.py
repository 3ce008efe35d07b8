"""Cells: the machine pool partitioned into independent shards.

A *cell* is a fixed-size slice of the machine pool owned by one
independent :class:`~repro.core.scheduler.HarmonyScheduler` instance —
its own Algorithm 1 and its own :class:`~repro.core.scheduler.PlanCache`.
Cells never see each other's jobs or machines, which is exactly what
makes cold full-schedule calls across cells embarrassingly parallel and
per-arrival re-planning local to one cell (:mod:`repro.shard.scheduler`).
"""

from __future__ import annotations

from repro.core.allocation import MemoryFloorFn
from repro.core.perfmodel import PerfModel, UtilizationTerms
from repro.core.profiler import JobMetrics
from repro.core.scheduler import HarmonyScheduler, SchedulePlan

_NO_TERMS: UtilizationTerms = ((), (), ())


class Cell:
    """One shard: an index, a machine count, and a private scheduler.

    ``last_jobs``/``last_plan`` memoize the most recent ``schedule()``
    outcome so an unchanged cell (same job tuple) is skipped entirely
    on the next sharded call — the device that makes one arrival cost
    one cell re-plan instead of #cells.  The tuple comparison is an
    identity check first (the placer hands an unchanged cell the very
    tuple it routed last time) and otherwise uses element identity
    fast paths (the master and the sweep reuse :class:`JobMetrics`
    objects until the profiler republishes them); a republished job is
    a *new* object with new values, so a stale hit is impossible and a
    publish needs no :meth:`forget`.  ``forget`` is only for a memo the
    rebalancer could not splice.

    ``last_terms`` keeps the memoized plan's Eq. 4 terms
    (:meth:`~repro.core.perfmodel.PerfModel.utilization_terms`), so the
    sharded merge sums them across cells instead of re-reading every
    group estimate.

    A cell's machine count is fixed for its life (the sharded scheduler
    rebuilds every cell when the budget changes), so the job tuple
    alone keys the memo.
    """

    __slots__ = ("index", "n_machines", "scheduler", "last_jobs",
                 "last_plan", "last_terms")

    def __init__(self, index: int, n_machines: int,
                 perf_model: PerfModel,
                 config, memory_floor: MemoryFloorFn | None = None):
        self.index = index
        self.n_machines = n_machines
        self.scheduler = HarmonyScheduler(perf_model=perf_model,
                                          config=config,
                                          memory_floor=memory_floor)
        #: The jobs tuple of the last schedule, or None.
        self.last_jobs: tuple[JobMetrics, ...] | None = None
        self.last_plan: SchedulePlan | None = None
        self.last_terms: UtilizationTerms = _NO_TERMS

    def unchanged(self, jobs: tuple[JobMetrics, ...]) -> bool:
        """Whether the memoized plan still answers for ``jobs``."""
        last = self.last_jobs
        return last is not None and (last is jobs or last == jobs)

    def remember(self, jobs: tuple[JobMetrics, ...],
                 plan: SchedulePlan | None) -> None:
        self.last_jobs = jobs
        self.last_plan = plan
        self.last_terms = _NO_TERMS if plan is None else \
            PerfModel.utilization_terms(
                [group.estimate for group in plan.groups])

    def forget(self) -> None:
        self.last_jobs = None
        self.last_plan = None
        self.last_terms = _NO_TERMS
