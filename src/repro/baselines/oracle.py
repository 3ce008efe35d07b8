"""Exhaustive-search scheduling: the §V-F "Oracle".

"We evaluate Harmony's scheduling algorithm with an exhaustive search
that finds the ground truth that maximizes resource utilization by
measuring all possible search spaces."

The oracle enumerates every set partition of the candidate jobs into
groups (machine allocation per partition uses the same marginal-benefit
allocator, which is exact for the monotone Eq. 1/Eq. 3 objective) and
keeps the partition with the best predicted cluster utilization.  The
search space grows as the Bell numbers — the paper reports ~10 hours
for 4K jobs; here a guard refuses pools where enumeration would be
intractable, mirroring Fig. 14's scaled-down comparison.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from repro.config import SchedulerConfig
from repro.core.allocation import MemoryFloorFn, allocate_machines
from repro.core.perfmodel import PerfModel
from repro.core.profiler import JobMetrics
from repro.core.scheduler import (
    ORDERING_DOP,
    Candidate,
    HarmonyScheduler,
    PoolSnapshot,
    SchedulePlan,
    ScheduleStats,
)
from repro.errors import SchedulingError

#: Refuse exhaustive search beyond this pool size (Bell(11) > 600K).
MAX_ORACLE_JOBS = 10


def set_partitions(items: Sequence,
                   max_group_size: int | None = None) -> Iterator[list]:
    """All partitions of ``items`` into non-empty groups.

    Canonical recursive enumeration: each new item either joins an
    existing group or opens a new one, so every partition appears once.
    """
    items = list(items)
    if not items:
        yield []
        return

    def recurse(index: int, groups: list[list]):
        if index == len(items):
            yield [list(g) for g in groups]
            return
        item = items[index]
        for group in groups:
            if max_group_size is not None and \
                    len(group) >= max_group_size:
                continue
            group.append(item)
            yield from recurse(index + 1, groups)
            group.pop()
        groups.append([item])
        yield from recurse(index + 1, groups)
        groups.pop()

    yield from recurse(0, [])


class OracleScheduler:
    """Drop-in replacement for :class:`HarmonyScheduler` that searches
    the whole partition space."""

    def __init__(self, perf_model: PerfModel | None = None,
                 config: SchedulerConfig | None = None,
                 memory_floor: MemoryFloorFn | None = None,
                 max_jobs: int = MAX_ORACLE_JOBS):
        self.config = config if config is not None else SchedulerConfig()
        self.perf_model = perf_model if perf_model is not None \
            else PerfModel()
        self.memory_floor = memory_floor
        self.max_jobs = max_jobs
        #: Partitions evaluated by the last schedule() call.
        self.last_search_size = 0
        self.last_stats: ScheduleStats | None = None
        # Plan assembly/scoring is shared with the greedy scheduler.
        self._builder = HarmonyScheduler(perf_model=self.perf_model,
                                         config=self.config,
                                         memory_floor=memory_floor)

    def schedule(self, jobs: Sequence[JobMetrics],
                 total_machines: int) -> SchedulePlan | None:
        """Ground-truth schedule by exhaustive partition search.

        Like Algorithm 1, jobs may be left out: subsets are covered
        because the search also runs on every prefix of the (iteration
        -time-ordered) job list.
        """
        if len(jobs) > self.max_jobs:
            raise SchedulingError(
                f"exhaustive search over {len(jobs)} jobs is intractable "
                f"(limit {self.max_jobs}); the paper reports ~10 hours "
                f"at 4K jobs for the same reason")
        if total_machines < 1:
            raise SchedulingError("need at least one machine")
        if not jobs:
            self.last_stats = ScheduleStats.of(None, 0, 0)
            return None
        self.last_search_size = 0
        best: Candidate | None = None
        ordered = sorted(jobs, key=lambda j: j.t_iteration_at(ORDERING_DOP))
        # Partitions are index groups into one snapshot of the ordered
        # pool, scored by the greedy scheduler's own prefix scorer.
        pool = PoolSnapshot(ordered, self.perf_model, self.memory_floor)
        for n_jobs in range(1, len(ordered) + 1):
            for partition in set_partitions(
                    range(n_jobs),
                    max_group_size=self.config.max_jobs_per_group):
                if len(partition) > total_machines:
                    continue
                self.last_search_size += 1
                allocation = allocate_machines(partition, pool,
                                               total_machines)
                if allocation is None:
                    continue
                score = pool.score(partition, allocation, total_machines)
                if best is None or score > best[0]:
                    best = (score, partition, allocation)
        plan = self._builder.build_plan(pool.groups_of(best[1]), best[2],
                                        total_machines) \
            if best is not None else None
        # Every prefix of the ordered pool is searched.
        self.last_stats = ScheduleStats.of(plan, len(jobs), len(ordered))
        return plan
