"""Algorithm 1: Harmony's job scheduling algorithm (§IV-B3).

Starting from the profiled/paused/running jobs, the scheduler grows the
considered job set one job at a time.  For each candidate set it (L6)
picks the group count ``n_G*`` that best balances CPU and network use
under the equal-DoP assumption (``m_g = M / n_G``, so ``T_cpu ∝ n_G``),
(L7) assigns jobs to groups, (L8) allocates machines, and keeps the
resulting grouping while the predicted cluster utilization improves
(L10-13).

This is the *incremental* implementation: one flat
:class:`PoolSnapshot` (per-job ``cpu_work``, ``t_net`` and job-id lists
in admission order) is taken per ``schedule()`` call and every sub-step
of every prefix reads it — the grouping order, greedy fill, swap
fine-tuning, machine allocation and prefix scoring all run on Python
floats and index lists.  Score terms are memoized for the call, and
scored prefix candidates are memoized across calls in a
:class:`PlanCache` keyed by (job-set fingerprint, machine count), whose
entries share their call's metrics tuple, store each candidate packed
into flat arrays, and are checked against the prefix's metrics on
every read.  Work whose answer is already fixed is skipped: the L6
search when a certificate proves ``n_G*`` is an end of its window, and
the swap pass when every job has a group of its own (DESIGN.md §5).
Each prefix is only scored; the winning one is the only prefix whose
groups become :class:`JobMetrics` lists, :class:`GroupEstimate` objects
and a :class:`SchedulePlan`.  The pre-optimization path is kept
verbatim as a test oracle (``tests/sched_oracle.py``), and
``tests/test_sched_fastpath.py`` pins the two to identical plans.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, chain
from operator import add, attrgetter

import numpy as np

from repro.config import SchedulerConfig
from repro.core.allocation import MemoryFloorFn, allocate_machines
from repro.core.grouping import assign_jobs
from repro.core.perfmodel import GroupEstimate, PerfModel, UtilizationVector
from repro.core.profiler import JobMetrics
from repro.errors import SchedulingError

#: DoP at which jobs are ordered before the prefix loop (the paper's
#: characterization DoP; the ordering only needs to be stable).  Public
#: because the policy zoo characterizes queued jobs at the same DoP
#: (:mod:`repro.policies.planner`).
ORDERING_DOP = 16

#: Consecutive non-improving prefix sizes tolerated before Algorithm
#: 1's L10-13 loop stops growing the job set.  The paper breaks on the
#: first non-improvement; a small patience makes the greedy loop robust
#: to bumps introduced by the discrete n_G* re-choice.
SCHEDULE_PATIENCE = 6

#: Sentinel distinguishing "not cached" from a cached infeasible prefix
#: (``None`` is a legitimate, cacheable planning outcome).
_CACHE_MISS = object()

#: Capacity of each scheduler's :class:`PlanCache`.
PLAN_CACHE_ENTRIES = 256

#: Scale of the L6 certificate's error bound: ``2⁻⁵²`` is twice the
#: unit roundoff, and the 1% slack absorbs the rounding of the bound's
#: own operands (see :meth:`HarmonyScheduler._pick_group_count`).
_CERTIFICATE_ULP = 1.01 * 2.0 ** -52

#: What one prefix of Algorithm 1's loop yields: the plan score, the
#: groups (as indices into the call's admission order) and their
#: machine counts.  Only the winning prefix of a ``schedule()`` call is
#: assembled into a :class:`SchedulePlan`.
Candidate = tuple[float, Sequence[Sequence[int]], Sequence[int]]

#: A :data:`Candidate` as :class:`PlanCache` stores it
#: (:meth:`PlanCache.pack`).
PackedCandidate = tuple[float, array, array, array]


@dataclass(frozen=True)
class ScheduleStats:
    """Shape of one ``schedule()`` call, for observability (the trace
    layer attaches these to regroup-check instants)."""

    n_jobs_offered: int
    n_prefixes_evaluated: int
    best_n_groups: int
    best_n_jobs: int
    best_score: float
    #: Prefix plans served from :class:`PlanCache` during this call.
    cache_hits: int = 0
    #: Prefix plans computed from scratch during this call.
    cache_misses: int = 0
    #: Always 0: every prefix sorts its own order.  Kept because the
    #: perf ledger (``benchmarks/perf/spans.py``) reads it.
    warm_start_reuses: int = 0
    #: Planned prefixes whose n_G* came from the L6 end certificate
    #: instead of the search.
    groups_certified: int = 0
    #: True when a plan-cache hit contributed to this call.
    fast_path: bool = False

    @classmethod
    def of(cls, plan: SchedulePlan | None, n_jobs_offered: int,
           n_prefixes_evaluated: int, **counters) -> ScheduleStats:
        """The stats of a call that returned ``plan``."""
        return cls(
            n_jobs_offered=n_jobs_offered,
            n_prefixes_evaluated=n_prefixes_evaluated,
            best_n_groups=len(plan.groups) if plan is not None else 0,
            best_n_jobs=plan.n_jobs if plan is not None else 0,
            best_score=plan.score if plan is not None else 0.0,
            **counters)


_job_ids = attrgetter("job_ids")


@dataclass(frozen=True)
class GroupPlan:
    """One job group of a schedule decision."""

    job_ids: tuple[str, ...]
    n_machines: int
    estimate: GroupEstimate

    @property
    def n_jobs(self) -> int:
        return len(self.job_ids)


@dataclass(frozen=True)
class SchedulePlan:
    """A full scheduling decision: groups, machines, predicted value."""

    groups: tuple[GroupPlan, ...]
    utilization: UtilizationVector
    score: float
    total_machines: int

    @property
    def n_jobs(self) -> int:
        """Jobs placed: the sum of group sizes."""
        return sum(map(len, map(_job_ids, self.groups)))

    @property
    def scheduled_job_ids(self) -> frozenset[str]:
        return frozenset(job_id for group in self.groups
                         for job_id in group.job_ids)

    @property
    def machines_used(self) -> int:
        return sum(group.n_machines for group in self.groups)

    def describe(self) -> str:
        lines = [f"SchedulePlan: {len(self.groups)} groups, "
                 f"{self.machines_used}/{self.total_machines} machines, "
                 f"U_cpu={self.utilization.cpu:.2f} "
                 f"U_net={self.utilization.net:.2f}"]
        for index, group in enumerate(self.groups):
            lines.append(
                f"  group[{index}] m={group.n_machines} "
                f"jobs={list(group.job_ids)} "
                f"T_g={group.estimate.t_group_iteration:.1f}s "
                f"({group.estimate.bound_case}-bound)")
        return "\n".join(lines)


def argmin_convex(cost, low: int, high: int) -> int:
    """An integer minimizer of a convex cost on ``[low, high]``.

    Ternary search with *non-strict* window shrinking: on a tie
    (``cost(mid1) == cost(mid2)``) the minimum lies anywhere inside
    ``[mid1, mid2]``, so the window shrinks to exactly that span instead
    of discarding an endpoint — the strict ``<``/exclusive variant can
    drop the true minimizer when the cost is piecewise-linear with flat
    segments (e.g. Σ|W_j·n_g/M − T_net_j|, whose bottom is often a
    plateau).  Once the window is small the remaining points are scanned
    linearly, and ties resolve to the smallest argument *of that final
    window*.  On a plateau the result is therefore a minimizer, not
    necessarily the smallest one: ``max(0, |x − 50| − 20)`` on
    ``[0, 100]`` is minimal on 30..70 and returns 49.
    """
    if low > high:
        raise SchedulingError(f"empty search window [{low}, {high}]")
    while high - low > 2:
        mid1 = low + (high - low) // 3
        mid2 = high - (high - low) // 3
        c1, c2 = cost(mid1), cost(mid2)
        if c1 < c2:
            high = mid2          # minimum is left of mid2
        elif c1 > c2:
            low = mid1           # minimum is right of mid1
        else:
            low, high = mid1, mid2  # plateau: minimum within [mid1, mid2]
    return min(range(low, high + 1), key=cost)


def _prefix_sizes(n: int):
    """Candidate-set sizes for Algorithm 1's outer loop.

    Exhaustive (1, 2, ..., n) for small pools; geometric growth beyond
    64 jobs so that scheduling thousands of jobs stays sub-second while
    the early-break behaviour is unchanged (§V-F scalability).
    """
    size = 1
    last = 0
    while size <= n:
        yield size
        last = size
        size += 1 if size < 64 else max(1, size // 8)
    if last != n and n > 0:
        yield n


class PlanCache:
    """LRU memo of prefix candidates, keyed by (fingerprint, n, machines).

    The master calls ``schedule()`` with heavily overlapping job pools —
    every arrival, completion, and periodic regroup check re-plans a
    pool that mostly repeats earlier prefixes.  An entry is ``(jobs, n,
    packed)``: the metrics tuple of the call that computed it (one
    tuple shared by all of that call's entries, never a per-entry
    slice), the prefix length, and the candidate as :meth:`pack` stores
    it — a score and three flat ``array`` buffers instead of a list of
    index lists.  On the 32K-job, 32-cell sharded sweep (32 caches) that
    cuts the entries' retained memory from about 40 to 8 MiB, and the
    cyclic collector tracks three arrays per entry instead of one list
    per group.

    A lookup only hits when the stored tuple's first ``n`` jobs compare
    equal to the offered tuple's first ``n``.  That check on read is the
    whole correctness argument: a fingerprint collision and a job whose
    moving averages moved (§IV-B1) both degrade to a miss, never to a
    wrong plan.  So nothing is invalidated on publish; entries of
    republished jobs simply age out of the LRU order.
    """

    __slots__ = ("max_entries", "_entries")

    def __init__(self, max_entries: int = PLAN_CACHE_ENTRIES):
        if max_entries < 1:
            raise SchedulingError(
                f"cache needs >= 1 entry, got {max_entries}")
        self.max_entries = max_entries
        #: key -> (metrics tuple, n, packed candidate or None)
        self._entries: "OrderedDict[tuple, tuple]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple, jobs: tuple, n: int):
        """The packed candidate cached for the first ``n`` of ``jobs``,
        or :data:`_CACHE_MISS` when absent."""
        entry = self._entries.get(key)
        # Slices of unequal length never compare equal.
        if entry is not None and entry[0][:entry[1]] == jobs[:n]:
            self._entries.move_to_end(key)
            return entry[2]
        return _CACHE_MISS

    def put(self, key: tuple, jobs: tuple, n: int,
            packed: "PackedCandidate | None") -> None:
        """Cache ``packed`` for the first ``n`` of ``jobs``; ``jobs`` is
        stored as is, never sliced."""
        entries = self._entries
        entries.pop(key, None)
        while len(entries) >= self.max_entries:
            entries.popitem(last=False)
        entries[key] = (jobs, n, packed)

    @staticmethod
    def pack(candidate: Candidate) -> PackedCandidate:
        """``(score, groups, allocation)`` as ``(score, flat indices,
        group sizes, machine counts)``.  Indices and sizes are bounded
        by the pool length (``"i"``); machine counts get ``"q"`` so no
        budget overflows."""
        score, groups, allocation = candidate
        return (score, array("i", chain.from_iterable(groups)),
                array("i", map(len, groups)), array("q", allocation))

    @staticmethod
    def unpack(packed: PackedCandidate) -> Candidate:
        """The inverse of :meth:`pack`, as lists of ints."""
        score, flat, sizes, machines = packed
        indices = flat.tolist()
        groups = []
        start = 0
        for size in sizes:
            groups.append(indices[start:start + size])
            start += size
        return score, groups, machines.tolist()

    def invalidate_job(self, job_id: str) -> None:
        """A no-op profiler listener.

        :meth:`get` already refuses an entry whose jobs moved, so a
        publish needs no bookkeeping; kept so that code subscribing
        this method to a :class:`~repro.core.profiler.Profiler` keeps
        working.
        """
        del job_id


class PoolSnapshot:
    """One ``schedule()`` call's job pool as flat per-job lists.

    Algorithm 1 runs its L4-L13 body on every prefix of the pool, and on
    fig10 a mean prefix holds about ten jobs in three groups — inputs so
    small that per-call constant costs (NumPy calls on 3-to-80-element
    arrays, a dataclass per scored group) dominate.  The snapshot reads
    each job's attributes once, in admission order, and every sub-step
    works on its Python floats and on index lists into it: the grouping
    order, greedy fill, swap fine-tuning, machine allocation and prefix
    scoring.  Only the L6 cost keeps NumPy arrays, for its bitwise
    reduction order.  Running sums of ``|W_j|`` and ``|T_net_j|`` per
    prefix feed the L6 certificate's error bound and its choice of
    window end; they are left folds (``accumulate``), never the builtin
    ``sum()``, whose float rounding differs across interpreters, and
    they never decide a plan on their own.

    Each (group, machine count)'s score terms are memoized here too,
    and die with the snapshot when ``schedule()`` returns.
    """

    __slots__ = ("jobs", "job_ids", "cpu_work", "t_net", "cpu_array",
                 "net_array", "work_sums", "net_sums", "certified",
                 "_perf_model", "_memory_floor", "_cpu_factor",
                 "_net_factor", "_terms")

    def __init__(self, jobs: Sequence[JobMetrics], perf_model: PerfModel,
                 memory_floor: MemoryFloorFn | None = None):
        self.jobs = tuple(jobs)
        self.job_ids = [job.job_id for job in self.jobs]
        self.cpu_work = [job.cpu_work for job in self.jobs]
        self.t_net = [job.t_net for job in self.jobs]
        #: The L6 cost's operands: NumPy keeps its reduction order.
        self.cpu_array = np.array(self.cpu_work, dtype=np.float64)
        self.net_array = np.array(self.t_net, dtype=np.float64)
        #: ``work_sums[k-1]`` = Σ|W_j| and ``net_sums[k-1]`` = Σ|T_net_j|
        #: over the first ``k`` jobs.
        self.work_sums = list(accumulate(map(abs, self.cpu_work)))
        self.net_sums = list(accumulate(map(abs, self.t_net)))
        #: Prefixes whose n_G* the L6 end certificate settled.
        self.certified = 0
        self._perf_model = perf_model
        self._memory_floor = memory_floor
        self._cpu_factor = perf_model.job_factors("t_cpu", self.job_ids)
        self._net_factor = perf_model.job_factors("t_net", self.job_ids)
        self._terms: dict[tuple, tuple[float, float]] = {}

    def groups_of(self, groups: Sequence[Sequence[int]]) -> \
            list[list[JobMetrics]]:
        """Index groups as lists of the snapshot's jobs."""
        jobs = self.jobs
        return [[jobs[index] for index in group] for group in groups]

    def floors(self, groups: Sequence[Sequence[int]]) -> list[int]:
        """Each group's memory floor (1 without a floor function)."""
        memory_floor = self._memory_floor
        if memory_floor is None:
            return [1] * len(groups)
        job_ids = self.job_ids
        return [memory_floor([job_ids[index] for index in group])
                for group in groups]

    def score(self, groups: Sequence[Sequence[int]],
              allocation: Sequence[int], total_machines: int) -> float:
        """The score :meth:`HarmonyScheduler.build_plan` gives these
        groups, bit for bit, from memoized per-group float terms.

        ``PerfModel.cluster_utilization`` sums ``m_g · U_cpu(g)`` and
        ``m_g · U_net(g)`` over the groups in order and divides by the
        machine count; these are the same products summed by the same
        builtin ``sum`` over the same sequence.

        A one-job group's terms are computed here, under the key
        :meth:`_group_terms` gives it, with its arithmetic on one
        element: the builtin ``sum`` of ``[c]`` is ``0 + c`` and the
        ``max`` over one job's ``c + t`` is ``c + t`` (DESIGN.md §5).
        """
        memo = self._terms
        cpu_work, cpu_factor = self.cpu_work, self._cpu_factor
        t_net, net_factor = self.t_net, self._net_factor
        terms = []
        for group, m in zip(groups, allocation, strict=True):
            if len(group) != 1:
                terms.append(self._group_terms(group, m))
                continue
            index = group[0]
            key = (m, index)
            term = memo.get(key)
            if term is None:
                c = cpu_work[index] / m * cpu_factor[index]
                t = t_net[index] * net_factor[index]
                cpu_sum = 0 + c
                net_sum = 0 + t
                t_g = max(cpu_sum, net_sum, c + t)
                term = memo[key] = (0.0, 0.0) if t_g <= 0 else \
                    (m * (cpu_sum / t_g), m * (net_sum / t_g))
            terms.append(term)
        cpu = sum([term[0] for term in terms]) / total_machines
        net = sum([term[1] for term in terms]) / total_machines
        return self._perf_model.score(UtilizationVector(cpu, net))

    def _group_terms(self, group: Sequence[int],
                     m: int) -> tuple[float, float]:
        """``(m · U_cpu, m · U_net)`` of one group on ``m`` machines:
        :meth:`PerfModel.estimate_group`'s Eq. 1-3 arithmetic, with the
        error injector's factors read from per-job lists."""
        key = (m, *group)
        terms = self._terms.get(key)
        if terms is None:
            cpu_work, cpu_factor = self.cpu_work, self._cpu_factor
            t_net, net_factor = self.t_net, self._net_factor
            t_cpus = [cpu_work[index] / m * cpu_factor[index]
                      for index in group]
            t_nets = [t_net[index] * net_factor[index] for index in group]
            cpu_sum = sum(t_cpus)
            net_sum = sum(t_nets)
            t_g = max(cpu_sum, net_sum, max(map(add, t_cpus, t_nets)))
            terms = self._terms[key] = (0.0, 0.0) if t_g <= 0 else \
                (m * (cpu_sum / t_g), m * (net_sum / t_g))
        return terms


class HarmonyScheduler:
    """Implements Algorithm 1 plus the n_G* search of L6."""

    def __init__(self, perf_model: PerfModel | None = None,
                 config: SchedulerConfig | None = None,
                 memory_floor: MemoryFloorFn | None = None):
        self.config = config if config is not None else SchedulerConfig()
        self.perf_model = perf_model if perf_model is not None \
            else PerfModel()
        self.memory_floor = memory_floor
        #: Shape of the most recent :meth:`schedule` call (None before
        #: the first call); read by the master's trace instrumentation.
        self.last_stats: ScheduleStats | None = None
        #: Prefix-candidate memo, shared across calls.
        self.plan_cache = PlanCache()

    # -- Algorithm 1 ---------------------------------------------------------

    def schedule(self, jobs: Sequence[JobMetrics],
                 total_machines: int) -> SchedulePlan | None:
        """The ``schedule`` function of Algorithm 1.

        Returns the best plan found, or None when no job can be placed
        (e.g. nothing fits in memory).
        """
        if total_machines < 1:
            raise SchedulingError(
                f"total_machines must be >= 1, got {total_machines}")
        if not jobs:
            self.last_stats = ScheduleStats.of(None, 0, 0)
            return None
        pool = PoolSnapshot(self._admission_order(jobs), self.perf_model,
                            self.memory_floor)
        cache = self.plan_cache
        ordered = pool.jobs
        fingerprints = _prefix_fingerprints(ordered)
        best: PackedCandidate | None = None
        no_improvement = 0
        n_prefixes = 0
        cache_hits = 0
        cache_misses = 0
        for n_jobs in _prefix_sizes(len(ordered)):
            n_prefixes += 1
            key = (fingerprints[n_jobs - 1], n_jobs, total_machines)
            # A hit's index groups came from an earlier call whose
            # prefix compared equal, job for job, to this one.
            candidate = cache.get(key, ordered, n_jobs)
            if candidate is _CACHE_MISS:
                cache_misses += 1
                candidate = self._plan_for(pool, n_jobs, total_machines)
                if candidate is not None:
                    candidate = cache.pack(candidate)
                cache.put(key, ordered, n_jobs, candidate)
            else:
                cache_hits += 1
            if candidate is None:
                if best is not None:
                    break  # adding jobs stopped being feasible
                continue
            if best is None or candidate[0] > best[0]:
                best = candidate
                no_improvement = 0
            else:
                # L12-13: stop growing once utilization stops
                # improving (with a small patience for discrete
                # n_G* bumps).
                no_improvement += 1
                if no_improvement > SCHEDULE_PATIENCE:
                    break
        plan = None
        if best is not None:
            # The winner's plan score is its candidate score, bit for
            # bit; only the winner is unpacked.
            _, groups, allocation = cache.unpack(best)
            plan = self.build_plan(pool.groups_of(groups), allocation,
                                   total_machines)
        self.last_stats = ScheduleStats.of(
            plan, len(pool.jobs), n_prefixes,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            groups_certified=pool.certified,
            fast_path=cache_hits > 0)
        return plan

    def _admission_order(self, jobs: Sequence[JobMetrics]) -> \
            list[JobMetrics]:
        """Order in which the L4 prefix loop considers jobs.

        The paper does not pin J_to_sched's order; see
        ``SchedulerConfig.admission_order`` for the choices.
        """
        ascending = sorted(
            jobs, key=lambda job: job.t_iteration_at(ORDERING_DOP))
        order = self.config.admission_order
        if order == "sjf":
            return ascending
        if order == "ljf":
            return list(reversed(ascending))
        if order == "interleave":
            result = []
            low, high = 0, len(ascending) - 1
            take_long = True
            while low <= high:
                if take_long:
                    result.append(ascending[high])
                    high -= 1
                else:
                    result.append(ascending[low])
                    low += 1
                take_long = not take_long
            return result
        # "critical" (SchedulerConfig rejects any other order): the
        # handful of longest jobs define the makespan's critical path and
        # must start early; everything else goes shortest-first so
        # completions front-load (short mean JCT).
        n_critical = max(1, len(ascending) // 10)
        critical = ascending[len(ascending) - n_critical:]
        rest = ascending[:len(ascending) - n_critical]
        return list(reversed(critical)) + rest

    def _plan_for(self, pool: PoolSnapshot, n_jobs: int,
                  total_machines: int) -> Candidate | None:
        """One iteration of the L4-L13 loop body for the pool's first
        ``n_jobs`` jobs: their scored index groups and allocation, or
        None when infeasible."""
        n_groups = self._pick_group_count(pool, n_jobs, total_machines)
        m_ref = max(1, total_machines // n_groups)
        t_cpu = [work / m_ref for work in pool.cpu_work[:n_jobs]]
        groups = assign_jobs(t_cpu, pool.t_net[:n_jobs], n_groups,
                             max_swap_passes=self.config.max_swap_passes)
        allocation = allocate_machines(groups, pool, total_machines)
        if allocation is None:
            return None
        return (pool.score(groups, allocation, total_machines),
                groups, allocation)

    def build_plan(self, groups: Sequence[Sequence[JobMetrics]],
                   allocation: Sequence[int],
                   total_machines: int) -> SchedulePlan:
        """Assemble and score a plan from explicit groups/allocation.

        Intentionally *not* vectorized: plan scores decide ties between
        prefixes (exact ties are real — saturated utilization is exactly
        1.0), so the fast path and the reference path must share this
        exact floating-point arithmetic.  :meth:`PoolSnapshot.score`
        performs the same arithmetic without assembling the plan.
        """
        estimate_group = self.perf_model.estimate_group
        estimates = [estimate_group(group, m)
                     for group, m in zip(groups, allocation, strict=True)]
        utilization = self.perf_model.cluster_utilization(
            estimates, total_machines=total_machines)
        plans = tuple(GroupPlan(job_ids=e.job_ids, n_machines=m, estimate=e)
                      for e, m in zip(estimates, allocation, strict=True))
        return SchedulePlan(groups=plans, utilization=utilization,
                            score=self.perf_model.score(utilization),
                            total_machines=total_machines)

    # -- L6: the group-count search ---------------------------------------------

    def _pick_group_count(self, pool: PoolSnapshot, n_jobs: int,
                          total_machines: int) -> int:
        """n_G* = argmin_nG Σ_j |T_cpu_j(n_G) − T_net_j|  (L6) over the
        pool's first ``n_jobs`` jobs.

        Under the equal-DoP assumption ``m_g = M / n_G``, so
        ``T_cpu_j(n_G) = W_j · n_G / M``.

        Before the search, a certificate may settle an end of the
        window ``[n_min, n_max]`` with two cost evaluations (DESIGN.md
        §5).  The exact cost is convex, and every float ``cost(g)``
        with ``g ≤ n_max`` is within ``B/2`` of it, where ``B =
        1.01·2⁻⁵²·(n+2)·(Σ|W_j|·n_max/M + Σ|T_net_j|)`` whatever order
        NumPy sums in.  So ``cost(n_max−1) − cost(n_max) > 2B`` proves
        the float costs strictly decrease across the window, and the
        search would return ``n_max``; symmetrically for ``n_min``.
        Which end to test comes from ``M·ΣT/ΣW``, the W-weighted mean
        of the terms' kinks: a wrong guess costs two evaluations, never
        a different answer.
        """
        min_groups = max(
            1, -(-n_jobs // self.config.max_jobs_per_group))
        max_groups = min(n_jobs, total_machines)
        if min_groups > max_groups:
            min_groups = max_groups

        cpu_work = pool.cpu_array[:n_jobs]
        t_net = pool.net_array[:n_jobs]
        # The search's final scan revisits its last probes; each n_G is
        # reduced once.
        costs: dict[int, float] = {}

        def cost(n_g: int) -> float:
            value = costs.get(n_g)
            if value is None:
                value = costs[n_g] = float(
                    np.abs(cpu_work * (n_g / total_machines) - t_net).sum())
            return value

        if min_groups < max_groups:
            work = pool.work_sums[n_jobs - 1]
            net = pool.net_sums[n_jobs - 1]
            # 2B: the end step must beat twice the error bound B.
            margin = 2.0 * _CERTIFICATE_ULP * (n_jobs + 2) * (
                work * max_groups / total_machines + net)
            # M·ΣT against n_G·ΣW: the mean kink's side, with no 0/0.
            kinks = total_machines * net
            if kinks >= max_groups * work:
                if cost(max_groups - 1) - cost(max_groups) > margin:
                    pool.certified += 1
                    return max_groups
            elif kinks <= min_groups * work:
                if cost(min_groups + 1) - cost(min_groups) > margin:
                    pool.certified += 1
                    return min_groups

        # cost(n_g) = Σ|W_j · n_g / M − T_net_j| is convex in n_g, so a
        # ternary search finds the minimum in O(log M) evaluations —
        # needed for the §V-F scale (thousands of jobs and machines).
        # Flat bottom segments are common (the absolute values cancel
        # over whole intervals), hence the plateau-safe variant.
        return argmin_convex(cost, min_groups, max_groups)


def _prefix_fingerprints(ordered: Sequence[JobMetrics]) -> list:
    """Chain hash over (job_id, cpu_work, t_net) per prefix.

    ``fingerprints[k-1]`` summarizes the first ``k`` jobs in admission
    order, so all prefix keys of a call cost one O(n) sweep.  The cache
    compares the stored metrics tuple on every hit, so a hash collision
    costs a recompute, never a wrong plan.
    """
    fingerprints = []
    value = 0
    for job in ordered:
        value = hash((value, job.job_id, job.cpu_work, job.t_net))
        fingerprints.append(value)
    return fingerprints
