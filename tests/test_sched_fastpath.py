"""Differential tests pinning the incremental scheduler to the frozen
reference implementation (``tests/sched_oracle.py``), plus regressions
for the plan cache, the closed-form allocator, and the
§IV-B4 plan patch."""

import math
from array import array
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.baselines.oracle import OracleScheduler
from repro.check.scenarios import ScenarioGenerator
from repro.cluster.cluster import Cluster
from repro.config import SchedulerConfig, ShardConfig, SimConfig
from repro.core import allocation as allocation_module
from repro.core import scheduler as scheduler_module
from repro.core.grouping import _best_swap, _fill_groups, grouping_order
from repro.core.master import HarmonyMaster
from repro.core.perfmodel import PerfModel
from repro.core.profiler import JobMetrics, Profiler
from repro.core.regroup import splice_plan
from repro.core.scheduler import (
    HarmonyScheduler,
    PlanCache,
    PoolSnapshot,
    ScheduleStats,
    _CACHE_MISS,
    argmin_convex,
)
from repro.errors import SchedulingError
from repro.experiments import sched_churn
from repro.experiments.fig13_model_accuracy import make_error_injector
from repro.metrics.utilization import ClusterUsageRecorder
from repro.policies.base import GroupStart
from repro.shard.scheduler import ShardedScheduler
from repro.trace.tracer import Tracer
from repro.sim import RandomStreams, Simulator
from repro.workloads.costmodel import CostModel
from tests.sched_oracle import (
    ReferenceScheduler,
    allocate_metrics,
    assign_metrics,
    reference_allocate_machines,
    reference_assign_jobs,
)

ORDERS = ("critical", "sjf", "ljf", "interleave")


def make_jobs(values):
    return [JobMetrics(job_id=f"j{i}", cpu_work=float(w), t_net=float(n),
                       m_observed=16)
            for i, (w, n) in enumerate(values)]


def partitions(plan):
    return tuple(group.job_ids for group in plan.groups)


def scan_fill(order, t_cpu, t_net, n_groups):
    """``grouping._fill_groups`` before one-job groups had their own
    step: every pick scans the first four unplaced jobs."""
    n = len(order)
    base, extra = divmod(n, n_groups)
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
            while len(window) < 4 and position < n:
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


job_values = st.lists(
    st.tuples(st.floats(0.01, 80.0), st.floats(0.001, 6.0)),
    min_size=1, max_size=40)


class TestSchedulerDifferential:
    @settings(max_examples=60, deadline=None)
    @given(values=job_values, machines=st.integers(1, 400),
           order=st.sampled_from(ORDERS))
    def test_plans_bitwise_equal_to_reference(self, values, machines,
                                              order):
        """Same partitions, same allocations, same scores — bit for
        bit — whatever the pool and admission order."""
        jobs = make_jobs(values)
        config = SchedulerConfig(admission_order=order)
        fast_plan = HarmonyScheduler(config=config).schedule(jobs,
                                                             machines)
        ref_plan = ReferenceScheduler(config=config).schedule(jobs,
                                                              machines)
        assert fast_plan == ref_plan
        if fast_plan is not None:
            assert partitions(fast_plan) == partitions(ref_plan)
            assert fast_plan.score == ref_plan.score

    @settings(max_examples=40, deadline=None)
    @given(values=job_values, machines=st.integers(1, 400),
           level=st.sampled_from([0.1, 0.3, 0.9]),
           injector_seed=st.integers(0, 20), order=st.sampled_from(ORDERS))
    def test_plans_bitwise_equal_under_error_injector(
            self, values, machines, level, injector_seed, order):
        """Injected prediction errors reach the flat scorer as per-job
        factor lists; the reference applies them per estimate."""
        jobs = make_jobs(values)
        config = SchedulerConfig(admission_order=order)
        perf_model = PerfModel(error_injector=make_error_injector(
            level, seed=injector_seed))
        fast = HarmonyScheduler(perf_model=perf_model,
                                config=config).schedule(jobs, machines)
        ref = ReferenceScheduler(perf_model=perf_model,
                                 config=config).schedule(jobs, machines)
        assert fast == ref
        if fast is not None:
            assert fast.score == ref.score

    @settings(max_examples=40, deadline=None)
    @given(values=job_values, machines=st.integers(1, 120),
           weights=st.lists(st.integers(0, 4), min_size=40, max_size=40))
    def test_plans_bitwise_equal_under_group_dependent_floor(
            self, values, machines, weights):
        """Floors that depend on which jobs share a group (not only on
        how many) reach the allocator through ``PoolSnapshot.floors``."""
        jobs = make_jobs(values)

        def floor(job_ids):
            load = sum(weights[int(job_id[1:])] for job_id in job_ids)
            return 1 + len(job_ids) // 3 + load % 4

        fast = HarmonyScheduler(memory_floor=floor).schedule(jobs, machines)
        ref = ReferenceScheduler(memory_floor=floor).schedule(jobs,
                                                              machines)
        assert fast == ref
        if fast is not None:
            assert fast.score == ref.score

    @settings(max_examples=30, deadline=None)
    @given(values=job_values, machines=st.integers(2, 300))
    def test_repeat_call_serves_identical_plan_from_cache(self, values,
                                                          machines):
        jobs = make_jobs(values)
        scheduler = HarmonyScheduler()
        first = scheduler.schedule(jobs, machines)
        second = scheduler.schedule(jobs, machines)
        assert first == second
        stats = scheduler.last_stats
        assert stats.cache_misses == 0
        assert stats.cache_hits == stats.n_prefixes_evaluated
        assert stats.fast_path

    @settings(max_examples=30, deadline=None)
    @given(values=job_values, machines=st.integers(1, 300),
           fits=st.booleans())
    def test_one_call_builds_at_most_one_plan(self, values, machines,
                                              fits):
        """Prefixes are only scored; the winner is the one plan a call
        assembles, and a call that places nothing assembles none."""
        jobs = make_jobs(values)
        scheduler = HarmonyScheduler(
            memory_floor=None if fits else lambda ids: machines + 1)
        built = []

        def spy(*args):
            plan = HarmonyScheduler.build_plan(scheduler, *args)
            built.append(plan)
            return plan

        scheduler.build_plan = spy
        first = scheduler.schedule(jobs, machines)
        assert built == ([first] if first is not None else [])
        assert (first is not None) is fits
        second = scheduler.schedule(jobs, machines)
        assert scheduler.last_stats.cache_misses == 0
        assert len(built) == (2 if fits else 0)
        if fits:
            assert second.describe() == first.describe()
            assert second.score == first.score

    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_scenario_generator_pools_match_reference(self, seed):
        """Pools drawn the way the check harness draws them (real Table
        I jobs through the cost model) schedule identically."""
        scenario = ScenarioGenerator(seed).generate()
        cost_model = CostModel(scenario.config.machine)
        jobs = []
        for spec in scenario.specs:
            profile = cost_model.profile(spec, 16)
            jobs.append(JobMetrics(job_id=spec.job_id,
                                   cpu_work=profile.t_comp * 16,
                                   t_net=profile.t_comm, m_observed=16))
        config = scenario.config.scheduler
        fast = HarmonyScheduler(config=config).schedule(
            jobs, scenario.n_machines)
        ref = ReferenceScheduler(config=config).schedule(
            jobs, scenario.n_machines)
        assert fast == ref

    def test_churn_stream_matches_reference(self):
        """The one differential that carries scheduler state across
        calls: a seeded stream of arrivals, completions, profile
        updates and checks, replayed with the plan cache, profiler
        invalidation and §IV-B4 patches against the reference
        rescheduling every event from scratch.  Both replays see the
        same pool at every event, so their score streams align."""
        profiles = sched_churn._base_profiles(60, 2021)
        events = sched_churn.generate_stream(profiles, 30, 60, seed=2022)
        threshold = SchedulerConfig().regroup_benefit_threshold
        fast = sched_churn.replay(
            HarmonyScheduler(), profiles, events, 30, 200, "fast",
            use_patch=True, regroup_threshold=threshold)
        reference = sched_churn.replay(
            ReferenceScheduler(), profiles, events, 30, 200, "reference",
            use_patch=False, regroup_threshold=threshold)

        assert fast.cache_hits > 0
        assert fast.n_patched > 0
        assert len(fast.scores) == len(reference.scores)
        for (kind, score), (_, ref_score) in zip(fast.scores,
                                                 reference.scores,
                                                 strict=True):
            if kind == "patched":
                # The splice keeps the previous grouping by design; it
                # must stay close to the reschedule the reference ran.
                assert score >= ref_score * 0.90
            else:
                assert score == ref_score

    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(st.tuples(st.floats(0.01, 80.0),
                                     st.floats(0.001, 6.0)),
                           min_size=2, max_size=30),
           n_groups=st.integers(1, 6), m_ref=st.integers(1, 64))
    def test_grouping_matches_reference(self, values, n_groups, m_ref):
        jobs = make_jobs(values)
        n_groups = min(n_groups, len(jobs))
        fast = assign_metrics(jobs, n_groups, m_ref=m_ref)
        ref = reference_assign_jobs(jobs, n_groups, m_ref=m_ref)
        assert [[j.job_id for j in g] for g in fast] \
            == [[j.job_id for j in g] for g in ref]

    @settings(max_examples=80, deadline=None)
    @given(values=st.lists(st.tuples(st.sampled_from([1.0, 2.0, 4.0, 8.0]),
                                     st.sampled_from([0.5, 1.0, 2.0, 4.0])),
                           min_size=2, max_size=30),
           n_groups=st.integers(2, 6), m_ref=st.sampled_from([1, 2, 4]))
    # Groups 1 and 2 tie on |imbalance| after the fill.
    @example(values=[(1.0, 4.0), (8.0, 0.5), (1.0, 2.0), (8.0, 0.5)],
             n_groups=3, m_ref=1)
    def test_grouping_matches_reference_on_tied_pools(self, values,
                                                      n_groups, m_ref):
        """Repeated jobs make exactly tied group imbalances, so the swap
        loop's picks must break ties toward the lowest group index, as
        the reference's stable sort and ``min`` do."""
        jobs = make_jobs(values)
        n_groups = min(n_groups, len(jobs))
        fast = assign_metrics(jobs, n_groups, m_ref=m_ref)
        ref = reference_assign_jobs(jobs, n_groups, m_ref=m_ref)
        assert [[j.job_id for j in g] for g in fast] \
            == [[j.job_id for j in g] for g in ref]

    @settings(max_examples=120, deadline=None)
    @given(values=st.lists(st.tuples(st.sampled_from([1.0, 2.0, 4.0, 8.0]),
                                     st.sampled_from([0.5, 1.0, 2.0, 4.0])),
                           min_size=2, max_size=30),
           fewer=st.integers(0, 15), m_ref=st.sampled_from([1, 2, 4]))
    # Both jobs cost 0; the second sorts first and must be picked first.
    @example(values=[(1.0, 1.0), (4.0, 4.0)], fewer=0, m_ref=1)
    def test_grouping_matches_reference_with_one_job_groups(
            self, values, fewer, m_ref):
        """``n_groups`` in ``(n/2, n]``: two-job groups first, then
        one-job groups, whose fill is a heap.  Repeated values make
        ``|t_cpu − t_net|`` tie between window slots, which the scan
        breaks toward the earliest slot, not the lowest job index."""
        jobs = make_jobs(values)
        n_groups = len(jobs) - min(fewer, (len(jobs) - 1) // 2)
        fast = assign_metrics(jobs, n_groups, m_ref=m_ref)
        ref = reference_assign_jobs(jobs, n_groups, m_ref=m_ref)
        assert [[j.job_id for j in g] for g in fast] \
            == [[j.job_id for j in g] for g in ref]


class TestFlatKernels:
    """Bitwise pins for the flat prefix body's own kernels."""

    @settings(max_examples=40, deadline=None)
    @given(values=job_values, machines=st.integers(1, 300),
           level=st.sampled_from([None, 0.1, 0.5]),
           injector_seed=st.integers(0, 20))
    def test_prefix_score_equals_build_plan_score(self, values, machines,
                                                  level, injector_seed):
        perf_model = PerfModel() if level is None else PerfModel(
            error_injector=make_error_injector(level, seed=injector_seed))
        scheduler = HarmonyScheduler(perf_model=perf_model)
        jobs = make_jobs(values)
        pool = PoolSnapshot(scheduler._admission_order(jobs), perf_model)
        for n_jobs in range(1, len(jobs) + 1):
            candidate = scheduler._plan_for(pool, n_jobs, machines)
            if candidate is None:
                continue
            score, groups, allocation = candidate
            plan = scheduler.build_plan(pool.groups_of(groups), allocation,
                                        machines)
            assert score == plan.score

    @settings(max_examples=80, deadline=None)
    @given(keys=st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0, 7.25]),
                                   st.floats(0.0, 100.0)),
                         max_size=60))
    def test_grouping_order_equals_stable_argsort(self, keys):
        """The order is NumPy's stable argsort of the negated keys —
        ties (drawn often here) included."""
        expected = np.argsort(-np.array(keys, dtype=np.float64),
                              kind="stable").tolist()
        assert grouping_order(keys) == expected


class TestAllocatorDifferential:
    @staticmethod
    def count_heap(patch, calls: list):
        """Count the calls that reach the heap allocator."""
        original = allocation_module._allocate_by_heap

        def counted(*args):
            calls.append(1)
            return original(*args)

        patch.setattr(allocation_module, "_allocate_by_heap", counted)

    @classmethod
    def heap_only(cls, patch, calls: list):
        """Send every demand-limited allocation to the heap (engaged in
        production up to ``_HEAP_CANDIDATES`` and above
        ``_MAX_CANDIDATES`` grants), counting its calls."""
        patch.setattr(allocation_module, "_MAX_CANDIDATES", 0)
        cls.count_heap(patch, calls)

    @classmethod
    def vectorized_only(cls, patch, calls: list):
        """Send every demand-limited allocation to the NumPy top-``spare``
        selection; ``calls`` counts any that still reach the heap."""
        patch.setattr(allocation_module, "_HEAP_CANDIDATES", 0)
        cls.count_heap(patch, calls)

    @settings(max_examples=80, deadline=None)
    @given(sizes=st.lists(st.integers(1, 5), min_size=1, max_size=20),
           data=st.data(), headroom=st.integers(0, 300),
           with_floor=st.booleans(), vectorized=st.booleans())
    def test_allocation_matches_reference(self, sizes, data, headroom,
                                          with_floor, vectorized):
        """The production route, or the NumPy selection on every size."""
        groups = []
        for g, size in enumerate(sizes):
            groups.append([
                JobMetrics(
                    job_id=f"g{g}j{j}",
                    cpu_work=data.draw(st.floats(0.0, 50.0)),
                    t_net=data.draw(st.floats(0.0, 5.0)),
                    m_observed=16)
                for j in range(size)])
        floor = (lambda ids: 1 + len(ids)) if with_floor else None
        machines = sum(len(g) + 1 for g in groups) + headroom
        calls: list = []
        with pytest.MonkeyPatch.context() as patch:
            if vectorized:
                self.vectorized_only(patch, calls)
            fast = allocate_metrics(groups, machines, memory_floor=floor)
        assert fast == reference_allocate_machines(groups, machines,
                                                   memory_floor=floor)
        assert not calls

    def test_duplicate_pressure_ties_break_by_group_index(self):
        """Identical groups force exact priority ties at every grant;
        the closed form must hand leftovers to lower indexes first,
        like the reference heap's tuple ordering, on the production
        route and with every call on NumPy."""
        job = JobMetrics(job_id="t", cpu_work=30.0, t_net=1.0,
                         m_observed=16)
        groups = [[job]] * 5
        calls: list = []
        for vectorized in (False, True):
            with pytest.MonkeyPatch.context() as patch:
                if vectorized:
                    self.vectorized_only(patch, calls)
                for machines in range(5, 40):
                    assert allocate_metrics(groups, machines) \
                        == reference_allocate_machines(groups, machines)
        assert not calls

    @staticmethod
    def demand_groups(demands):
        """One single-job group per entry, floor 1, whose grants have
        positive priority up to exactly ``demand`` machines:
        ``(d + 0.5) / a > 1.0`` iff ``a <= d``."""
        return [[JobMetrics(job_id=f"d{index}", cpu_work=demand + 0.5,
                            t_net=1.0, m_observed=16)]
                for index, demand in enumerate(demands)]

    @pytest.mark.parametrize("demands, spare, candidates", [
        ((100, 28), 100, 128),
        ((100, 29), 100, 129),
        # Demand above ``spare`` counts as ``spare`` candidates.
        ((500, 28), 100, 128),
        ((500, 29), 100, 129),
        ((20, 20, 20, 20, 20, 20, 8), 120, 128),
        ((20, 20, 20, 20, 20, 20, 9), 120, 129),
    ])
    def test_route_boundary(self, demands, spare, candidates):
        """The heap serves up to ``_HEAP_CANDIDATES`` candidate grants
        and NumPy the next one; both equal the reference loop."""
        assert allocation_module._HEAP_CANDIDATES == 128
        assert sum(min(d, spare) for d in demands) == candidates
        assert sum(demands) > spare  # demand-limited
        groups = self.demand_groups(demands)
        machines = len(groups) + spare
        calls: list = []
        with pytest.MonkeyPatch.context() as patch:
            self.count_heap(patch, calls)
            fast = allocate_metrics(groups, machines)
        assert fast == reference_allocate_machines(groups, machines)
        assert len(calls) == (candidates <= 128)

    @settings(max_examples=80, deadline=None)
    @given(sizes=st.lists(st.integers(1, 5), min_size=1, max_size=20),
           data=st.data(), headroom=st.integers(0, 300),
           with_floor=st.booleans())
    def test_heap_fallback_matches_reference(self, sizes, data, headroom,
                                             with_floor):
        groups = [[JobMetrics(job_id=f"g{g}j{j}",
                              cpu_work=data.draw(st.floats(0.0, 50.0)),
                              t_net=data.draw(st.floats(0.0, 5.0)),
                              m_observed=16)
                   for j in range(size)]
                  for g, size in enumerate(sizes)]
        floor = (lambda ids: 1 + len(ids)) if with_floor else None
        machines = sum(len(g) + 1 for g in groups) + headroom
        with pytest.MonkeyPatch.context() as patch:
            self.heap_only(patch, [])
            fast = allocate_metrics(groups, machines, memory_floor=floor)
        assert fast == reference_allocate_machines(groups, machines,
                                                   memory_floor=floor)

    def test_heap_fallback_breaks_ties_by_group_index(self):
        """Exact priority ties at every grant, with and without floors,
        through the heap fallback."""
        job = JobMetrics(job_id="t", cpu_work=30.0, t_net=1.0,
                         m_observed=16)
        groups = [[job]] * 5
        calls: list = []
        with pytest.MonkeyPatch.context() as patch:
            self.heap_only(patch, calls)
            for floor in (None, lambda ids: 1 + len(ids)):
                for machines in range(10, 60):
                    assert allocate_metrics(groups, machines,
                                            memory_floor=floor) \
                        == reference_allocate_machines(
                            groups, machines, memory_floor=floor)
        assert calls


class TestPlanCache:
    def pool(self):
        rng = np.random.default_rng(5)
        return [JobMetrics(job_id=f"j{i}",
                           cpu_work=float(rng.uniform(1, 40)),
                           t_net=float(rng.uniform(0.1, 3)),
                           m_observed=16) for i in range(24)]

    def test_profiler_update_invalidates_affected_plans(self):
        """After a metrics publish, the next schedule must not serve a
        stale plan: it must equal a cold scheduler's plan on the new
        pool."""
        profiler = Profiler()
        for job in self.pool():
            profiler.record_iteration(job.job_id,
                                      job.cpu_work / 16, job.t_net, 16)
        scheduler = HarmonyScheduler()
        profiler.add_listener(scheduler.plan_cache.invalidate_job)

        ids = [f"j{i}" for i in range(24)]
        snapshot = [profiler.get(job_id) for job_id in ids]
        scheduler.schedule(snapshot, 60)

        profiler.record_iteration("j3", 90.0, 0.01, 16)  # drastic shift
        updated = [profiler.get(job_id) for job_id in ids]
        warm_plan = scheduler.schedule(updated, 60)
        cold_plan = HarmonyScheduler().schedule(updated, 60)
        assert warm_plan == cold_plan
        assert scheduler.last_stats.cache_misses > 0

    def test_republished_job_is_never_served_a_stale_plan(
            self, monkeypatch):
        """Nothing is invalidated on publish: the check on read alone
        keeps a republished job's stale entries from being served,
        through a scheduler and through a sharded cell.  Fingerprints
        are cut down to the prefix length, so every stale entry sits
        under the very key its republished prefix looks up."""
        monkeypatch.setattr(scheduler_module, "_prefix_fingerprints",
                            lambda ordered: list(range(len(ordered))))
        pool = self.pool()
        republished = list(pool)
        moved = republished[3] = replace(pool[3], cpu_work=90.0 * 16,
                                         t_net=0.01, samples=2)

        scheduler = HarmonyScheduler()
        scheduler.schedule(pool, 60)
        assert len(scheduler.plan_cache) > 0
        warm = scheduler.schedule(republished, 60)
        assert warm == HarmonyScheduler().schedule(republished, 60)
        assert scheduler.last_stats.cache_misses > 0

        sharded = ShardedScheduler(shard=ShardConfig(n_cells=4))
        sharded.schedule(pool, 60)
        sharded.schedule(republished, 60)
        home = sharded._cells[sharded._placer.cell_of(moved.job_id)]
        assert any(job is moved for job in home.last_jobs)
        for cell in sharded._cells:
            if cell.last_jobs is not None:
                assert cell.last_plan == HarmonyScheduler().schedule(
                    cell.last_jobs, cell.n_machines)

    def test_invalidate_job_drops_only_plans_containing_it(self):
        """Once ``a`` is republished no entry holding it is served,
        while an entry holding only ``b`` still hits.  The drop is the
        check on read: ``invalidate_job`` itself keeps no index."""
        cache = PlanCache(max_entries=8)
        a = JobMetrics(job_id="a", cpu_work=1.0, t_net=1.0, m_observed=4)
        b = JobMetrics(job_id="b", cpu_work=2.0, t_net=1.0, m_observed=4)
        cache.put(("k1", 1, 10), (a,), 1, None)
        cache.put(("k2", 2, 10), (a, b), 2, None)
        cache.put(("k3", 1, 10), (b,), 1, None)
        republished = replace(a, cpu_work=3.0, samples=2)
        cache.invalidate_job("a")
        assert cache.get(("k1", 1, 10), (republished,), 1) \
            is _CACHE_MISS
        assert cache.get(("k2", 2, 10), (republished, b), 2) \
            is _CACHE_MISS
        assert cache.get(("k3", 1, 10), (b,), 1) is None  # survived

    def test_metrics_mismatch_is_a_miss_not_a_wrong_plan(self):
        """A fingerprint collision (same key, different jobs) must fall
        through to a recompute."""
        cache = PlanCache(max_entries=8)
        a = JobMetrics(job_id="a", cpu_work=1.0, t_net=1.0, m_observed=4)
        a2 = JobMetrics(job_id="a", cpu_work=9.0, t_net=1.0,
                        m_observed=4)
        cache.put(("k", 1, 10), (a,), 1, None)
        assert cache.get(("k", 1, 10), (a2,), 1) is _CACHE_MISS

    def test_lru_eviction_bounds_entries(self):
        cache = PlanCache(max_entries=2)
        jobs = [JobMetrics(job_id=f"x{i}", cpu_work=1.0, t_net=1.0,
                           m_observed=4) for i in range(3)]
        for i, job in enumerate(jobs):
            cache.put((f"k{i}", 1, 10), (job,), 1, None)
        assert cache.get(("k0", 1, 10), (jobs[0],), 1) is _CACHE_MISS
        assert cache.get(("k2", 1, 10), (jobs[2],), 1) is None

    @pytest.mark.parametrize("max_entries", [0, -1])
    def test_a_cache_without_room_is_rejected(self, max_entries):
        with pytest.raises(SchedulingError, match=">= 1 entry"):
            PlanCache(max_entries=max_entries)

    # -- entry format: the call's one metrics tuple, packed candidates --

    KEY = ("k", 3, 10)

    @staticmethod
    def snapshot(n, prefix="s"):
        return tuple(JobMetrics(job_id=f"{prefix}{i}", cpu_work=float(i + 1),
                                t_net=0.5, m_observed=4) for i in range(n))

    def stored_entry(self):
        """A cache holding one packed candidate for the first 3 jobs of
        a 5-job tuple."""
        cache = PlanCache(max_entries=8)
        stored = self.snapshot(5)
        packed = PlanCache.pack((0.5, [[0, 2], [1]], [4, 6]))
        cache.put(self.KEY, stored, 3, packed)
        return cache, stored, packed

    def test_entry_hits_a_longer_snapshot_with_an_equal_prefix(self):
        """A later, longer tuple whose first ``n`` jobs compare equal is
        served, also when those jobs are distinct but value-equal
        objects."""
        cache, stored, packed = self.stored_entry()
        offered = tuple(replace(job) for job in stored[:3]) \
            + self.snapshot(4, "t")
        assert all(a is not b for a, b in zip(stored, offered[:3]))
        assert cache.get(self.KEY, offered, 3) is packed
        assert cache.get(self.KEY, stored, 3) is packed

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_entry_misses_when_a_prefix_job_differs(self, position):
        cache, stored, packed = self.stored_entry()
        offered = list(stored)
        offered[position] = replace(stored[position], t_net=0.75)
        assert cache.get(self.KEY, tuple(offered), 3) is _CACHE_MISS
        # Fewer than n jobs offered, or a different n, never hits.
        assert cache.get(self.KEY, stored[:2], 3) is _CACHE_MISS
        assert cache.get(self.KEY, stored, 4) is _CACHE_MISS
        assert cache.get(self.KEY, stored, 3) is packed

    def test_jobs_beyond_the_prefix_do_not_matter(self):
        cache, stored, packed = self.stored_entry()
        offered = stored[:3] + tuple(replace(job, cpu_work=99.0)
                                     for job in stored[3:])
        assert cache.get(self.KEY, offered, 3) is packed
        assert cache.get(self.KEY, stored[:3], 3) is packed

    @pytest.mark.parametrize("groups, allocation", [
        ([[0]], [7]),
        ([[0, 3, 5], [1], [2, 4]], [10, 3, 2 ** 40]),
        ([[4, 1], [0, 2, 3]], [1, 1]),
        ([[2], [0], [1], [3]], [5, 5, 5, 5]),
    ])
    def test_pack_round_trips(self, groups, allocation):
        packed = PlanCache.pack((0.25, groups, allocation))
        _, flat, sizes, machines = packed
        assert (flat.typecode, sizes.typecode, machines.typecode) == \
            ("i", "i", "q")
        assert PlanCache.unpack(packed) == (0.25, groups, allocation)

    def test_a_calls_entries_share_one_tuple_and_hold_no_list(self):
        scheduler = HarmonyScheduler()
        pool = self.pool()
        scheduler.schedule(pool[:12], 60)
        before = dict(scheduler.plan_cache._entries)
        scheduler.schedule(pool, 60)
        new = [entry for key, entry in scheduler.plan_cache._entries.items()
               if before.get(key) is not entry]
        assert len(new) > 1
        shared = new[0][0]
        assert type(shared) is tuple
        assert sorted(shared, key=lambda job: job.job_id) == \
            sorted(pool, key=lambda job: job.job_id)
        assert any(packed is not None for _, _, packed in new)
        for jobs, n, packed in new:
            assert jobs is shared
            assert 1 <= n <= len(shared)
            if packed is None:
                continue
            score, *buffers = packed
            assert type(score) is float
            assert [type(buffer) for buffer in buffers] == [array] * 3

    @pytest.mark.parametrize("stream_seed", [2022, 12022])
    def test_warm_plans_equal_cold_plans_on_the_churn_streams(
            self, stream_seed, monkeypatch):
        """On the churn workload's two stream seeds, a scheduler whose
        cache carries over returns a cold scheduler's plan on every
        call, and some calls' winners are packed candidates served by
        the cache."""
        served: list = []
        unpacked: list = []
        get, unpack = PlanCache.get, PlanCache.unpack

        def spying_get(cache, key, jobs, n):
            found = get(cache, key, jobs, n)
            if found is not _CACHE_MISS:
                served.append(found)
            return found

        def spying_unpack(packed):
            unpacked.append(packed)
            return unpack(packed)

        monkeypatch.setattr(PlanCache, "get", spying_get)
        monkeypatch.setattr(PlanCache, "unpack", staticmethod(spying_unpack))

        class WarmAgainstCold:
            def __init__(self):
                self.warm = HarmonyScheduler()
                self.calls = 0
                self.winners_from_hits = 0

            @property
            def last_stats(self):
                return self.warm.last_stats

            def schedule(self, jobs, machines):
                served.clear()
                unpacked.clear()
                plan = self.warm.schedule(jobs, machines)
                self.calls += 1
                if plan is not None and \
                        any(unpacked[-1] is hit for hit in served):
                    assert self.warm.last_stats.cache_hits > 0
                    self.winners_from_hits += 1
                assert plan == HarmonyScheduler().schedule(jobs, machines)
                return plan

        profiles = sched_churn._base_profiles(60, 2021)
        events = sched_churn.generate_stream(profiles, 30, 60,
                                             seed=stream_seed)
        checked = WarmAgainstCold()
        result = sched_churn.replay(
            checked, profiles, events, 30, 200, "warm", use_patch=False,
            regroup_threshold=SchedulerConfig().regroup_benefit_threshold)
        assert checked.calls == result.n_schedule_calls > 1
        assert checked.winners_from_hits > 0
        assert result.cache_hits > 0


class TestLastStats:
    """``last_stats`` describes the most recent ``schedule()`` call, the
    empty-pool call included: the perf ledger and the trace layer read
    it after every call, so a stale value would count a call twice."""

    @pytest.mark.parametrize("make", [
        HarmonyScheduler,
        lambda: ShardedScheduler(shard=ShardConfig(n_cells=2)),
        OracleScheduler,
    ], ids=["harmony", "sharded", "oracle"])
    def test_empty_call_resets_last_stats(self, make):
        scheduler = make()
        pool = make_jobs([(float(4 * i + 3), 0.5 + i / 10)
                          for i in range(6)])
        assert scheduler.schedule(pool, 24) is not None
        assert scheduler.last_stats.n_jobs_offered == len(pool)
        assert scheduler.schedule([], 24) is None
        assert scheduler.last_stats == ScheduleStats.of(None, 0, 0)


class TestSplicePlan:
    def make_plan(self):
        """A two-group plan with a singleton first group, built through
        the scheduler's own plan assembly."""
        scheduler = HarmonyScheduler()
        jobs = make_jobs([(30.0, 0.5), (1.0, 2.0), (1.5, 1.8)])
        plan = scheduler.build_plan([[jobs[0]], [jobs[1], jobs[2]]],
                                    [4, 6], total_machines=12)
        lookup = {j.job_id: j for j in jobs}
        return scheduler, jobs, plan, lookup

    def test_identical_replacement_keeps_score_for_singleton_group(self):
        scheduler, jobs, plan, lookup = self.make_plan()
        patched = splice_plan(plan, scheduler.perf_model, 0, "j0",
                              [jobs[0]], lookup.__getitem__)
        assert patched.score == plan.score
        assert patched.total_machines == plan.total_machines

    def test_removal_without_replacement_drops_empty_group(self):
        scheduler, jobs, plan, lookup = self.make_plan()
        patched = splice_plan(plan, scheduler.perf_model, 0, "j0",
                              [], lookup.__getitem__)
        assert len(patched.groups) == len(plan.groups) - 1
        assert patched.score < plan.score  # idle machines cost
        assert list(patched.groups) == [plan.groups[1]]  # untouched

    def test_worse_replacement_lowers_score(self):
        scheduler, jobs, plan, lookup = self.make_plan()
        weak = JobMetrics(job_id="weak", cpu_work=0.01, t_net=0.01,
                          m_observed=16)
        patched = splice_plan(plan, scheduler.perf_model, 0, "j0",
                              [weak], lookup.__getitem__)
        assert patched.score < plan.score


class TestMasterPatchPath:
    def build_master(self, n_machines=24, traced=False):
        sim = Simulator()
        if traced:
            sim.tracer = Tracer(lambda: sim.now)
        config = SimConfig()
        cluster = Cluster(n_machines, config.machine)
        recorder = ClusterUsageRecorder(n_machines)
        master = HarmonyMaster(sim, cluster, CostModel(config.machine),
                               config, RandomStreams(config.seed),
                               recorder)
        return master

    def feed(self, master, job_id, t_cpu, t_net):
        master.profiler.record_iteration(job_id, t_cpu, t_net, 4)

    def test_patch_accepts_similar_and_rejects_weak_replacement(self):
        from repro.workloads.apps import DATASETS, JobSpec, LDA

        master = self.build_master()
        jobs = [JobSpec(f"j{i}", LDA, DATASETS["LDA"][0], iterations=3)
                for i in range(3)]
        for spec in jobs:
            master.submit(spec)
        # Survivors are net-bound; the departed job was the CPU anchor,
        # so replacing it with a trivial job tanks CPU utilization.
        self.feed(master, "j0", 0.2, 1.0)
        self.feed(master, "j1", 0.2, 1.0)
        self.feed(master, "j2", 5.0, 1.0)
        group = next(g for g in master.groups.values()
                     if any(j.job_id == "j0" for j in g.jobs()))
        target = master.profiler.get("j2")

        twin = JobMetrics(job_id="twin", cpu_work=target.cpu_work,
                          t_net=target.t_net,
                          m_observed=target.m_observed)
        assert master._patch_accepts(group, target, [twin],
                                     kind="similar")

        weak = JobMetrics(job_id="weak", cpu_work=1e-6, t_net=1e-6,
                          m_observed=target.m_observed)
        assert not master._patch_accepts(group, target, [weak],
                                         kind="similar")

    def test_a_traced_patch_records_its_verdict(self):
        from repro.workloads.apps import DATASETS, JobSpec, LDA

        master = self.build_master(traced=True)
        for i in range(2):
            master.submit(JobSpec(f"j{i}", LDA, DATASETS["LDA"][0],
                                  iterations=3))
        self.feed(master, "j0", 0.2, 1.0)
        self.feed(master, "j1", 5.0, 1.0)
        group = next(g for g in master.groups.values()
                     if any(j.job_id == "j0" for j in g.jobs()))
        target = master.profiler.get("j1")
        twin = replace(target, job_id="twin")
        assert master._patch_accepts(group, target, [twin],
                                     kind="similar")
        (instant,) = [event for event in master.sim.tracer.instants
                      if event.name == "plan-patch"]
        assert instant.args["finished"] == "j1"
        assert instant.args["kind"] == "similar"
        assert instant.args["replacements"] == ["twin"]
        assert instant.args["accepted"] is True
        assert instant.args["after"] >= instant.args["before"] * 0.95

    def test_a_bundle_is_admitted_only_as_far_as_memory_allows(self):
        """Each bundle job fits beside the survivor, but not both: the
        first resumes into the group, the second is refused, and the
        repair escalates to Algorithm 1 (which places it elsewhere)."""
        from repro.core.job import JobState
        from repro.workloads.apps import DATASETS, JobSpec, MLR

        master = self.build_master()
        specs = {name: JobSpec(name, MLR, DATASETS["MLR"][1],
                               iterations=3)
                 for name in ("survivor", "done", "p1", "p2")}
        jobs = {name: master._add_job(spec) for name, spec in specs.items()}
        jobs["survivor"].state = JobState.PAUSED
        self.feed(master, "survivor", 1.0, 1.0)
        assert master._apply((GroupStart(("survivor",), 3),), ["survivor"])
        (group,) = master.groups.values()
        assert jobs["survivor"].state is JobState.RUNNING
        self.feed(master, "done", 4.0, 2.0)
        for name in ("p1", "p2"):
            jobs[name].state = JobState.PAUSED
            self.feed(master, name, 2.0, 1.0)
        jobs["done"].state = JobState.RUNNING  # left the group just now
        assert group.can_admit(jobs["p1"]) and group.can_admit(jobs["p2"])

        master.on_job_finished(jobs["done"], group)
        assert jobs["p1"].group_id == group.group_id
        assert jobs["p1"].state is JobState.RUNNING
        assert jobs["p2"].group_id != group.group_id
        assert master.fast_path_replacements == 0
        assert master.full_path_regroups == 1
        # A job that is done, or already placed, never joins.
        assert master._join(jobs["done"], group) is False
        assert master._join(jobs["p1"], group) is False

    def test_profiler_publish_invalidates_scheduler_plan_cache(self):
        """After a publish through the master's profiler, the master's
        scheduler serves no plan cached for the job's old metrics."""
        from repro.workloads.apps import DATASETS, JobSpec, LDA
        master = self.build_master()
        master.submit(JobSpec("j0", LDA, DATASETS["LDA"][0],
                              iterations=3))
        cache = master.scheduler.plan_cache
        self.feed(master, "j0", 2.0, 1.0)
        stale = master.profiler.get("j0")
        cache.put(("k", 1, 24), (stale,), 1, None)
        self.feed(master, "j0", 4.0, 1.0)
        fresh = master.profiler.get("j0")
        assert fresh != stale
        assert cache.get(("k", 1, 24), (fresh,), 1) is _CACHE_MISS


class TestGroupCountCertificate:
    """The L6 end certificate: ``_pick_group_count`` must return what
    the plateau-safe search returns over the full cost, and must keep
    firing."""

    @staticmethod
    def full_search(jobs, machines, max_per_group):
        work = np.array([job.cpu_work for job in jobs], dtype=np.float64)
        net = np.array([job.t_net for job in jobs], dtype=np.float64)
        low = max(1, -(-len(jobs) // max_per_group))
        high = min(len(jobs), machines)
        low = min(low, high)
        return low, high, argmin_convex(
            lambda n_g: float(np.abs(work * (n_g / machines) - net).sum()),
            low, high)

    @staticmethod
    def draw(rng):
        """One pool from one of six shapes, at a magnitude in
        [1e-6, 1e6]: (work, net, machines)."""
        n = int(rng.integers(1, 13))
        machines = int(rng.choice([1, 2, 3, 5, 16, 64, 100, 1000]))
        scale = 10.0 ** rng.uniform(-6.0, 6.0)
        shape = int(rng.integers(6))
        if shape == 0:  # unstructured
            work = rng.uniform(0.0, 1.0, n) * scale
            net = rng.uniform(0.0, 1.0, n) * scale * rng.uniform(0.0, 2.0)
        elif shape in (1, 2):
            # Kinks exactly on integer n_G: T_j = W_j·g_j/M is exact for
            # small-integer W_j and power-of-two M and scales.  Shape 2
            # gives every job the same W and repeats kinks, so the cost
            # has flat bottoms.
            machines = int(rng.choice([16, 32, 64, 128]))
            unit = 2.0 ** int(np.round(np.log2(scale)))
            work = (rng.integers(1, 50, n) if shape == 1
                    else np.full(n, int(rng.integers(1, 50)))) * unit
            kinks = rng.integers(1, machines + 1, n) if shape == 1 \
                else rng.choice(rng.integers(1, machines + 1, 2), n)
            net = work * kinks / machines
        elif shape == 3:  # one shared W/T ratio
            work = rng.uniform(0.0, 1.0, n) * scale
            net = work * rng.choice([0.0, 0.01, 0.5, 1.0, 40.0])
        elif shape == 4:  # zero-work jobs, sometimes all of them
            work = rng.uniform(0.0, 1.0, n) * scale
            work[rng.random(n) < rng.choice([0.5, 1.0])] = 0.0
            net = rng.uniform(0.0, 1.0, n) * scale
        else:  # far past one end or the other
            work = rng.uniform(0.5, 1.0, n) * scale
            net = work * rng.choice([1e-4, 1e4]) * rng.uniform(0.5, 1.5, n)
        return work.tolist(), net.tolist(), machines

    def test_certificate_matches_full_search(self):
        rng = np.random.default_rng(29)
        ends: set[str] = set()
        widths: set[int] = set()
        zero_work = 0
        for _ in range(1500):
            work, net, machines = self.draw(rng)
            per_group = int(rng.choice([1, 2, 5]))
            jobs = make_jobs(zip(work, net))
            scheduler = HarmonyScheduler(
                config=SchedulerConfig(max_jobs_per_group=per_group))
            pool = PoolSnapshot(jobs, scheduler.perf_model)
            for n_jobs in range(1, len(jobs) + 1):
                low, high, expected = self.full_search(
                    jobs[:n_jobs], machines, per_group)
                before = pool.certified
                assert scheduler._pick_group_count(
                    pool, n_jobs, machines) == expected
                widths.add(high - low)
                zero_work += 0.0 in work[:n_jobs]
                if pool.certified > before:
                    ends.add("max" if expected == high else "min")
        assert ends == {"max", "min"}
        assert {0, 1, 2} <= widths
        assert zero_work > 0

    def test_churn_stream_certified_count_is_pinned(self):
        """A committed count on a fixed stream: a change that silently
        disables the certificate (or widens it) fails here."""
        profiles = sched_churn._base_profiles(60, 2021)
        events = sched_churn.generate_stream(profiles, 30, 60, seed=2022)
        result = sched_churn.replay(
            HarmonyScheduler(), profiles, events, 30, 200, "fast",
            use_patch=True,
            regroup_threshold=SchedulerConfig().regroup_benefit_threshold)
        assert (result.groups_certified, result.cache_misses) \
            == CERTIFIED_ON_CHURN_STREAM


#: (prefixes certified, prefixes planned) on the 60-job churn stream
#: above.
CERTIFIED_ON_CHURN_STREAM = (108, 563)


class TestOneJobGroups:
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(
        st.tuples(st.one_of(st.floats(-1e300, 1e300), st.just(0.0),
                            st.just(-0.0), st.just(2.5)),
                  st.one_of(st.floats(-1e300, 1e300), st.just(0.0),
                            st.just(2.5))),
        min_size=2, max_size=12), data=st.data())
    def test_no_swap_between_one_job_groups(self, values, data):
        """The greedy fill leaves a one-job group's imbalance equal to
        its job's delta, so a swap of two such groups scores the current
        cost exactly and never passes the strict improvement test —
        ties, negative deltas and overflowing differences included."""
        t_cpu = [cpu for cpu, _ in values]
        t_net = [net for _, net in values]
        order = data.draw(st.permutations(range(len(values))))
        groups, imbalances = _fill_groups(order, t_cpu, t_net, len(values))
        assert all(len(group) == 1 for group in groups)
        before = [list(group) for group in groups]
        for a in range(len(groups)):
            for b in range(len(groups)):
                if a != b:
                    assert not _best_swap(groups[a], groups[b],
                                          imbalances[a], imbalances[b],
                                          t_cpu, t_net)
        assert groups == before

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(
        st.tuples(st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.5]),
                            st.floats(-1e300, 1e300),
                            st.just(math.inf), st.just(math.nan)),
                  st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.5]),
                            st.floats(-1e300, 1e300),
                            st.just(math.inf))),
        min_size=1, max_size=24), data=st.data())
    def test_fill_equals_window_scan(self, values, data):
        """The heap that fills one-job groups picks what the scan picks
        and leaves bit-identical imbalances, zero signs included; a NaN
        cost sends the fill back to the scan."""
        t_cpu = [cpu for cpu, _ in values]
        t_net = [net for _, net in values]
        order = data.draw(st.permutations(range(len(values))))
        n = len(values)
        n_groups = data.draw(st.one_of(st.integers(n // 2 + 1, n),
                                       st.integers(1, n)))
        groups, imbalances = _fill_groups(order, t_cpu, t_net, n_groups)
        want_groups, want_imbalances = scan_fill(order, t_cpu, t_net,
                                                 n_groups)
        assert groups == want_groups
        assert [value.hex() for value in imbalances] \
            == [value.hex() for value in want_imbalances]

