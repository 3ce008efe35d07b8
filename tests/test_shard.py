"""Sharded scheduling (repro.shard): differential pins and unit tests.

The correctness story mirrors the repo's established technique
(tests/test_sched_fastpath.py): the 1-cell sharded scheduler is pinned
bitwise-equal to the unsharded ``HarmonyScheduler`` over hypothesis
sweeps, and the placer's routing is pinned stable under varying
``PYTHONHASHSEED`` via subprocess runs (the test_analysis.py pattern).
"""

import json
import os
import random
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import Cluster, split_machine_counts
from repro.config import SchedulerConfig, ShardConfig, SimConfig
from repro.core.master import HarmonyMaster
from repro.core.profiler import JobMetrics, Profiler
from repro.core.regroup import splice_plan
from repro.core.scheduler import HarmonyScheduler, SchedulePlan
from repro.errors import ClusterError, SchedulingError
from repro.experiments.scalability import (
    ScalabilityResult,
    ShardRow,
    ShardScalabilityResult,
)
from repro.metrics.utilization import ClusterUsageRecorder
from repro.shard import (
    Cell,
    GlobalPlacer,
    ShardedScheduler,
    job_weight,
    plan_moves,
)
from repro.sim import RandomStreams, Simulator
from repro.trace.tracer import Tracer
from repro.workloads.costmodel import CostModel
from tests.shard_oracle import ReferencePlacer, reference_migrate

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fold_loads(cells):
    """Per-cell raw loads: ``job_weight`` folded left from 0.0 in
    pool order, the sum ``plan_moves`` expects."""
    loads = []
    for members in cells:
        load = 0.0
        for job in members:
            load += job_weight(job)
        loads.append(load)
    return loads


def make_jobs(values, prefix="j"):
    return [JobMetrics(job_id=f"{prefix}{i}", cpu_work=float(w),
                       t_net=float(n), m_observed=16)
            for i, (w, n) in enumerate(values)]


job_values = st.lists(
    st.tuples(st.floats(0.01, 80.0), st.floats(0.001, 6.0)),
    min_size=1, max_size=40)


# ---------------------------------------------------------------------------
# partitioning


class TestPartition:
    @settings(max_examples=80, deadline=None)
    @given(total=st.integers(1, 5000), n_cells=st.integers(1, 64))
    def test_split_conserves_and_balances(self, total, n_cells):
        if total < n_cells:
            with pytest.raises(ClusterError):
                split_machine_counts(total, n_cells)
            return
        sizes = split_machine_counts(total, n_cells)
        assert len(sizes) == n_cells
        assert sum(sizes) == total
        assert max(sizes) - min(sizes) <= 1
        assert min(sizes) >= 1
        # Larger cells come first, deterministically.
        assert list(sizes) == sorted(sizes, reverse=True)

    def test_remainder_goes_to_the_first_cells(self):
        assert split_machine_counts(23, 4) == (6, 6, 6, 5)

    def test_zero_cells_rejected(self):
        with pytest.raises(ClusterError):
            split_machine_counts(10, 0)

    def test_more_cells_than_machines_rejected(self):
        with pytest.raises(ClusterError, match="4 cells need >= 4"):
            split_machine_counts(3, 4)


# ---------------------------------------------------------------------------
# the differential pins


class TestOneCellPin:
    @settings(max_examples=40, deadline=None)
    @given(values=job_values, machines=st.integers(1, 400),
           order=st.sampled_from(("critical", "sjf", "ljf")))
    def test_one_cell_bitwise_equal_to_unsharded(self, values, machines,
                                                 order):
        """n_cells=1 delegates to a plain HarmonyScheduler — identical
        plans, scores, and stats, bit for bit."""
        jobs = make_jobs(values)
        config = SchedulerConfig(admission_order=order)
        sharded = ShardedScheduler(config=config,
                                   shard=ShardConfig(n_cells=1))
        unsharded = HarmonyScheduler(config=config)
        plan = sharded.schedule(jobs, machines)
        expected = unsharded.schedule(jobs, machines)
        assert plan == expected
        assert sharded.last_stats == unsharded.last_stats

    @settings(max_examples=25, deadline=None)
    @given(values=job_values, machines=st.integers(2, 300))
    def test_one_cell_pin_holds_across_call_sequences(self, values,
                                                      machines):
        """The pin survives the stateful parts (caches, memos) over a
        grow-the-pool call sequence."""
        jobs = make_jobs(values)
        sharded = ShardedScheduler(shard=ShardConfig(n_cells=1))
        unsharded = HarmonyScheduler()
        for end in range(1, len(jobs) + 1):
            pool = jobs[:end]
            assert sharded.schedule(pool, machines) \
                == unsharded.schedule(pool, machines)
            assert sharded.last_stats == unsharded.last_stats

    @settings(max_examples=25, deadline=None)
    @given(values=job_values, n_cells=st.integers(2, 16))
    def test_pool_smaller_than_cells_falls_back_to_unsharded(
            self, values, n_cells):
        """total_machines < n_cells cannot be split — the sharded
        scheduler answers through its solo delegate."""
        jobs = make_jobs(values)
        machines = n_cells - 1
        sharded = ShardedScheduler(shard=ShardConfig(n_cells=n_cells))
        assert sharded.schedule(jobs, machines) \
            == HarmonyScheduler().schedule(jobs, machines)


# ---------------------------------------------------------------------------
# placer


class TestGlobalPlacer:
    def test_routing_is_sticky_across_calls(self):
        jobs = make_jobs([(float(i + 1), 0.1) for i in range(20)])
        placer = GlobalPlacer((10, 10, 10))
        placer.route(jobs)
        homes = {job.job_id: placer.cell_of(job.job_id) for job in jobs}
        # Departures and arrivals don't move survivors.
        survivors = jobs[::2]
        placer.route(survivors + make_jobs([(5.0, 0.2)] * 3, "new"))
        for job in survivors:
            assert placer.cell_of(job.job_id) == homes[job.job_id]

    def test_new_jobs_go_to_least_loaded_cell(self):
        heavy = make_jobs([(50.0, 0.1)], "heavy")
        placer = GlobalPlacer((10, 10))
        placer.route(heavy)
        first_cell = placer.cell_of("heavy0")
        newcomer = make_jobs([(1.0, 0.1)], "light")
        placer.route(heavy + newcomer)
        assert placer.cell_of("light0") == 1 - first_cell

    def test_loads_are_normalized_by_cell_machines(self):
        """Load is work per machine: 8 units on 4 machines outweigh 16
        units on 16, so the newcomer joins the large cell."""
        heavy, bulky = make_jobs([(8.0, 0.0), (16.0, 0.0)])
        placer = GlobalPlacer((4, 16))
        placer.route([heavy])
        assert placer.cell_of(heavy.job_id) == 0
        placer.route([heavy, bulky])
        assert placer.cell_of(bulky.job_id) == 1
        newcomer = make_jobs([(1.0, 0.0)], "new")
        placer.route([heavy, bulky] + newcomer)
        assert placer.cell_of("new0") == 1

    @pytest.mark.parametrize("machines", [(), (4, 0)])
    def test_every_cell_needs_a_machine(self, machines):
        with pytest.raises(ValueError, match=">= 1 machine"):
            GlobalPlacer(machines)

    def test_route_preserves_pool_order_within_cells(self):
        jobs = make_jobs([(float(i % 5 + 1), 0.1) for i in range(30)])
        placer = GlobalPlacer((10, 10, 10))
        routed = placer.route(jobs)
        order = {job.job_id: index for index, job in enumerate(jobs)}
        for members in routed:
            positions = [order[job.job_id] for job in members]
            assert positions == sorted(positions)

    def test_assignment_map_is_pruned_after_heavy_churn(self):
        placer = GlobalPlacer((10, 10))
        for wave in range(30):
            placer.route(make_jobs([(1.0, 0.1)] * 10, f"wave{wave}-"))
        assert len(placer._assignment) <= 2 * 10 + 64

    def test_reassign_validates_cell_index(self):
        placer = GlobalPlacer((10, 10))
        with pytest.raises(ValueError):
            placer.reassign("j0", 2)


# One step of a placer call sequence: (kind, a, b), with a and b read
# per kind by TestRouteDifferential._apply.
_STEP_KINDS = ("arrive", "depart", "republish", "reassign", "reorder",
               "churn", "migrate")
placer_steps = st.lists(
    st.tuples(st.sampled_from(_STEP_KINDS), st.integers(0, 2**16),
              st.integers(0, 2**16)),
    min_size=1, max_size=30)


class TestRouteDifferential:
    """The identity-diffing ``GlobalPlacer`` against the original
    whole-pool router (``tests/shard_oracle.py``), call by call.

    Each call also pins the reuse: a cell holding no stale position
    (one whose object changed, appeared or was dropped since the last
    call, or one in a cell a ``reassign`` marked) comes back as the
    previous call's tuple object."""

    def fresh(self, state, count, b):
        jobs = []
        for _ in range(count):
            state["next"] += 1
            # Few distinct weights, so heap ties are common.
            jobs.append(JobMetrics(
                job_id=f"n{state['next']}",
                cpu_work=float(1 + (b + state["next"]) % 4),
                t_net=0.1 * (state["next"] % 3), m_observed=16))
        return jobs

    def apply(self, kind, a, b, pool, placers, state):
        if kind == "arrive":
            at = a % (len(pool) + 1)
            pool[at:at] = self.fresh(state, 1 + b % 6, b)
        elif kind == "depart" and pool:
            at = a % len(pool)
            del pool[at:at + 1 + b % 6]
        elif kind == "republish" and pool:
            at = a % len(pool)
            job = pool[at]
            # A new object with the same id: equal values half the time.
            pool[at] = replace(job) if b % 2 else replace(
                job, cpu_work=job.cpu_work * 1.5 + b % 3,
                samples=job.samples + 1)
        elif kind == "reassign":
            # Known pool jobs, and now and then the next fresh id, which
            # then arrives already pinned.
            job_id = pool[a % len(pool)].job_id if pool and b % 5 \
                else f"n{state['next'] + 1}"
            home = placers[1].cell_of(job_id)
            if home is not None and home != b % placers[1].n_cells:
                state["marked"].add(home)
            for placer in placers:
                placer.reassign(job_id, b % placer.n_cells)
        elif kind == "reorder":
            random.Random(a).shuffle(pool)
        elif kind == "churn":
            # A burst of 90 short-lived jobs passes through, then most of
            # the pool departs: with at most 15 jobs left, the burst's
            # stale ids exceed the 2 * pool + 64 bound and get pruned.
            pool[:] = self.fresh(state, 90, b)
            self.route_both(pool, placers, state)
            pool[:] = pool[:b % 8] + self.fresh(state, 1 + a % 8, b)

    def route_both(self, pool, placers, state):
        placer, oracle = placers
        routed = placer.route(pool)
        expected = oracle.route(pool)
        self.assert_same(routed, expected, placers, state)
        self.assert_reused(routed, pool, oracle, state)
        return routed, expected

    def assert_reused(self, routed, pool, oracle, state):
        """Cells with no stale position return the previous tuple
        object; then ``routed`` becomes the previous call."""
        column = [oracle.cell_of(job.job_id) for job in pool]
        previous = state.get("previous")
        if previous is not None:
            before, before_column, before_routed = previous
            marked = state["marked"]
            touched = set(marked)
            for index in range(max(len(before), len(pool))):
                if index >= len(pool):
                    touched.add(before_column[index])
                elif index >= len(before):
                    touched.add(column[index])
                elif before[index] is not pool[index] \
                        or before_column[index] in marked:
                    touched.update((before_column[index], column[index]))
            for cell, members in enumerate(routed):
                if cell not in touched:
                    assert members is before_routed[cell], cell
        state["marked"] = set()
        state["previous"] = (list(pool), column, routed)

    def assert_same(self, routed, expected, placers, state):
        placer, oracle = placers
        assert [[id(job) for job in cell] for cell in routed] \
            == [[id(job) for job in cell] for cell in expected]
        for index in range(1, state["next"] + 2):
            assert placer.cell_of(f"n{index}") \
                == oracle.cell_of(f"n{index}")
        assert len(placer._assignment) == len(oracle._assignment)

    @settings(max_examples=150, deadline=None)
    @given(steps=placer_steps,
           machines=st.lists(st.integers(1, 20), min_size=1, max_size=5),
           initial=st.integers(0, 60))
    def test_route_matches_reference(self, steps, machines, initial):
        placers = (GlobalPlacer(machines), ReferencePlacer(machines))
        state = {"next": 0, "marked": set()}
        pool = self.fresh(state, initial, 0)
        for kind, a, b in steps:
            self.apply(kind, a, b, pool, placers, state)
            routed, expected = self.route_both(pool, placers, state)
            if kind == "migrate":
                loads = placers[0].raw_loads()
                # harmony: allow[DET006] the cached loads must be the fold, bit for bit
                assert loads == fold_loads(routed)
                moves = plan_moves(routed, loads, machines, 0.0, 1 + b % 8)
                state["marked"] = {move.source for move in moves}
                migrated = placers[0].migrate(pool, moves)
                self.assert_same(
                    migrated,
                    reference_migrate(placers[1], expected, pool, moves),
                    placers, state)
                self.assert_reused(migrated, pool, placers[1], state)


# ---------------------------------------------------------------------------
# rebalancer


class TestPlanMoves:
    def cellify(self, weights_by_cell):
        return [make_jobs([(w, 0.0) for w in weights], f"c{index}-")
                for index, weights in enumerate(weights_by_cell)]

    def test_balanced_cells_produce_no_moves(self):
        cells = self.cellify([[4.0, 4.0], [4.0, 4.0]])
        assert plan_moves(cells, fold_loads(cells), [10, 10], 0.25, 64) == []

    def test_hot_cell_drains_into_coldest(self):
        cells = self.cellify([[8.0] * 6, [1.0]])
        moves = plan_moves(cells, fold_loads(cells), [10, 10], 0.25, 64)
        assert moves
        assert all(move.source == 0 and move.target == 1
                   for move in moves)
        # Drains back-to-front: the most recent (stickiest-warm) jobs
        # stay, the newest go.
        assert moves[0].job.job_id == "c0-5"

    def test_moves_reduce_spread(self):
        cells = self.cellify([[8.0] * 6, [1.0], [1.0]])
        machines = [10, 10, 10]
        before = [sum(job_weight(job) for job in members) / m
                  for members, m in zip(cells, machines, strict=True)]
        moves = plan_moves(cells, fold_loads(cells), machines, 0.25, 64)
        loads = list(before)
        for move in moves:
            weight = job_weight(move.job)
            loads[move.source] -= weight / machines[move.source]
            loads[move.target] += weight / machines[move.target]
        assert max(loads) - min(loads) < max(before) - min(before)

    def test_move_budget_is_respected(self):
        cells = self.cellify([[8.0] * 20, [0.1]])
        moves = plan_moves(cells, fold_loads(cells), [10, 10], 0.0, 3)
        assert len(moves) == 3

    def test_single_cell_never_moves(self):
        cells = self.cellify([[8.0] * 6])
        assert plan_moves(cells, fold_loads(cells), [10], 0.25, 64) == []


class TestShardedRebalance:
    def test_departure_skew_triggers_migration(self):
        """Empty out every cell but one via departures; the next
        rebalance-due call drains the survivor cell."""
        jobs = make_jobs([(4.0, 0.2)] * 24)
        scheduler = ShardedScheduler(shard=ShardConfig(
            n_cells=4, rebalance_every=1, rebalance_threshold=0.1))
        scheduler.schedule(jobs, 40)
        placer = scheduler._placer
        survivors = [job for job in jobs
                     if placer.cell_of(job.job_id) == 0]
        assert len(survivors) >= 4
        plan = scheduler.schedule(survivors, 40)
        assert plan is not None
        assert scheduler.jobs_rebalanced > 0
        cells_used = {placer.cell_of(job.job_id) for job in survivors}
        assert len(cells_used) > 1

    def test_a_donor_whose_pool_changed_replans(self):
        """The donor cell's memo is of an older pool (one of its jobs
        was republished since): the splice patch is skipped and the
        donor plans this call's jobs from scratch."""
        jobs = make_jobs([(4.0, 0.2)] * 24)
        scheduler = ShardedScheduler(shard=ShardConfig(
            n_cells=4, rebalance_every=1, rebalance_threshold=0.1))
        scheduler.schedule(jobs, 40)
        placer = scheduler._placer
        survivors = [job for job in jobs
                     if placer.cell_of(job.job_id) == 0]
        survivors[0] = replace(survivors[0], cpu_work=5.0)
        plan = scheduler.schedule(survivors, 40)
        assert scheduler.jobs_rebalanced > 0
        assert sorted(job_id for group in plan.groups
                      for job_id in group.job_ids) \
            == sorted(job.job_id for job in survivors)
        donor = scheduler._cells[0]
        assert donor.last_jobs is not None
        assert any(job is survivors[0] for job in donor.last_jobs)

    def test_an_idle_cluster_plans_no_moves(self):
        cell_jobs = [make_jobs([(1.0, 0.1)] * 3), []]
        assert plan_moves(cell_jobs, [0.0, 0.0], [2, 2], 0.0, 4) == []

    def test_equal_loads_never_move_a_job_onto_its_own_cell(self):
        # Both cells carry load 0.2 per machine, but the float mean
        # rounds to 0.19999999999999998, so cell 0 reads hot against a
        # zero threshold while also being the coldest cell.
        cell_jobs = [make_jobs([(1.0, 0.1)] * 2), make_jobs([(1.0, 0.1)],
                                                           prefix="k")]
        assert plan_moves(cell_jobs, [0.2, 1.0], [1, 5], 0.0, 4) == []

    def test_rebalance_zero_disables_the_pass(self):
        jobs = make_jobs([(4.0, 0.2)] * 16)
        scheduler = ShardedScheduler(shard=ShardConfig(
            n_cells=4, rebalance_every=0))
        for _ in range(3):
            scheduler.schedule(jobs, 40)
        assert scheduler.jobs_rebalanced == 0


# ---------------------------------------------------------------------------
# sharded scheduler behaviour


class TestShardedScheduler:
    def test_identical_repeat_call_reschedules_no_cell(self):
        jobs = make_jobs([(float(i + 1), 0.2) for i in range(24)])
        scheduler = ShardedScheduler(shard=ShardConfig(n_cells=4))
        first = scheduler.schedule(jobs, 40)
        second = scheduler.schedule(jobs, 40)
        assert first == second
        stats = scheduler.last_stats
        assert stats.n_prefixes_evaluated == 0
        assert stats.fast_path

    def test_arrival_dirties_exactly_one_cell(self):
        jobs = make_jobs([(float(i + 1), 0.2) for i in range(24)])
        scheduler = ShardedScheduler(shard=ShardConfig(n_cells=4))
        scheduler.schedule(jobs, 40)
        before = [cell.scheduler.last_stats
                  for cell in scheduler._cells]
        newcomer = make_jobs([(3.0, 0.3)], "new")
        scheduler.schedule(jobs + newcomer, 40)
        after = [cell.scheduler.last_stats
                 for cell in scheduler._cells]
        changed = [index for index, (a, b)
                   in enumerate(zip(before, after, strict=True))
                   if a is not b]
        assert changed == [scheduler._placer.cell_of("new0")]

    def test_plan_cache_facade_invalidates_owning_cell(self):
        """A republished job makes its home cell re-plan and leaves
        every other cell's memo objects untouched."""
        jobs = make_jobs([(float(i + 1), 0.2) for i in range(16)])
        scheduler = ShardedScheduler(shard=ShardConfig(n_cells=4))
        scheduler.schedule(jobs, 40)
        target = jobs[5].job_id
        owner = scheduler._placer.cell_of(target)
        memos = [(cell.last_jobs, cell.last_plan)
                 for cell in scheduler._cells]
        republished = list(jobs)
        moved = republished[5] = replace(jobs[5], cpu_work=0.4 * 4,
                                         samples=2)
        scheduler.schedule(republished, 40)
        assert scheduler._placer.cell_of(target) == owner
        for cell, (last, plan) in zip(scheduler._cells, memos, strict=True):
            assert last is not None
            if cell.index == owner:
                assert cell.last_jobs is not last
                assert any(job is moved for job in cell.last_jobs)
                assert cell.last_plan == HarmonyScheduler().schedule(
                    cell.last_jobs, cell.n_machines)
            else:
                assert cell.last_jobs is last and cell.last_plan is plan

    def test_merged_plan_is_consistent(self):
        jobs = make_jobs([(float(i % 7 + 1), 0.1 + (i % 3) / 10)
                          for i in range(30)])
        scheduler = ShardedScheduler(shard=ShardConfig(n_cells=3))
        plan = scheduler.schedule(jobs, 33)
        assert plan is not None
        assert plan.total_machines == 33
        assert plan.machines_used <= 33
        placed = [job_id for group in plan.groups
                  for job_id in group.job_ids]
        assert len(placed) == len(set(placed))
        recomputed = scheduler.perf_model.cluster_utilization(
            [group.estimate for group in plan.groups],
            total_machines=33)
        # harmony: allow[DET006] bitwise-identical re-scoring is the property under test
        assert plan.score == scheduler.perf_model.score(recomputed)

    def test_job_too_large_for_every_cell_is_planned_at_pool_scope(self):
        """A job whose memory floor exceeds every cell is placed once
        no cell places anything (22 machines in cells of 6, 6, 5, 5)."""
        big = make_jobs([(40.0, 0.5)], "big")
        scheduler = ShardedScheduler(
            shard=ShardConfig(n_cells=4),
            memory_floor=lambda job_ids: 9 if "big0" in job_ids else 1)
        plan = scheduler.schedule(big, 22)
        assert [cell.n_machines for cell in scheduler._cells] \
            == [6, 6, 5, 5]
        assert plan is not None
        assert plan.scheduled_job_ids == {"big0"}
        assert plan.machines_used >= 9
        assert scheduler.last_stats is scheduler._solo.last_stats
        assert scheduler.pool_fallbacks == 1

    def test_empty_pool_and_bad_machine_count(self):
        scheduler = ShardedScheduler(shard=ShardConfig(n_cells=4))
        assert scheduler.schedule([], 40) is None
        with pytest.raises(SchedulingError):
            scheduler.schedule(make_jobs([(1.0, 0.1)]), 0)

    def test_machine_pool_resize_rebuilds_cells(self):
        jobs = make_jobs([(float(i + 1), 0.2) for i in range(12)])
        scheduler = ShardedScheduler(shard=ShardConfig(n_cells=3))
        scheduler.schedule(jobs, 30)
        assert [cell.n_machines for cell in scheduler._cells] \
            == [10, 10, 10]
        scheduler.schedule(jobs, 31)
        assert [cell.n_machines for cell in scheduler._cells] \
            == [11, 10, 10]


class TestCallCost:
    """What a sharded call may not do, and what its shortcuts must
    reproduce exactly."""

    def call_sequence(self, scheduler, check):
        """Arrivals, republishes, a departure skew whose rebalance
        splices the donor's plan, and a profiler publish of a placed
        job; ``check(plan, pool)`` runs after every call."""
        jobs = make_jobs([(float(i % 7 + 1), 0.1 + (i % 3) / 10)
                          for i in range(24)])
        pool = list(jobs)
        check(scheduler.schedule(pool, 40), pool)
        for step in range(3):
            pool.append(make_jobs([(2.0 + step, 0.3)], f"new{step}-")[0])
            check(scheduler.schedule(pool, 40), pool)
            pool[step * 5] = replace(pool[step * 5],
                                     cpu_work=pool[step * 5].cpu_work * 1.5,
                                     samples=2)
            check(scheduler.schedule(pool, 40), pool)
        placer = scheduler._placer
        pool = [job for job in pool if placer.cell_of(job.job_id) < 2]
        check(scheduler.schedule(pool, 40), pool)
        profiler = Profiler()
        pool[0] = profiler.record_iteration(pool[0].job_id, 0.4, 1.0, 4)
        check(scheduler.schedule(pool, 40), pool)

    def test_stats_never_collect_job_ids(self, monkeypatch):
        """Counting placed jobs sums group sizes: a call sequence never
        builds ``scheduled_job_ids``, traced or not."""
        def refuse(plan):
            raise AssertionError("scheduled_job_ids built")

        monkeypatch.setattr(SchedulePlan, "scheduled_job_ids",
                            property(refuse))

        def check(plan, pool):
            placed = sum(len(group.job_ids) for group in plan.groups)
            assert plan.n_jobs == placed
            assert scheduler.last_stats.best_n_jobs == placed

        for tracer in (None, Tracer(lambda: 0.0)):
            scheduler = ShardedScheduler(
                shard=ShardConfig(n_cells=4, rebalance_every=1,
                                  rebalance_threshold=0.1),
                tracer=tracer)
            self.call_sequence(scheduler, check)
            assert scheduler.jobs_rebalanced > 0

    def test_merge_matches_cluster_utilization(self, monkeypatch):
        """``_merge`` sums the cells' kept Eq. 4 terms; the result is
        ``cluster_utilization`` over the concatenated estimates, bit for
        bit, through arrivals, republishes, a donor splice and a
        forgotten cell."""
        scheduler = ShardedScheduler(shard=ShardConfig(
            n_cells=4, rebalance_every=1, rebalance_threshold=0.1))
        spliced, remembered = [], []

        def splice_spy(*args, **kwargs):
            spliced.append(splice_plan(*args, **kwargs))
            return spliced[-1]

        def remember_spy(cell, jobs, plan):
            remembered.append(plan)
            remember(cell, jobs, plan)

        remember = Cell.remember
        monkeypatch.setattr("repro.shard.scheduler.splice_plan", splice_spy)
        monkeypatch.setattr(Cell, "remember", remember_spy)

        def check(plan, pool):
            expected = scheduler.perf_model.cluster_utilization(
                [group.estimate for group in plan.groups],
                total_machines=40)
            # harmony: allow[DET006] the merge must be bitwise Eq. 4
            assert plan.utilization == expected
            # harmony: allow[DET006] the merge must be bitwise Eq. 4
            assert plan.score == scheduler.perf_model.score(expected)

        self.call_sequence(scheduler, check)
        # A donor kept its spliced plan, so its terms were re-derived.
        assert any(plan is splice for plan in remembered
                   for splice in spliced)


class TestMasterIntegration:
    def test_master_builds_sharded_scheduler_and_forms_groups(self):
        from repro.workloads.apps import DATASETS, LDA, JobSpec

        config = SimConfig().with_sharding(2)
        sim = Simulator()
        cluster = Cluster(24, config.machine)
        recorder = ClusterUsageRecorder(24)
        master = HarmonyMaster(sim, cluster, CostModel(config.machine),
                               config, RandomStreams(config.seed),
                               recorder)
        assert isinstance(master.scheduler, ShardedScheduler)
        assert master.scheduler.shard.n_cells == 2
        for index in range(3):
            master.submit(JobSpec(f"j{index}", LDA, DATASETS["LDA"][0],
                                  iterations=3))
        # Feeding profiles triggers publishes through the plan-cache
        # facade and schedules the pool through the sharded path.
        for index in range(3):
            master.profiler.record_iteration(f"j{index}", 0.4, 1.0, 4)
        assert master.groups

    def test_unsharded_config_keeps_plain_scheduler(self):
        config = SimConfig()
        sim = Simulator()
        cluster = Cluster(24, config.machine)
        master = HarmonyMaster(sim, cluster, CostModel(config.machine),
                               config, RandomStreams(config.seed),
                               ClusterUsageRecorder(24))
        assert isinstance(master.scheduler, HarmonyScheduler)


# ---------------------------------------------------------------------------
# experiments / CLI satellites


class TestScalabilityGuards:
    def test_empty_sweep_yields_zero_not_indexerror(self):
        assert ScalabilityResult(
            harmony_rows=[], oracle_rows=[]).largest_harmony_seconds \
            == 0.0
        assert ShardScalabilityResult(
            rows=[], churn_steps=4).speedup_at_largest == 0.0

    def test_sweep_without_an_unsharded_row_yields_zero(self):
        rows = [ShardRow(n_cells=2, n_jobs=30, n_machines=40,
                         cold_seconds=1.0, churn_seconds=1.0,
                         jobs_scheduled=30, score=1.0)]
        assert ShardScalabilityResult(
            rows=rows, churn_steps=4).speedup_at_largest == 0.0

    def test_scale_cli_smoke(self, capsys):
        from repro.shard.cli import main

        code = main(["--cells", "1,2", "--sizes", "30x40",
                     "--churn", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Sharded scheduling" in out
        assert "speedup at largest" in out

    def test_scale_cli_without_an_unsharded_row_prints_no_speedup(
            self, capsys):
        """An empty pool places nothing, so the churn republishes no
        running job, and a sweep with no one-cell row has no speedup
        to print."""
        from repro.shard.cli import main

        code = main(["--cells", "2", "--sizes", "0x4", "--churn", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Sharded scheduling" in out
        assert "speedup at largest" not in out

    def test_scale_cli_min_speedup_floor_fails_closed(self, capsys):
        from repro.shard.cli import main

        code = main(["--cells", "1,2", "--sizes", "30x40",
                     "--churn", "1", "--min-speedup", "1000"])
        assert code == 1

    @pytest.mark.parametrize("flag, value, message", [
        ("--churn", "-3", "--churn must be >= 0, got -3"),
        ("--cells", "0", "--cells must all be >= 1, got (0,)"),
        ("--cells", "1,0", "--cells must all be >= 1, got (1, 0)"),
        ("--sizes", "10x0", "--sizes needs >= 0 jobs and >= 1 machine"),
        ("--sizes", "-1x10", "--sizes needs >= 0 jobs and >= 1 machine"),
        ("--sizes", "10-20", "is not of the form <jobs>x<machines>"),
    ])
    def test_scale_cli_rejects_vacuous_counts(self, capsys, flag, value,
                                              message):
        from repro.shard.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main([f"{flag}={value}"])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err


# ---------------------------------------------------------------------------
# hash-seed stability (subprocess, like tests/test_analysis.py)


class TestHashSeedStability:
    _SCRIPT = """
import json, sys
sys.path.insert(0, {src!r})
from repro.core.profiler import JobMetrics, Profiler
from repro.shard import GlobalPlacer

def jobs(prefix, n, scale):
    return [JobMetrics(job_id=f"{{prefix}}{{i}}",
                       cpu_work=scale + (i * 37 % 11),
                       t_net=0.05 + (i % 7) / 9.0, m_observed=16)
            for i in range(n)]

placer = GlobalPlacer((40, 30, 30, 25))
pool = jobs("job-", 200, 0.5)
placer.route(pool)
survivors = [job for i, job in enumerate(pool) if i % 3]
routed = placer.route(survivors + jobs("new-", 17, 2.0))
print(json.dumps([[job.job_id for job in cell] for cell in routed]))
"""

    def test_routing_digest_stable_across_hash_seeds(self):
        outputs = []
        script = self._SCRIPT.format(
            src=os.path.join(REPO_ROOT, "src"))
        for hash_seed in ("0", "1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, check=True)
            outputs.append(
                json.loads(proc.stdout.strip().splitlines()[-1]))
        assert outputs[0] == outputs[1] == outputs[2]
